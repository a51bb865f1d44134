
.text
.file "cli.mc"

  ; void get_request(...)
.global get_request
.func get_request
get_request:
  .line 2
  push bp
  mov bp, sp
  .line 3
  mov r0, 16
  push r0
  load r0, [bp+12]
  push r0
  load r0, [bp+8]
  push r0
  call read
  add sp, 12
.L$cli$epi$get_request$0:
  leave
  ret

  ; void process(...)
.global process
.func process
process:
  .line 5
  push bp
  mov bp, sp
  sub sp, 16
  .line 6
  .line 7
  lea r0, [bp-16]
  push r0
  load r0, [bp+8]
  push r0
  call get_request
  add sp, 8
.L$cli$epi$process$1:
  leave
  ret

  ; int main(...)
.global main
.func main
main:
  .line 10
  push bp
  mov bp, sp
  sub sp, 4
  .line 11
  mov r0, 0
  store [bp-4], r0
  .line 12
  load r0, [bp-4]
  push r0
  call process
  add sp, 4
  .line 13
  .line 14
  mov r0, 16
  push r0
  mov r0, Lstr$cli$0
  push r0
  .line 13
  mov r0, 1
  push r0
  call write
  add sp, 12
  .line 15
  mov r0, 0
  jmp .L$cli$epi$main$2
.L$cli$epi$main$2:
  leave
  ret
.data
Lstr$cli$0: .asciz "request handled\n"
.align 4
