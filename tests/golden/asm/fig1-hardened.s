
.text
.file "cli.mc"

  ; void get_request(...)
.global get_request
.func get_request
get_request:
  .line 2
  push bp
  mov bp, sp
  sub sp, 4
  ; StackGuard: place canary between locals and saved bp/ret
  mov r0, __stack_chk_guard
  load r0, [r0+0]
  store [bp-4], r0
  ; redzones: clear stale poison, then poison array red zones
  lea r0, [bp-4]
  mov r1, 4
  sys 7
  ; asan: poison the caller's frame linkage (ret-addr zone)
  lea r0, [bp+0]
  mov r1, 8
  sys 6
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
  ; redzones: unpoison the frame before it is deallocated
  mov r3, r0
  lea r0, [bp-4]
  mov r1, 4
  sys 7
  lea r0, [bp+0]
  mov r1, 8
  sys 7
  mov r0, r3
  ; StackGuard: verify canary before using the saved return address
  mov r1, __stack_chk_guard
  load r1, [r1+0]
  load r2, [bp-4]
  cmp r1, r2
  jz .L$cli$canary_ok$1
  mov r0, 1
  sys 5
.L$cli$canary_ok$1:
  leave
  ret

  ; void process(...)
.global process
.func process
process:
  .line 5
  push bp
  mov bp, sp
  sub sp, 52
  ; StackGuard: place canary between locals and saved bp/ret
  mov r0, __stack_chk_guard
  load r0, [r0+0]
  store [bp-4], r0
  ; redzones: clear stale poison, then poison array red zones
  lea r0, [bp-52]
  mov r1, 52
  sys 7
  lea r0, [bp-20]
  mov r1, 16
  sys 6
  lea r0, [bp-52]
  mov r1, 16
  sys 6
  ; asan: poison the caller's frame linkage (ret-addr zone)
  lea r0, [bp+0]
  mov r1, 8
  sys 6
  .line 6
  .line 7
  lea r0, [bp-36]
  push r0
  load r0, [bp+8]
  push r0
  call get_request
  add sp, 8
.L$cli$epi$process$2:
  ; redzones: unpoison the frame before it is deallocated
  mov r3, r0
  lea r0, [bp-52]
  mov r1, 52
  sys 7
  lea r0, [bp+0]
  mov r1, 8
  sys 7
  mov r0, r3
  ; StackGuard: verify canary before using the saved return address
  mov r1, __stack_chk_guard
  load r1, [r1+0]
  load r2, [bp-4]
  cmp r1, r2
  jz .L$cli$canary_ok$3
  mov r0, 1
  sys 5
.L$cli$canary_ok$3:
  leave
  ret

  ; int main(...)
.global main
.func main
main:
  .line 10
  push bp
  mov bp, sp
  sub sp, 8
  ; StackGuard: place canary between locals and saved bp/ret
  mov r0, __stack_chk_guard
  load r0, [r0+0]
  store [bp-4], r0
  ; redzones: clear stale poison, then poison array red zones
  lea r0, [bp-8]
  mov r1, 8
  sys 7
  ; asan: poison the caller's frame linkage (ret-addr zone)
  lea r0, [bp+0]
  mov r1, 8
  sys 6
  .line 11
  mov r0, 0
  store [bp-8], r0
  .line 12
  load r0, [bp-8]
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
  jmp .L$cli$epi$main$4
.L$cli$epi$main$4:
  ; redzones: unpoison the frame before it is deallocated
  mov r3, r0
  lea r0, [bp-8]
  mov r1, 8
  sys 7
  lea r0, [bp+0]
  mov r1, 8
  sys 7
  mov r0, r3
  ; StackGuard: verify canary before using the saved return address
  mov r1, __stack_chk_guard
  load r1, [r1+0]
  load r2, [bp-4]
  cmp r1, r2
  jz .L$cli$canary_ok$5
  mov r0, 1
  sys 5
.L$cli$canary_ok$5:
  leave
  ret
.data
Lstr$cli$0: .asciz "request handled\n"
.align 4
