// Text assembler for swsec assembly.
//
// Syntax (one statement per line; ';' or '#' start a comment):
//
//   .text / .data          switch section
//   label:                 define a symbol at the current position
//   .global name           export a symbol
//   .func name             mark symbol as a function start (CFI metadata)
//   .entry name            mark symbol as a PMA entry point
//   .word expr[, expr...]  emit 32-bit words (expr: number or label[+off])
//   .byte n[, n...]        emit bytes
//   .ascii "str"           emit string bytes (no terminator)
//   .asciz "str"           emit string bytes + NUL
//   .space n               emit n zero bytes
//   .align n               pad with zeros to n-byte alignment
//   .bss n                 reserve n zero bytes after the data section
//
// Instructions use the mnemonics of isa.hpp with operand-shape overloading:
// "mov r0, r1" is register-register, "mov r0, 42" loads an immediate and
// "mov r0, label" loads an absolute address (emitting an Abs32 relocation).
// Memory operands are written "[reg]", "[reg+off]" or "[reg-off]":
//
//   load  r0, [bp+8]
//   store [bp-4], r0
//   call  get_request        ; Rel32 relocation
//   jz    done
//   sys   2                  ; SYS write
//
// The assembler also reads hand-written and generated input, so hostile
// numbers are refused with a ParseError rather than trusted:
//
//   * a number literal lies in -2^31 .. 2^32-1 (an int32 or a uint32 word);
//   * `.align n` needs 1 <= n <= kMaxAlign;
//   * `.space`, `.redzone` and `.bss` never grow a section, or bss, past
//     kMaxSectionBytes.
//
// Each line is scanned in place and mnemonics dispatch through one table.
// A line becomes the typed statements of assembler/asm_list.hpp, which go
// straight to the object builder that also encodes the compiler's
// instruction lists: there is one encoder, and the parser adds only the
// checks of the text itself (literals, operand shapes, mnemonics).
#pragma once

#include <cstdint>
#include <string>

#include "assembler/object.hpp"

namespace swsec::assembler {

/// Largest alignment `.align` accepts (one guest page).
inline constexpr std::int64_t kMaxAlign = 4096;

/// Cap on one object's text or data section, and on its bss, in bytes.  The
/// largest in-tree section is SFI's 64 KiB data reserve.
inline constexpr std::int64_t kMaxSectionBytes = std::int64_t{16} << 20;

/// Assemble one translation unit.  Throws swsec::ParseError (with line
/// numbers) on malformed input.
[[nodiscard]] objfmt::ObjectFile assemble(const std::string& source,
                                          const std::string& unit_name = "asm");

} // namespace swsec::assembler
