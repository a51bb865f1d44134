// The instruction list: assembly as typed statements instead of text.
//
// The MiniC code generator appends statements to an AsmList; one object
// builder (build_object) lays out the sections and encodes them.  The text
// assembler parses each line into the same statements and feeds them to the
// same builder, so there is one encoder, and every diagnostic reads the
// same whichever way a statement arrived.  Assembly text is a rendering of
// a list: render() prints what `swsec asm` shows and what SFI rewrites, and
// the text assembler reads it back into the same object.
//
// Each statement keeps the line number it has in the rendered text.  The
// builder reports errors at that line and falls back to it in the line
// table for instructions before the first `.line`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "assembler/object.hpp"
#include "isa/isa.hpp"

namespace swsec::assembler {

/// A name or byte string: `len` bytes at `off` in a string table (an
/// AsmList's `strtab`, or the source text of a parsed line).
struct StrRef {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
};

/// One instruction operand as written.
struct AsmOperand {
    enum class Kind : std::uint8_t {
        Reg, // `reg`
        Imm, // `value`
        Sym, // `sym` + `value` (the addend)
        Mem, // [`reg` + `value`]
    };
    Kind kind = Kind::Imm;
    isa::Reg reg = isa::Reg::R0;
    std::int32_t value = 0;
    StrRef sym;
};

struct AsmStmt {
    enum class Kind : std::uint8_t {
        Insn,    // `op` with `nops` operands
        Label,   // `str`:
        Text,    // .text
        Data,    // .data
        Global,  // .global `str`
        Func,    // .func `str`
        Entry,   // .entry `str`
        Line,    // .line `value`: MiniC source line of what follows
        File,    // .file "`str`"
        Word,    // .word ops[0] (a number or a symbol reference)
        Byte,    // .byte `value`
        Ascii,   // .ascii "`str`" (bytes, unescaped)
        Asciz,   // .asciz "`str`"
        Space,   // .space `value`
        Redzone, // .redzone `value`
        Align,   // .align `value`
        Bss,     // .bss `value`
        Comment, // ; `str`
        Blank,   // an empty line
    };
    Kind kind = Kind::Blank;
    isa::Op op = isa::Op::Nop;
    std::uint8_t nops = 0;
    std::uint32_t line = 0; // line number in the rendered text
    AsmOperand ops[2];
    StrRef str;
    std::int64_t value = 0;
};

/// A unit's statements in text order, with the string table their names and
/// bytes live in.
struct AsmList {
    std::string strtab;
    std::vector<AsmStmt> stmts;

    [[nodiscard]] std::string_view str(StrRef r) const noexcept {
        return std::string_view(strtab).substr(r.off, r.len);
    }
};

/// The text of `list`: one line per statement, except that a label shares
/// its line with the statement after it when both carry the same line
/// number ("msg: .asciz ...").
[[nodiscard]] std::string render(const AsmList& list);

/// Lay out and encode `list` into an object file.  Throws swsec::ParseError
/// at a statement's line for what the text assembler rejects at that line
/// (duplicate labels, section caps, ...), and swsec::Error for `.global`,
/// `.func` or `.entry` of an undefined symbol.
[[nodiscard]] objfmt::ObjectFile build_object(const AsmList& list, const std::string& unit_name);

} // namespace swsec::assembler
