// Assembler and linker tests: directives, relocations, symbols, errors.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "assembler/assembler.hpp"
#include "assembler/linker.hpp"
#include "common/error.hpp"
#include "isa/disasm.hpp"

namespace {

using namespace swsec;
using assembler::assemble;
using objfmt::RelocKind;
using objfmt::SectionKind;

TEST(Assembler, BasicInstructionsAndComments) {
    const auto obj = assemble(R"(
        ; a comment
        .text
        start:              # another comment style
          nop
          mov r0, 5
          mov r1, r0
          add r0, 1
          ret
    )");
    const auto lines = isa::disassemble(obj.text, 0);
    ASSERT_EQ(lines.size(), 5u);
    EXPECT_EQ(lines[0].text, "nop");
    EXPECT_EQ(lines[1].text, "movi r0, 5");
    EXPECT_EQ(lines[2].text, "mov r1, r0");
    EXPECT_EQ(lines[3].text, "addi r0, 1");
    EXPECT_EQ(lines[4].text, "ret");
}

TEST(Assembler, MemoryOperandsAndNegativeDisplacements) {
    const auto obj = assemble(R"(
        .text
        f:
          load r0, [bp+8]
          store [bp-4], r0
          load8 r1, [r2]
          lea r3, [sp+12]
          ret
    )");
    const auto lines = isa::disassemble(obj.text, 0);
    EXPECT_EQ(lines[0].text, "load r0, [bp+8]");
    EXPECT_EQ(lines[1].text, "store [bp-4], r0");
    EXPECT_EQ(lines[2].text, "load8 r1, [r2+0]");
    EXPECT_EQ(lines[3].text, "lea r3, [sp+12]");
}

TEST(Assembler, DataDirectives) {
    const auto obj = assemble(R"(
        .data
        a: .word 0x11223344
        b: .byte 1, 2, 3
        .align 4
        c: .asciz "hi\n"
        d: .space 5
        e: .ascii "xy"
    )");
    EXPECT_EQ(obj.data[0], 0x44);
    EXPECT_EQ(obj.data[3], 0x11);
    EXPECT_EQ(obj.data[4], 1);
    EXPECT_EQ(obj.data[6], 3);
    const auto* c = obj.find_symbol("c");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->offset, 8u); // aligned to 4
    EXPECT_EQ(obj.data[c->offset], 'h');
    EXPECT_EQ(obj.data[c->offset + 2], '\n');
    EXPECT_EQ(obj.data[c->offset + 3], 0);
}

TEST(Assembler, SymbolAttributes) {
    const auto obj = assemble(R"(
        .text
        .global f
        .func f
        .entry f
        f: ret
        helper: ret
    )");
    const auto* f = obj.find_symbol("f");
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(f->is_global);
    EXPECT_TRUE(f->is_func);
    EXPECT_TRUE(f->is_entry);
    const auto* h = obj.find_symbol("helper");
    ASSERT_NE(h, nullptr);
    EXPECT_FALSE(h->is_global);
}

TEST(Assembler, RelocationsRecorded) {
    const auto obj = assemble(R"(
        .text
        f:
          mov r0, message     ; Abs32
          call f              ; Rel32
          jmp f
          push message+4
          ret
        .data
        message: .asciz "hello"
        ptr: .word message    ; Abs32 in data
    )");
    ASSERT_EQ(obj.relocs.size(), 5u);
    EXPECT_EQ(obj.relocs[0].kind, RelocKind::Abs32);
    EXPECT_EQ(obj.relocs[1].kind, RelocKind::Rel32);
    EXPECT_EQ(obj.relocs[3].addend, 4);
    EXPECT_EQ(obj.relocs[4].section, SectionKind::Data);
}

TEST(Assembler, Errors) {
    EXPECT_THROW((void)assemble("bogus r0, r1"), ParseError);
    EXPECT_THROW((void)assemble(".text\n mov r0"), ParseError);
    EXPECT_THROW((void)assemble(".text\n mov 5, r0"), ParseError);
    EXPECT_THROW((void)assemble(".text\nx: ret\nx: ret"), ParseError);
    EXPECT_THROW((void)assemble(".data\n add r0, r1"), ParseError); // insn outside .text
    EXPECT_THROW((void)assemble(".text\n.global nosuch\n ret"), Error);
    EXPECT_THROW((void)assemble(".weird 4"), ParseError);
    EXPECT_THROW((void)assemble(".text\n load r0, [r9]"), ParseError); // no r9
}

// Hostile numbers are refused with a ParseError: no UB, no crash, no wrap,
// no multi-GB allocation.
TEST(Assembler, NumberLiteralsOutOfRangeAreErrors) {
    EXPECT_THROW((void)assemble(".text\n mov r0, 99999999999999999999"), ParseError);
    EXPECT_THROW((void)assemble(".text\n mov r0, 0x99999999999999999999"), ParseError);
    EXPECT_THROW((void)assemble(".text\n mov r0, 4294967297"), ParseError); // not "mov r0, 1"
    EXPECT_THROW((void)assemble(".text\n mov r0, -2147483649"), ParseError);
    EXPECT_THROW((void)assemble(".data\n .word 0x100000000"), ParseError);
    EXPECT_THROW((void)assemble(".text\n load r0, [bp+4294967296]"), ParseError);
    EXPECT_THROW((void)assemble(".data\nx: .word x+4294967296"), ParseError);
    try {
        (void)assemble(".text\n nop\n mov r0, 4294967297");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 3);
    }
    // Both ends of the range still assemble, to the same word as before.
    const auto obj = assemble(".data\n .word 0xFFFFFFFF, -2147483648, 4294967295, -1");
    EXPECT_EQ(obj.data, (std::vector<std::uint8_t>{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0x80, 0xff,
                                                   0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}));
    // A token that is not a number is still a symbol, however long.
    EXPECT_EQ(assemble(".text\n mov r0, x99999999999999999999\nx99999999999999999999: ret")
                  .relocs.size(),
              1u);
}

TEST(Assembler, AlignOutOfRangeIsAnError) {
    EXPECT_THROW((void)assemble(".text\n .align 4294967296"), ParseError); // was SIGFPE
    EXPECT_THROW((void)assemble(".text\n .align 8192"), ParseError);
    EXPECT_THROW((void)assemble(".text\n .align 0"), ParseError);
    EXPECT_EQ(assemble(".data\n .byte 1\n .align 4096").data.size(), 4096u);
}

TEST(Assembler, SectionGrowthIsCapped) {
    const auto cap = static_cast<std::size_t>(assembler::kMaxSectionBytes);
    EXPECT_THROW((void)assemble(".data\n .space 3000000000"), ParseError);
    EXPECT_THROW((void)assemble(".text\n .space 3000000000"), ParseError);
    EXPECT_THROW((void)assemble(".data\n .redzone 3000000000"), ParseError);
    EXPECT_THROW((void)assemble(".bss 3000000000"), ParseError);
    // Two .bss lines must not wrap bss_size.
    EXPECT_THROW((void)assemble(".bss 4294967295\n.bss 2"), ParseError);
    EXPECT_THROW((void)assemble(".bss 16777216\n.bss 1"), ParseError);
    EXPECT_EQ(assemble(".bss 16777216").bss_size, cap);
    // The cap counts what the section already holds.
    EXPECT_EQ(assemble(".data\n .space 16777216").data.size(), cap);
    EXPECT_THROW((void)assemble(".data\n .byte 1\n .space 16777216"), ParseError);
}

TEST(Linker, ResolvesCrossUnitSymbols) {
    const auto a = assemble(R"(
        .text
        .global main
        main:
          call helper
          ret
    )",
                            "a");
    const auto b = assemble(R"(
        .text
        .global helper
        helper:
          mov r0, shared
          ret
        .data
        .global shared
        shared: .word 7
    )",
                            "b");
    const std::vector<objfmt::ObjectFile> objs = {a, b};
    const auto img = assembler::link(objs);
    EXPECT_TRUE(img.try_symbol("main").has_value());
    EXPECT_TRUE(img.try_symbol("helper").has_value());
    const auto shared = img.try_symbol("shared");
    ASSERT_TRUE(shared.has_value());
    EXPECT_EQ(shared->section, SectionKind::Data);
}

TEST(Linker, DuplicateSymbolIsAnError) {
    const auto a = assemble(".text\nf: ret", "a");
    const auto b = assemble(".text\nf: ret", "b");
    const std::vector<objfmt::ObjectFile> objs = {a, b};
    EXPECT_THROW((void)assembler::link(objs), Error);
}

TEST(Linker, UndefinedSymbolIsAnError) {
    const auto a = assemble(".text\nmain: call nowhere\n ret", "a");
    const std::vector<objfmt::ObjectFile> objs = {a};
    EXPECT_THROW((void)assembler::link(objs), Error);
}

TEST(Linker, FuncAndEntryOffsetsCollected) {
    const auto a = assemble(R"(
        .text
        .func f
        f: ret
        .func g
        .entry g
        g: ret
    )",
                            "a");
    const std::vector<objfmt::ObjectFile> objs = {a};
    const auto img = assembler::link(objs);
    EXPECT_EQ(img.func_offsets.size(), 2u);
    ASSERT_EQ(img.entry_offsets.size(), 1u);
    EXPECT_EQ(img.entry_offsets[0], img.symbol("g").offset);
}

TEST(Linker, UnitsAreWordAligned) {
    const auto a = assemble(".text\nf: ret", "a"); // 1 byte of text
    const auto b = assemble(".text\n.global g\ng: ret", "b");
    const std::vector<objfmt::ObjectFile> objs = {a, b};
    const auto img = assembler::link(objs);
    EXPECT_EQ(img.symbol("g").offset % 4, 0u);
}

/// The committed corpus of malformed units (tests/asm_corpus/*.txt): each
/// "=== name" line opens a unit, whose "--- " line holds the diagnostic
/// assembling it must raise, line number included.
TEST(Assembler, DiagnosticsMatchCommittedCorpus) {
    struct Case {
        std::string file;
        std::string name;
        std::string text;
        std::string expected;
    };
    std::vector<Case> cases;
    for (const auto& entry : std::filesystem::directory_iterator(SWSEC_ASM_CORPUS_DIR)) {
        std::ifstream in(entry.path());
        for (std::string line; std::getline(in, line);) {
            if (line.rfind("=== ", 0) == 0) {
                cases.push_back({entry.path().filename().string(), line.substr(4), "", ""});
            } else if (line.rfind("--- ", 0) == 0) {
                ASSERT_FALSE(cases.empty()) << entry.path();
                cases.back().expected = line.substr(4);
            } else if (!cases.empty() && cases.back().expected.empty()) {
                cases.back().text += line + "\n";
            }
        }
    }
    ASSERT_GE(cases.size(), 200u);
    for (const Case& c : cases) {
        std::string got = "<accepted>";
        try {
            (void)assemble(c.text);
        } catch (const Error& e) {
            got = e.what();
        }
        EXPECT_EQ(got, c.expected) << c.file << " " << c.name;
    }
}

} // namespace
