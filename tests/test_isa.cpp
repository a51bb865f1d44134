// ISA tests: encode/decode round trips, operand validation, disassembly,
// and the variable-length-encoding properties the attacks depend on.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <span>

#include "isa/disasm.hpp"
#include "isa/encoder.hpp"
#include "isa/isa.hpp"

namespace {

using namespace swsec::isa;

TEST(Isa, RegisterNamesRoundTrip) {
    for (int i = 0; i < kNumRegs; ++i) {
        const Reg r = static_cast<Reg>(i);
        const auto parsed = parse_reg(reg_name(r));
        ASSERT_TRUE(parsed.has_value()) << reg_name(r);
        EXPECT_EQ(*parsed, r);
    }
    EXPECT_FALSE(parse_reg("r8").has_value());
    EXPECT_FALSE(parse_reg("r9").has_value());
    EXPECT_FALSE(parse_reg("ip").has_value());
    EXPECT_FALSE(parse_reg("").has_value());
}

TEST(Isa, OpInfoTableIsConsistent) {
    for (const OpInfo& info : all_ops()) {
        const OpInfo* looked_up = op_info(static_cast<std::uint8_t>(info.op));
        ASSERT_NE(looked_up, nullptr) << info.mnemonic;
        EXPECT_EQ(looked_up->op, info.op);
        EXPECT_GE(looked_up->length, 1);
        EXPECT_LE(looked_up->length, 6);
    }
}

TEST(Isa, X86FlavouredOpcodeValues) {
    // The reproduction deliberately reuses RET/CALL/LEAVE/NOP values so the
    // Fig. 1(b) listing and the ROP-gadget flavour carry over.
    EXPECT_EQ(static_cast<std::uint8_t>(Op::Ret), 0xc3);
    EXPECT_EQ(static_cast<std::uint8_t>(Op::Call), 0xe8);
    EXPECT_EQ(static_cast<std::uint8_t>(Op::Leave), 0xc9);
    EXPECT_EQ(static_cast<std::uint8_t>(Op::Nop), 0x90);
    EXPECT_EQ(static_cast<std::uint8_t>(Op::Push), 0x50);
}

struct EncodeCase {
    const char* label;
    std::vector<std::uint8_t> bytes;
    Op op;
    std::uint8_t length;
};

TEST(Isa, EncodeDecodeRoundTrip) {
    Encoder e;
    e.none(Op::Nop);
    e.reg(Op::Push, Reg::Bp);
    e.reg_reg(Op::MovR, Reg::Bp, Reg::Sp);
    e.reg_imm32(Op::MovI, Reg::R3, -12345);
    e.reg_mem(Op::Load, Reg::R0, Reg::Bp, -16);
    e.reg_imm8(Op::ShlI, Reg::R2, 5);
    e.rel32(Op::Jmp, -7);
    e.imm8(Op::Sys, 2);
    e.imm32(Op::PushI, 0x11223344);
    e.none(Op::Ret);

    const auto& bytes = e.bytes();
    std::size_t off = 0;
    const auto next = [&]() {
        const auto insn = decode(std::span<const std::uint8_t>(bytes).subspan(off));
        EXPECT_TRUE(insn.has_value()) << "offset " << off;
        off += insn->length;
        return *insn;
    };
    EXPECT_EQ(next().op, Op::Nop);
    {
        const Insn i = next();
        EXPECT_EQ(i.op, Op::Push);
        EXPECT_EQ(i.r1, Reg::Bp);
    }
    {
        const Insn i = next();
        EXPECT_EQ(i.op, Op::MovR);
        EXPECT_EQ(i.r1, Reg::Bp);
        EXPECT_EQ(i.r2, Reg::Sp);
    }
    {
        const Insn i = next();
        EXPECT_EQ(i.op, Op::MovI);
        EXPECT_EQ(i.r1, Reg::R3);
        EXPECT_EQ(i.imm, -12345);
    }
    {
        const Insn i = next();
        EXPECT_EQ(i.op, Op::Load);
        EXPECT_EQ(i.r1, Reg::R0);
        EXPECT_EQ(i.r2, Reg::Bp);
        EXPECT_EQ(i.imm, -16);
    }
    {
        const Insn i = next();
        EXPECT_EQ(i.op, Op::ShlI);
        EXPECT_EQ(i.imm, 5);
    }
    {
        const Insn i = next();
        EXPECT_EQ(i.op, Op::Jmp);
        EXPECT_EQ(i.imm, -7);
    }
    {
        const Insn i = next();
        EXPECT_EQ(i.op, Op::Sys);
        EXPECT_EQ(i.imm, 2);
    }
    {
        const Insn i = next();
        EXPECT_EQ(i.op, Op::PushI);
        EXPECT_EQ(i.imm, 0x11223344);
    }
    EXPECT_EQ(next().op, Op::Ret);
    EXPECT_EQ(off, bytes.size());
}

TEST(Isa, DecodeRejectsBadRegisterFields) {
    // PUSH with register index 10 (only 0-9 valid).
    const std::uint8_t bad_push[] = {0x50, 0x0a};
    EXPECT_FALSE(decode(bad_push).has_value());
    // MovR with a bad nibble.
    const std::uint8_t bad_mov[] = {0x89, 0xfa};
    EXPECT_FALSE(decode(bad_mov).has_value());
}

TEST(Isa, DecodeRejectsTruncatedInstructions) {
    const std::uint8_t truncated[] = {0xb8, 0x00, 0x01, 0x02}; // MovI needs 6 bytes
    EXPECT_FALSE(decode(truncated).has_value());
    EXPECT_FALSE(decode({}).has_value());
}

TEST(Isa, DecodeRejectsUnknownOpcodes) {
    for (const std::uint8_t b : {0x04, 0x10, 0x7a, 0xaa, 0xf0}) {
        if (op_info(b) == nullptr) {
            const std::uint8_t buf[] = {b, 0, 0, 0, 0, 0, 0};
            EXPECT_FALSE(decode(buf).has_value()) << int(b);
        }
    }
}

/// What decode() must return for `bytes`, derived from op_info()'s operand
/// kinds alone.
std::optional<Insn> reference_decode(std::span<const std::uint8_t> bytes) {
    if (bytes.empty()) {
        return std::nullopt;
    }
    const OpInfo* info = op_info(bytes[0]);
    if (info == nullptr || bytes.size() < info->length) {
        return std::nullopt;
    }
    const auto le32 = [&](std::size_t at) {
        std::uint32_t v = 0;
        for (std::size_t k = 0; k < 4; ++k) {
            v |= static_cast<std::uint32_t>(bytes[at + k]) << (8 * k);
        }
        return static_cast<std::int32_t>(v);
    };
    Insn insn;
    insn.op = info->op;
    insn.length = info->length;
    const auto one_reg = [&] {
        if (!is_valid_reg(bytes[1])) {
            return false;
        }
        insn.r1 = static_cast<Reg>(bytes[1]);
        return true;
    };
    const auto two_regs = [&] {
        if (!is_valid_reg(bytes[1] >> 4) || !is_valid_reg(bytes[1] & 0xf)) {
            return false;
        }
        insn.r1 = static_cast<Reg>(bytes[1] >> 4);
        insn.r2 = static_cast<Reg>(bytes[1] & 0xf);
        return true;
    };
    switch (info->operands) {
    case OperandKind::None:
        break;
    case OperandKind::Reg:
        if (!one_reg()) {
            return std::nullopt;
        }
        break;
    case OperandKind::RegReg:
        if (!two_regs()) {
            return std::nullopt;
        }
        break;
    case OperandKind::RegImm32:
        if (!one_reg()) {
            return std::nullopt;
        }
        insn.imm = le32(2);
        break;
    case OperandKind::Imm32:
    case OperandKind::Rel32:
        insn.imm = le32(1);
        break;
    case OperandKind::RegMem:
        if (!two_regs()) {
            return std::nullopt;
        }
        insn.imm = le32(2);
        break;
    case OperandKind::RegImm8:
        if (!one_reg()) {
            return std::nullopt;
        }
        insn.imm = bytes[2];
        break;
    case OperandKind::Imm8:
        insn.imm = bytes[1];
        break;
    }
    return insn;
}

// Every first-two-byte pair, every window length 0-8, and two fills of the
// remaining bytes (all zeros; a pattern with the sign bit set in every
// immediate byte), against the reference above.
TEST(Isa, DecodeAgreesWithTheOpcodeTableOnEveryPrefix) {
    std::size_t compared = 0;
    for (unsigned pair = 0; pair < 65536; ++pair) {
        for (const std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xa5}}) {
            std::array<std::uint8_t, 8> buf{};
            buf.fill(fill);
            buf[0] = static_cast<std::uint8_t>(pair & 0xff);
            buf[1] = static_cast<std::uint8_t>(pair >> 8);
            for (std::size_t len = 0; len <= buf.size(); ++len) {
                const std::span<const std::uint8_t> window(buf.data(), len);
                const auto got = decode(window);
                const auto want = reference_decode(window);
                ++compared;
                ASSERT_EQ(got.has_value(), want.has_value())
                    << "bytes " << pair << " length " << len << " fill " << int{fill};
                if (got) {
                    ASSERT_TRUE(got->op == want->op && got->r1 == want->r1 &&
                                got->r2 == want->r2 && got->imm == want->imm &&
                                got->length == want->length)
                        << "bytes " << pair << " length " << len << " fill " << int{fill};
                }
            }
        }
    }
    EXPECT_EQ(compared, 65536u * 2 * 9);
}

TEST(Isa, VariableLengthDecodingYieldsDifferentStreams) {
    // The property ROP gadget hunting relies on: decoding the same bytes at
    // offset+k yields different instructions.  "movi r0, imm" whose imm
    // bytes contain 0x58 0x00 0xc3 hides "pop r0; ret".
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R0, 0x00c30058); // bytes: b8 00 58 00 c3 00
    const auto& bytes = e.bytes();
    const auto hidden = decode(std::span<const std::uint8_t>(bytes).subspan(2));
    ASSERT_TRUE(hidden.has_value());
    EXPECT_EQ(hidden->op, Op::Pop);
    EXPECT_EQ(hidden->r1, Reg::R0);
    const auto ret = decode(std::span<const std::uint8_t>(bytes).subspan(4));
    ASSERT_TRUE(ret.has_value());
    EXPECT_EQ(ret->op, Op::Ret);
}

TEST(Isa, PatchRel32) {
    Encoder e;
    const std::uint32_t j = e.rel32(Op::Jmp, 0);
    e.none(Op::Nop);
    const std::uint32_t target = e.size();
    e.none(Op::Halt);
    e.patch_rel32(j, target);
    const auto insn = decode(e.bytes());
    ASSERT_TRUE(insn.has_value());
    // rel is measured from the end of the jmp (offset 5) to target (6).
    EXPECT_EQ(insn->imm, 1);
}

TEST(Isa, ToStringFormats) {
    Encoder e;
    e.reg_mem(Op::Store, Reg::Bp, Reg::R0, -4);
    const auto insn = decode(e.bytes());
    ASSERT_TRUE(insn.has_value());
    EXPECT_EQ(to_string(*insn, 0x1000), "store [bp-4], r0");

    Encoder e2;
    e2.rel32(Op::Call, 0x10);
    const auto call = decode(e2.bytes());
    EXPECT_EQ(to_string(*call, 0x1000), "call 0x00001015");
}

TEST(Disasm, ListingCoversAllBytes) {
    Encoder e;
    e.reg(Op::Push, Reg::Bp);
    e.reg_reg(Op::MovR, Reg::Bp, Reg::Sp);
    e.none(Op::Leave);
    e.none(Op::Ret);
    const auto lines = disassemble(e.bytes(), 0x08048000);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(lines[0].text, "push bp");
    EXPECT_EQ(lines[1].text, "mov bp, sp");
    EXPECT_EQ(lines[2].text, "leave");
    EXPECT_EQ(lines[3].text, "ret");
    EXPECT_EQ(lines[3].addr, 0x08048000u + 5);
}

TEST(Disasm, UndecodableBytesBecomeByteLines) {
    const std::vector<std::uint8_t> bytes = {0x04, 0x90}; // 0x04 is not an opcode
    const auto lines = disassemble(bytes, 0);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].text, ".byte 0x04");
    EXPECT_EQ(lines[1].text, "nop");
    // The structured marker distinguishes data lines from real instructions
    // so consumers no longer have to sniff the ".byte" text prefix — and the
    // placeholder `insn` of a data line is never mistaken for a decoded one.
    EXPECT_TRUE(lines[0].is_data);
    EXPECT_EQ(lines[0].insn.length, 1u) << "data lines resync one byte at a time";
    EXPECT_FALSE(lines[1].is_data);
}

} // namespace
