#include "isa/isa.hpp"

#include <array>

#include "common/error.hpp"
#include "common/hexdump.hpp"

namespace swsec::isa {

namespace {

// Encoded length by operand kind: opcode byte + operand bytes.
constexpr std::uint8_t len_for(OperandKind k) noexcept {
    switch (k) {
    case OperandKind::None:
        return 1;
    case OperandKind::Reg:
        return 2;
    case OperandKind::RegReg:
        return 2; // packed into one byte: (r1<<4 | r2)
    case OperandKind::RegImm32:
        return 6;
    case OperandKind::Imm32:
        return 5;
    case OperandKind::RegMem:
        return 6; // opcode, (r1<<4|r2), disp32 -> 1+1+4
    case OperandKind::RegImm8:
        return 3;
    case OperandKind::Rel32:
        return 5;
    case OperandKind::Imm8:
        return 2;
    }
    return 1;
}

constexpr OpInfo make(Op op, const char* mn, OperandKind k) {
    return OpInfo{op, mn, k, len_for(k)};
}

constexpr std::array<OpInfo, 56> kOps = {
    make(Op::Halt, "halt", OperandKind::None),
    make(Op::Nop, "nop", OperandKind::None),
    make(Op::Push, "push", OperandKind::Reg),
    make(Op::Pop, "pop", OperandKind::Reg),
    make(Op::PushI, "pushi", OperandKind::Imm32),
    make(Op::MovI, "movi", OperandKind::RegImm32),
    make(Op::MovR, "mov", OperandKind::RegReg),
    make(Op::Load, "load", OperandKind::RegMem),
    make(Op::Store, "store", OperandKind::RegMem),
    make(Op::Load8, "load8", OperandKind::RegMem),
    make(Op::Store8, "store8", OperandKind::RegMem),
    make(Op::Lea, "lea", OperandKind::RegMem),
    make(Op::Add, "add", OperandKind::RegReg),
    make(Op::AddI, "addi", OperandKind::RegImm32),
    make(Op::Sub, "sub", OperandKind::RegReg),
    make(Op::SubI, "subi", OperandKind::RegImm32),
    make(Op::Mul, "mul", OperandKind::RegReg),
    make(Op::MulI, "muli", OperandKind::RegImm32),
    make(Op::Divs, "divs", OperandKind::RegReg),
    make(Op::Rems, "rems", OperandKind::RegReg),
    make(Op::And, "and", OperandKind::RegReg),
    make(Op::AndI, "andi", OperandKind::RegImm32),
    make(Op::Or, "or", OperandKind::RegReg),
    make(Op::OrI, "ori", OperandKind::RegImm32),
    make(Op::Xor, "xor", OperandKind::RegReg),
    make(Op::XorI, "xori", OperandKind::RegImm32),
    make(Op::ShlI, "shli", OperandKind::RegImm8),
    make(Op::ShrI, "shri", OperandKind::RegImm8),
    make(Op::SarI, "sari", OperandKind::RegImm8),
    make(Op::Shl, "shl", OperandKind::RegReg),
    make(Op::Shr, "shr", OperandKind::RegReg),
    make(Op::Sar, "sar", OperandKind::RegReg),
    make(Op::Not, "not", OperandKind::Reg),
    make(Op::Neg, "neg", OperandKind::Reg),
    make(Op::Cmp, "cmp", OperandKind::RegReg),
    make(Op::CmpI, "cmpi", OperandKind::RegImm32),
    make(Op::Test, "test", OperandKind::RegReg),
    make(Op::Jmp, "jmp", OperandKind::Rel32),
    make(Op::Jz, "jz", OperandKind::Rel32),
    make(Op::Jnz, "jnz", OperandKind::Rel32),
    make(Op::Jl, "jl", OperandKind::Rel32),
    make(Op::Jge, "jge", OperandKind::Rel32),
    make(Op::Jg, "jg", OperandKind::Rel32),
    make(Op::Jle, "jle", OperandKind::Rel32),
    make(Op::Jb, "jb", OperandKind::Rel32),
    make(Op::Jae, "jae", OperandKind::Rel32),
    make(Op::Call, "call", OperandKind::Rel32),
    make(Op::CallR, "callr", OperandKind::Reg),
    make(Op::JmpR, "jmpr", OperandKind::Reg),
    make(Op::Ret, "ret", OperandKind::None),
    make(Op::Leave, "leave", OperandKind::None),
    make(Op::Sys, "sys", OperandKind::Imm8),
    make(Op::CLoad, "cload", OperandKind::RegImm8),
    make(Op::CStore, "cstore", OperandKind::RegImm8),
    make(Op::CJmp, "cjmp", OperandKind::Imm8),
    make(Op::CSetB, "csetb", OperandKind::RegImm8),
};

// 256-entry dispatch table built once.
const std::array<const OpInfo*, 256>& dispatch() {
    static const std::array<const OpInfo*, 256> table = [] {
        std::array<const OpInfo*, 256> t{};
        for (const auto& info : kOps) {
            t[static_cast<std::uint8_t>(info.op)] = &info;
        }
        return t;
    }();
    return table;
}

std::int32_t read_i32(std::span<const std::uint8_t> b, std::size_t off) noexcept {
    const std::uint32_t v = static_cast<std::uint32_t>(b[off]) |
                            (static_cast<std::uint32_t>(b[off + 1]) << 8) |
                            (static_cast<std::uint32_t>(b[off + 2]) << 16) |
                            (static_cast<std::uint32_t>(b[off + 3]) << 24);
    return static_cast<std::int32_t>(v);
}

} // namespace

std::string reg_name(Reg r) {
    switch (r) {
    case Reg::Sp:
        return "sp";
    case Reg::Bp:
        return "bp";
    default:
        return "r" + std::to_string(static_cast<int>(r));
    }
}

std::optional<Reg> parse_reg(std::string_view name) {
    if (name == "sp") {
        return Reg::Sp;
    }
    if (name == "bp") {
        return Reg::Bp;
    }
    if (name.size() == 2 && name[0] == 'r' && name[1] >= '0' && name[1] <= '7') {
        return static_cast<Reg>(name[1] - '0');
    }
    return std::nullopt;
}

const OpInfo* op_info(std::uint8_t opcode) noexcept { return dispatch()[opcode]; }

std::span<const OpInfo> all_ops() noexcept { return kOps; }

std::optional<Insn> decode(std::span<const std::uint8_t> bytes) noexcept {
    if (bytes.empty()) {
        return std::nullopt;
    }
    const OpInfo* info = op_info(bytes[0]);
    if (info == nullptr || bytes.size() < info->length) {
        return std::nullopt;
    }
    Insn insn;
    insn.op = info->op;
    insn.length = info->length;
    switch (info->operands) {
    case OperandKind::None:
        break;
    case OperandKind::Reg: {
        if (!is_valid_reg(bytes[1])) {
            return std::nullopt;
        }
        insn.r1 = static_cast<Reg>(bytes[1]);
        break;
    }
    case OperandKind::RegReg: {
        const std::uint8_t a = bytes[1] >> 4;
        const std::uint8_t b = bytes[1] & 0xf;
        if (!is_valid_reg(a) || !is_valid_reg(b)) {
            return std::nullopt;
        }
        insn.r1 = static_cast<Reg>(a);
        insn.r2 = static_cast<Reg>(b);
        break;
    }
    case OperandKind::RegImm32: {
        if (!is_valid_reg(bytes[1])) {
            return std::nullopt;
        }
        insn.r1 = static_cast<Reg>(bytes[1]);
        insn.imm = read_i32(bytes, 2);
        break;
    }
    case OperandKind::Imm32: {
        insn.imm = read_i32(bytes, 1);
        break;
    }
    case OperandKind::RegMem: {
        const std::uint8_t a = bytes[1] >> 4;
        const std::uint8_t b = bytes[1] & 0xf;
        if (!is_valid_reg(a) || !is_valid_reg(b)) {
            return std::nullopt;
        }
        insn.r1 = static_cast<Reg>(a);
        insn.r2 = static_cast<Reg>(b);
        insn.imm = read_i32(bytes, 2);
        break;
    }
    case OperandKind::RegImm8: {
        if (!is_valid_reg(bytes[1])) {
            return std::nullopt;
        }
        insn.r1 = static_cast<Reg>(bytes[1]);
        insn.imm = bytes[2];
        break;
    }
    case OperandKind::Rel32: {
        insn.imm = read_i32(bytes, 1);
        break;
    }
    case OperandKind::Imm8: {
        insn.imm = bytes[1];
        break;
    }
    }
    return insn;
}

std::string to_string(const Insn& insn, std::uint32_t addr) {
    const OpInfo* info = op_info(static_cast<std::uint8_t>(insn.op));
    SWSEC_ASSERT(info != nullptr, "decoded instruction must have op info");
    std::string out = info->mnemonic;
    auto mem = [&] {
        std::string m = "[" + reg_name(insn.r2);
        if (insn.imm >= 0) {
            m += "+" + std::to_string(insn.imm);
        } else {
            m += std::to_string(insn.imm);
        }
        return m + "]";
    };
    switch (info->operands) {
    case OperandKind::None:
        break;
    case OperandKind::Reg:
        out += " " + reg_name(insn.r1);
        break;
    case OperandKind::RegReg:
        out += " " + reg_name(insn.r1) + ", " + reg_name(insn.r2);
        break;
    case OperandKind::RegImm32:
        out += " " + reg_name(insn.r1) + ", " + std::to_string(insn.imm);
        break;
    case OperandKind::Imm32:
        out += " " + std::to_string(insn.imm);
        break;
    case OperandKind::RegMem:
        if (insn.op == Op::Store || insn.op == Op::Store8) {
            // STORE [base+disp], src : r1 is the base, r2 the source.
            out += " [" + reg_name(insn.r1) +
                   (insn.imm >= 0 ? "+" + std::to_string(insn.imm) : std::to_string(insn.imm)) +
                   "], " + reg_name(insn.r2);
        } else {
            out += " " + reg_name(insn.r1) + ", " + mem();
        }
        break;
    case OperandKind::RegImm8:
        out += " " + reg_name(insn.r1) + ", " + std::to_string(insn.imm);
        break;
    case OperandKind::Rel32: {
        const std::uint32_t target = addr + insn.length + static_cast<std::uint32_t>(insn.imm);
        out += " " + hex32(target);
        break;
    }
    case OperandKind::Imm8:
        out += " " + std::to_string(insn.imm);
        break;
    }
    return out;
}

} // namespace swsec::isa
