#include "isa/isa.hpp"

#include "common/error.hpp"
#include "common/hexdump.hpp"

namespace swsec::isa {

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
