#include "attacks/gadgets.hpp"

#include <unordered_set>

#include "common/hexdump.hpp"

namespace swsec::attacks {

using isa::Insn;
using isa::Op;

std::string Gadget::to_string() const {
    std::string out = hex32(addr) + ": ";
    std::uint32_t a = addr;
    for (const auto& insn : insns) {
        out += isa::to_string(insn, a) + "; ";
        a += insn.length;
    }
    out += "ret";
    out += intended ? "" : "  [unintended]";
    return out;
}

GadgetScanner::GadgetScanner(std::span<const std::uint8_t> text, std::uint32_t base,
                             int max_insns) {
    // Mark intended instruction boundaries with a linear sweep from offset 0.
    std::unordered_set<std::size_t> intended;
    for (std::size_t off = 0; off < text.size();) {
        intended.insert(off);
        const auto insn = isa::decode(text.subspan(off));
        off += insn ? insn->length : 1;
    }
    // Try to decode a gadget at every byte offset.
    for (std::size_t start = 0; start < text.size(); ++start) {
        std::vector<Insn> seq;
        std::size_t off = start;
        bool ends_in_ret = false;
        for (int k = 0; k <= max_insns; ++k) {
            if (off >= text.size()) {
                break;
            }
            const auto insn = isa::decode(text.subspan(off));
            if (!insn) {
                break;
            }
            if (insn->op == Op::Ret) {
                ends_in_ret = true;
                break;
            }
            // Control flow other than RET ends the gadget unusably.
            switch (insn->op) {
            case Op::Jmp:
            case Op::Jz:
            case Op::Jnz:
            case Op::Jl:
            case Op::Jge:
            case Op::Jg:
            case Op::Jle:
            case Op::Jb:
            case Op::Jae:
            case Op::Call:
            case Op::CallR:
            case Op::JmpR:
            case Op::Halt:
                k = max_insns + 1; // force break
                break;
            default:
                seq.push_back(*insn);
                off += insn->length;
                continue;
            }
            break;
        }
        if (ends_in_ret) {
            Gadget g;
            g.addr = base + static_cast<std::uint32_t>(start);
            g.insns = std::move(seq);
            g.intended = intended.contains(start);
            gadgets_.push_back(std::move(g));
        }
    }
}

std::optional<std::uint32_t> GadgetScanner::find_pop_ret(isa::Reg r) const {
    for (const auto& g : gadgets_) {
        if (g.insns.size() == 1 && g.insns[0].op == Op::Pop && g.insns[0].r1 == r) {
            return g.addr;
        }
    }
    return std::nullopt;
}

std::optional<std::uint32_t> GadgetScanner::find_sys_ret(std::uint8_t sysno) const {
    for (const auto& g : gadgets_) {
        if (g.insns.size() == 1 && g.insns[0].op == Op::Sys &&
            static_cast<std::uint8_t>(g.insns[0].imm) == sysno) {
            return g.addr;
        }
    }
    return std::nullopt;
}

std::optional<std::uint32_t> GadgetScanner::find_ret() const {
    for (const auto& g : gadgets_) {
        if (g.insns.empty()) {
            return g.addr;
        }
    }
    return std::nullopt;
}

std::size_t GadgetScanner::unintended_count() const noexcept {
    std::size_t n = 0;
    for (const auto& g : gadgets_) {
        if (!g.intended) {
            ++n;
        }
    }
    return n;
}

} // namespace swsec::attacks
