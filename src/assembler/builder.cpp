#include "assembler/builder.hpp"

#include "assembler/assembler.hpp"
#include "common/error.hpp"

namespace swsec::assembler {

using objfmt::RelocKind;
using objfmt::SectionKind;
using Kind = AsmStmt::Kind;

namespace {

std::string_view view(std::string_view strtab, StrRef r) { return strtab.substr(r.off, r.len); }

} // namespace

ObjectBuilder::ObjectBuilder(const std::string& unit_name) {
    obj_.name = unit_name;
    obj_.source_file = unit_name;
}

std::uint32_t ObjectBuilder::here() const noexcept {
    return section_ == SectionKind::Text ? text_.size() : static_cast<std::uint32_t>(data_.size());
}

void ObjectBuilder::emit(std::span<const std::uint8_t> bytes) {
    if (section_ == SectionKind::Text) {
        text_.raw(bytes);
    } else {
        data_.insert(data_.end(), bytes.begin(), bytes.end());
    }
}

void ObjectBuilder::add(const AsmStmt& s, std::string_view strtab) {
    const int line = static_cast<int>(s.line);
    switch (s.kind) {
    case Kind::Insn:
        insn(s, strtab);
        break;
    case Kind::Label: {
        const std::string_view name = view(strtab, s.str);
        if (!labels_.try_emplace(std::string(name), Label{section_, here()}).second) {
            throw ParseError("duplicate label '" + std::string(name) + "'", line);
        }
        break;
    }
    case Kind::Text:
        section_ = SectionKind::Text;
        break;
    case Kind::Data:
        section_ = SectionKind::Data;
        break;
    case Kind::Global:
        globals_.emplace_back(view(strtab, s.str));
        break;
    case Kind::Func:
        funcs_.emplace_back(view(strtab, s.str));
        break;
    case Kind::Entry:
        entries_.emplace_back(view(strtab, s.str));
        break;
    case Kind::Line:
        if (s.value <= 0) {
            throw ParseError("bad .line operand", line);
        }
        cur_line_ = static_cast<std::uint32_t>(s.value);
        break;
    case Kind::File:
        obj_.source_file.assign(view(strtab, s.str));
        break;
    case Kind::Word:
        word(s.ops[0], strtab);
        break;
    case Kind::Byte: {
        const std::uint8_t b[] = {static_cast<std::uint8_t>(s.value & 0xff)};
        emit(b);
        break;
    }
    case Kind::Ascii:
    case Kind::Asciz: {
        const std::string_view b = view(strtab, s.str);
        emit({reinterpret_cast<const std::uint8_t*>(b.data()), b.size()});
        if (s.kind == Kind::Asciz) {
            const std::uint8_t nul[] = {0};
            emit(nul);
        }
        break;
    }
    case Kind::Space:
        if (s.value < 0) {
            throw ParseError("bad .space operand", line);
        }
        zeros(s.value, line);
        break;
    case Kind::Redzone: {
        // Sanitizer redzone: reserve zero-filled data bytes and record the
        // range so the loader can poison it in shadow memory.
        if (s.value <= 0) {
            throw ParseError("bad .redzone operand", line);
        }
        if (section_ != SectionKind::Data) {
            throw ParseError(".redzone is only valid in the data section", line);
        }
        const std::uint32_t at = here();
        zeros(s.value, line);
        obj_.redzones.push_back({at, static_cast<std::uint32_t>(s.value)});
        break;
    }
    case Kind::Align: {
        if (s.value <= 0) {
            throw ParseError("bad .align operand", line);
        }
        if (s.value > kMaxAlign) {
            throw ParseError(".align operand exceeds " + std::to_string(kMaxAlign), line);
        }
        const auto n = static_cast<std::uint32_t>(s.value);
        const std::uint8_t pad[] = {section_ == SectionKind::Text ? std::uint8_t{0x90}
                                                                  : std::uint8_t{0x00}}; // NOP-pad text
        while (here() % n != 0) {
            emit(pad);
        }
        break;
    }
    case Kind::Bss:
        if (s.value < 0) {
            throw ParseError("bad .bss operand", line);
        }
        if (obj_.bss_size + s.value > kMaxSectionBytes) {
            throw ParseError("bss would exceed " + std::to_string(kMaxSectionBytes) + " bytes",
                             line);
        }
        obj_.bss_size += static_cast<std::uint32_t>(s.value);
        break;
    case Kind::Comment:
    case Kind::Blank:
        break;
    }
}

/// `n` zero bytes, refused when they would grow the section past the cap.
void ObjectBuilder::zeros(std::int64_t n, int line) {
    if (here() + n > kMaxSectionBytes) {
        throw ParseError("section would exceed " + std::to_string(kMaxSectionBytes) + " bytes",
                         line);
    }
    emit(std::vector<std::uint8_t>(static_cast<std::size_t>(n)));
}

void ObjectBuilder::reloc(std::uint32_t offset, const AsmOperand& sym, std::string_view strtab,
                          RelocKind kind) {
    obj_.relocs.push_back(
        objfmt::Reloc{section_, offset, std::string(view(strtab, sym.sym)), kind, sym.value});
}

void ObjectBuilder::word(const AsmOperand& o, std::string_view strtab) {
    SWSEC_ASSERT(o.kind == AsmOperand::Kind::Imm || o.kind == AsmOperand::Kind::Sym,
                 ".word takes a number or a symbol");
    std::uint32_t v = static_cast<std::uint32_t>(o.value);
    if (o.kind == AsmOperand::Kind::Sym) {
        reloc(here(), o, strtab, RelocKind::Abs32);
        v = 0;
    }
    const std::uint8_t le[] = {static_cast<std::uint8_t>(v & 0xff),
                               static_cast<std::uint8_t>((v >> 8) & 0xff),
                               static_cast<std::uint8_t>((v >> 16) & 0xff),
                               static_cast<std::uint8_t>((v >> 24) & 0xff)};
    emit(le);
}

// Registers are taken from the operands in order (a memory operand gives its
// base), the immediate from the one number, displacement or symbol; the
// ISA's encoder lays them out by the opcode's operand kind.  A symbol
// leaves zeros in the immediate field (found through the decoder table's
// row) and a relocation: Rel32 for branch fields, else Abs32.
void ObjectBuilder::insn(const AsmStmt& s, std::string_view strtab) {
    const int line = static_cast<int>(s.line);
    if (section_ != SectionKind::Text) {
        throw ParseError("instruction outside .text", line);
    }
    // Line table: MiniC line if a `.line` is active, else the assembly
    // source line — so every instruction symbolizes to function:line.
    const std::uint32_t src_line = cur_line_ != 0 ? cur_line_ : s.line;
    if (obj_.lines.empty() || obj_.lines.back().line != src_line) {
        obj_.lines.push_back(objfmt::LineEntry{text_.size(), src_line});
    }

    const auto opcode = static_cast<std::uint8_t>(s.op);
    const isa::OpInfo* info = isa::op_info(opcode);
    SWSEC_ASSERT(info != nullptr && s.nops <= 2, "instruction list: not an instruction");
    const isa::detail::DecodeRow row = isa::detail::kDecodeTable[opcode];
    isa::Reg regs[2] = {isa::Reg::R0, isa::Reg::R0};
    std::size_t nregs = 0;
    std::int32_t imm = 0;
    const AsmOperand* sym = nullptr;
    bool has_imm = false;
    for (std::size_t i = 0; i < s.nops; ++i) {
        const AsmOperand& o = s.ops[i];
        if (o.kind == AsmOperand::Kind::Reg || o.kind == AsmOperand::Kind::Mem) {
            SWSEC_ASSERT(nregs < 2, "instruction list: too many registers");
            regs[nregs++] = o.reg;
        }
        if (o.kind != AsmOperand::Kind::Reg) {
            has_imm = true;
            imm = o.kind == AsmOperand::Kind::Sym ? 0 : o.value;
            sym = o.kind == AsmOperand::Kind::Sym ? &o : nullptr;
        }
    }
    SWSEC_ASSERT(nregs == row.regs && has_imm == (row.imm_size != 0) &&
                     (sym == nullptr || row.imm_size == 4),
                 "instruction list: operands do not fit the opcode");

    const auto imm8 = static_cast<std::uint8_t>(imm & 0xff);
    std::uint32_t at = 0;
    switch (info->operands) {
    case isa::OperandKind::None:
        at = text_.none(s.op);
        break;
    case isa::OperandKind::Reg:
        at = text_.reg(s.op, regs[0]);
        break;
    case isa::OperandKind::RegReg:
        at = text_.reg_reg(s.op, regs[0], regs[1]);
        break;
    case isa::OperandKind::RegImm32:
        at = text_.reg_imm32(s.op, regs[0], imm);
        break;
    case isa::OperandKind::Imm32:
        at = text_.imm32(s.op, imm);
        break;
    case isa::OperandKind::RegMem:
        at = text_.reg_mem(s.op, regs[0], regs[1], imm);
        break;
    case isa::OperandKind::RegImm8:
        at = text_.reg_imm8(s.op, regs[0], imm8);
        break;
    case isa::OperandKind::Rel32:
        at = text_.rel32(s.op, imm);
        break;
    case isa::OperandKind::Imm8:
        at = text_.imm8(s.op, imm8);
        break;
    }
    if (sym != nullptr) {
        const bool branch = info->operands == isa::OperandKind::Rel32;
        reloc(at + row.imm_at, *sym, strtab, branch ? RelocKind::Rel32 : RelocKind::Abs32);
    }
}

objfmt::ObjectFile ObjectBuilder::finish() {
    // Validate that .global/.func/.entry names exist, and flag them.
    auto mark = [&](const std::vector<std::string>& names, const char* what, auto flag) {
        for (const auto& n : names) {
            const auto it = labels_.find(n);
            if (it == labels_.end()) {
                throw Error(std::string(what) + " of undefined symbol '" + n + "' in unit " +
                            obj_.name);
            }
            flag(it->second);
        }
    };
    mark(globals_, ".global", [](Label& l) { l.is_global = true; });
    mark(funcs_, ".func", [](Label& l) { l.is_func = true; });
    mark(entries_, ".entry", [](Label& l) { l.is_entry = l.is_func = true; });
    obj_.text = text_.take();
    obj_.data = std::move(data_);
    obj_.symbols.reserve(labels_.size());
    for (const auto& [name, l] : labels_) {
        obj_.symbols.push_back(
            objfmt::Symbol{name, l.section, l.offset, l.is_global, l.is_func, l.is_entry});
    }
    return std::move(obj_);
}

objfmt::ObjectFile build_object(const AsmList& list, const std::string& unit_name) {
    ObjectBuilder b(unit_name);
    for (const AsmStmt& s : list.stmts) {
        b.add(s, list.strtab);
    }
    return b.finish();
}

} // namespace swsec::assembler
