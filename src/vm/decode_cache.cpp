#include "vm/decode_cache.hpp"

#include <span>

namespace swsec::vm {

namespace {

using isa::Op;

/// Condition code of a conditional branch opcode; caller guarantees is_jcc.
FastCond cond_of(Op op) noexcept {
    switch (op) {
    case Op::Jz:
        return FastCond::Z;
    case Op::Jnz:
        return FastCond::Nz;
    case Op::Jl:
        return FastCond::L;
    case Op::Jge:
        return FastCond::Ge;
    case Op::Jg:
        return FastCond::G;
    case Op::Jle:
        return FastCond::Le;
    case Op::Jb:
        return FastCond::B;
    default:
        return FastCond::Ae;
    }
}

bool is_jcc(Op op) noexcept {
    switch (op) {
    case Op::Jz:
    case Op::Jnz:
    case Op::Jl:
    case Op::Jge:
    case Op::Jg:
    case Op::Jle:
    case Op::Jb:
    case Op::Jae:
        return true;
    default:
        return false;
    }
}

/// Handler for a single (unfused) instruction.
FastHandler single_handler(Op op) noexcept {
    switch (op) {
    case Op::Halt:
        return FastHandler::Halt;
    case Op::Nop:
        return FastHandler::Nop;
    case Op::Push:
        return FastHandler::Push;
    case Op::PushI:
        return FastHandler::PushI;
    case Op::Pop:
        return FastHandler::Pop;
    case Op::MovI:
        return FastHandler::MovI;
    case Op::MovR:
        return FastHandler::MovR;
    case Op::Load:
        return FastHandler::Load;
    case Op::Load8:
        return FastHandler::Load8;
    case Op::Store:
        return FastHandler::Store;
    case Op::Store8:
        return FastHandler::Store8;
    case Op::Lea:
        return FastHandler::Lea;
    case Op::Add:
        return FastHandler::Add;
    case Op::AddI:
        return FastHandler::AddI;
    case Op::Sub:
        return FastHandler::Sub;
    case Op::SubI:
        return FastHandler::SubI;
    case Op::Mul:
        return FastHandler::Mul;
    case Op::MulI:
        return FastHandler::MulI;
    case Op::Divs:
        return FastHandler::Divs;
    case Op::Rems:
        return FastHandler::Rems;
    case Op::And:
        return FastHandler::And;
    case Op::AndI:
        return FastHandler::AndI;
    case Op::Or:
        return FastHandler::Or;
    case Op::OrI:
        return FastHandler::OrI;
    case Op::Xor:
        return FastHandler::Xor;
    case Op::XorI:
        return FastHandler::XorI;
    case Op::ShlI:
        return FastHandler::ShlI;
    case Op::ShrI:
        return FastHandler::ShrI;
    case Op::SarI:
        return FastHandler::SarI;
    case Op::Shl:
        return FastHandler::Shl;
    case Op::Shr:
        return FastHandler::Shr;
    case Op::Sar:
        return FastHandler::Sar;
    case Op::Not:
        return FastHandler::Not;
    case Op::Neg:
        return FastHandler::Neg;
    case Op::Cmp:
        return FastHandler::Cmp;
    case Op::CmpI:
        return FastHandler::CmpI;
    case Op::Test:
        return FastHandler::Test;
    case Op::Jmp:
        return FastHandler::Jmp;
    case Op::Jz:
    case Op::Jnz:
    case Op::Jl:
    case Op::Jge:
    case Op::Jg:
    case Op::Jle:
    case Op::Jb:
    case Op::Jae:
        return FastHandler::Jcc;
    case Op::Call:
        return FastHandler::Call;
    case Op::CallR:
        return FastHandler::CallR;
    case Op::JmpR:
        return FastHandler::JmpR;
    case Op::Ret:
        return FastHandler::Ret;
    case Op::Leave:
        return FastHandler::Leave;
    case Op::Sys:
        return FastHandler::Sys;
    case Op::CLoad:
        return FastHandler::CLoad;
    case Op::CStore:
        return FastHandler::CStore;
    case Op::CJmp:
        return FastHandler::CJmp;
    case Op::CSetB:
        return FastHandler::CSetB;
    }
    return FastHandler::Slow;
}

/// The fused handler for `head` followed by `second`, or Unbuilt when the
/// pair does not fuse.  These are the four pairs compiled code runs
/// (DESIGN.md §13).
FastHandler fused_handler(Op head, Op second) noexcept {
    switch (head) {
    case Op::Cmp:
        return is_jcc(second) ? FastHandler::FusedCmpJcc : FastHandler::Unbuilt;
    case Op::CmpI:
        return is_jcc(second) ? FastHandler::FusedCmpIJcc : FastHandler::Unbuilt;
    case Op::Load: // load rd, [rb+d]; push rs — argument materialisation
        return second == Op::Push ? FastHandler::FusedLoadPush : FastHandler::Unbuilt;
    case Op::MovI: // movi rd, imm; pop re — a binary operator's immediate rhs
        return second == Op::Pop ? FastHandler::FusedMovIPop : FastHandler::Unbuilt;
    default:
        return FastHandler::Unbuilt;
    }
}

} // namespace

FastOp fast_op_from(const isa::Insn& insn, std::uint32_t addr) noexcept {
    FastOp fo;
    fo.h = single_handler(insn.op);
    fo.a = static_cast<std::uint8_t>(insn.r1);
    fo.b = static_cast<std::uint8_t>(insn.r2);
    fo.opcode = static_cast<std::uint8_t>(insn.op);
    fo.len = insn.length;
    fo.imm = insn.imm;
    fo.next = addr + insn.length;
    if (is_jcc(insn.op) || insn.op == Op::Jmp || insn.op == Op::Call) {
        fo.c = static_cast<std::uint8_t>(cond_of(insn.op));
        fo.imm2 = static_cast<std::int32_t>(fo.next + static_cast<std::uint32_t>(insn.imm));
    }
    return fo;
}

DecodeCache::PageEntry* DecodeCache::entry_for(std::uint32_t page_index) {
    mru_index_ = page_index;
    mru_ = &pages_[page_index];
    return mru_;
}

void DecodeCache::sync_generation(PageEntry& e, std::uint64_t generation) noexcept {
    if (e.generation == generation) {
        return;
    }
    if (e.generation != 0) {
        ++invalidations_;
    }
    if (e.ops) {
        // Unbuilt: fused entries die with their bytes.  Reset only the slots
        // actually built at the dead generation — a page whose own stores
        // keep bumping its generation (stack shellcode) invalidates per
        // store, and a full 80 KiB sweep each time would dominate the run.
        for (const std::uint16_t off : e.built) {
            (*e.ops)[off] = FastOp{};
        }
        e.built.clear();
    }
    e.generation = generation;
}

DecodeCache::FastPageRef DecodeCache::fast_page(const Memory& mem, std::uint32_t addr,
                                                Perm need) {
    const PageView view = mem.page_view(addr);
    if (view.data == nullptr ||
        (static_cast<std::uint8_t>(view.perms) & static_cast<std::uint8_t>(need)) !=
            static_cast<std::uint8_t>(need)) {
        return {}; // unmapped / permission fault: the slow fetch owns the trap
    }
    const std::uint32_t page_index = addr >> kPageShift;
    PageEntry* e = (page_index == mru_index_) ? mru_ : entry_for(page_index);
    sync_generation(*e, view.generation);
    if (!e->ops) {
        e->ops = std::make_unique<std::array<FastOp, kPageSize>>(); // zeroed: all Unbuilt
    }
    return FastPageRef{e->ops.get(), view.data, view.generation, addr & ~(kPageSize - 1),
                       &e->built};
}

void DecodeCache::build_fast(const FastPageRef& ref, std::uint32_t off) {
    constexpr std::uint32_t kFastLimit = kPageSize - isa::kMaxInsnLength;
    FastOp& fo = (*ref.ops)[off];
    fo = FastOp{};
    fo.h = FastHandler::Slow;
    ref.built->push_back(static_cast<std::uint16_t>(off));
    if (off > kFastLimit) {
        return; // page tail: the instruction may straddle into the next page
    }
    ++decodes_;
    const auto head =
        isa::decode(std::span<const std::uint8_t>(ref.bytes + off, isa::kMaxInsnLength));
    if (!head) {
        return; // does not decode here: Machine::fetch reports InvalidInstruction
    }
    const isa::Insn& i1 = *head;
    fo = fast_op_from(i1, ref.base + off);

    // Superinstruction fusion: peek at the following instruction.  Both
    // components must sit in the fast-decodable region of the *same* page;
    // the fused entry lives in the head's slot only, so a branch to the
    // second component's own offset still dispatches it individually.  The
    // second's opcode byte picks the family, and it is decoded only then.
    const std::uint32_t off2 = off + i1.length;
    if (off2 > kFastLimit) {
        return;
    }
    const FastHandler fused = fused_handler(i1.op, static_cast<Op>(ref.bytes[off2]));
    if (fused == FastHandler::Unbuilt) {
        return;
    }
    const auto i2 =
        isa::decode(std::span<const std::uint8_t>(ref.bytes + off2, isa::kMaxInsnLength));
    if (!i2) {
        return; // bad operand bytes: the second executes (and traps) alone
    }
    fo.h = fused;
    fo.next = ref.base + off2 + i2->length;
    if (is_jcc(i2->op)) {
        fo.c = static_cast<std::uint8_t>(cond_of(i2->op));
        fo.imm2 = static_cast<std::int32_t>(fo.next + static_cast<std::uint32_t>(i2->imm));
    } else {
        fo.c = static_cast<std::uint8_t>(i2->r1); // the push's source, the pop's destination
    }
    ++fused_built_;
}

} // namespace swsec::vm
