#include "vm/decode_cache.hpp"

#include <optional>
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

/// Tier-2 handler for a single (unfused) instruction; Slow for opcodes the
/// engine defers to the instrumented step() (Sys reaches the kernel, which
/// may attach observers or remap pages; capability ops need cap registers
/// and the capability_mode check).
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
    default: // CLoad / CStore / CJmp / CSetB
        return FastHandler::Slow;
    }
}

} // namespace

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
    // Reset only the index entries built at the dead generation, for the
    // same reason as the tier-2 slots below.
    for (const std::uint16_t off : e.built) {
        (*e.index)[off] = 0;
    }
    e.built.clear();
    e.insns.clear();
    if (e.fast) {
        // Unbuilt: fused entries die with their bytes.  Reset only the slots
        // actually built at the dead generation — a page whose own stores
        // keep bumping its generation (stack shellcode) invalidates per
        // store, and a full 64 KiB sweep each time would dominate the run.
        for (const std::uint16_t off : e.fast_built) {
            (*e.fast)[off] = FastOp{};
        }
        e.fast_built.clear();
    }
    e.generation = generation;
}

const isa::Insn* DecodeCache::lookup(const Memory& mem, std::uint32_t addr, Perm need) {
    const std::uint32_t off = addr & (kPageSize - 1);
    if (off > kPageSize - isa::kMaxInsnLength) {
        return nullptr; // may straddle into the next page: slow path
    }
    const PageView view = mem.page_view(addr);
    if (view.data == nullptr ||
        (static_cast<std::uint8_t>(view.perms) & static_cast<std::uint8_t>(need)) !=
            static_cast<std::uint8_t>(need)) {
        return nullptr; // unmapped / permission fault: slow path traps
    }
    const std::uint32_t page_index = addr >> kPageShift;
    PageEntry* e = (page_index == mru_index_) ? mru_ : entry_for(page_index);
    sync_generation(*e, view.generation);
    if (!e->index) {
        e->index = std::make_unique<std::array<std::uint16_t, kPageSize>>(); // zeroed: all unknown
    }
    std::uint16_t& slot = (*e->index)[off];
    if (slot == 0) {
        ++decodes_;
        // The guard above keeps [off, off + kMaxInsnLength) inside the page,
        // so the decode window never crosses a permission boundary.
        const auto insn =
            isa::decode(std::span<const std::uint8_t>(view.data + off, isa::kMaxInsnLength));
        if (insn) {
            e->insns.push_back(*insn);
            slot = static_cast<std::uint16_t>(e->insns.size());
        } else {
            slot = kSlowSlot;
        }
        e->built.push_back(static_cast<std::uint16_t>(off));
    }
    if (slot == kSlowSlot) {
        return nullptr;
    }
    ++hits_;
    return &e->insns[slot - 1];
}

DecodeCache::FastPageRef DecodeCache::fast_page(const Memory& mem, std::uint32_t addr,
                                                Perm need) {
    const PageView view = mem.page_view(addr);
    if (view.data == nullptr ||
        (static_cast<std::uint8_t>(view.perms) & static_cast<std::uint8_t>(need)) !=
            static_cast<std::uint8_t>(need)) {
        return {}; // unmapped / permission fault: tier 1 owns the trap
    }
    const std::uint32_t page_index = addr >> kPageShift;
    PageEntry* e = (page_index == mru_index_) ? mru_ : entry_for(page_index);
    sync_generation(*e, view.generation);
    if (!e->fast) {
        e->fast = std::make_unique<std::array<FastOp, kPageSize>>(); // zeroed: all Unbuilt
    }
    return FastPageRef{e->fast.get(), view.data, view.generation, addr & ~(kPageSize - 1),
                       &e->fast_built};
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
        return; // does not decode here: tier 1 reports InvalidInstruction
    }
    const isa::Insn& i1 = *head;
    fo.h = single_handler(i1.op);
    fo.nsteps = 1;
    fo.a = static_cast<std::uint8_t>(i1.r1);
    fo.b = static_cast<std::uint8_t>(i1.r2);
    fo.imm = i1.imm;
    fo.next = ref.base + off + i1.length;
    if (is_jcc(i1.op) || i1.op == Op::Jmp || i1.op == Op::Call) {
        fo.c = static_cast<std::uint8_t>(cond_of(i1.op));
        fo.imm2 = static_cast<std::int32_t>(fo.next + static_cast<std::uint32_t>(i1.imm));
    }

    // Superinstruction fusion: peek at the following instruction(s).  All
    // components must sit in the fast-decodable region of the *same* page;
    // each fused entry lives in the head's slot only, so a branch into a
    // component's own offset still dispatches that component individually.
    const auto decode_at = [&](std::uint32_t o) -> std::optional<isa::Insn> {
        if (o > kFastLimit) {
            return std::nullopt;
        }
        return isa::decode(std::span<const std::uint8_t>(ref.bytes + o, isa::kMaxInsnLength));
    };

    switch (i1.op) {
    case Op::Cmp:
    case Op::CmpI: {
        const std::uint32_t off2 = off + i1.length;
        const auto d2 = decode_at(off2);
        if (d2 && is_jcc(d2->op)) {
            fo.h = (i1.op == Op::Cmp) ? FastHandler::FusedCmpJcc : FastHandler::FusedCmpIJcc;
            fo.c = static_cast<std::uint8_t>(cond_of(d2->op));
            const std::uint32_t jnext = ref.base + off2 + d2->length;
            fo.imm2 = static_cast<std::int32_t>(jnext + static_cast<std::uint32_t>(d2->imm));
            fo.next = jnext;
            fo.nsteps = 2;
            ++fused_built_;
        }
        break;
    }
    case Op::Push: {
        const std::uint32_t off2 = off + i1.length;
        const auto d2 = decode_at(off2);
        if (d2 && d2->op == Op::Push) {
            const std::uint32_t off3 = off2 + d2->length;
            const auto d3 = decode_at(off3);
            if (d3 && d3->op == Op::Call) {
                fo.h = FastHandler::FusedPushPushCall;
                fo.b = static_cast<std::uint8_t>(d2->r1);
                // Component offsets (≤ kFastLimit, so 16 bits each) packed
                // into imm: the engine needs them for trap provenance and
                // for resuming after a mid-fusion page-generation bump.
                fo.imm = static_cast<std::int32_t>(off2 | (off3 << 16));
                const std::uint32_t cnext = ref.base + off3 + d3->length;
                fo.imm2 = static_cast<std::int32_t>(cnext + static_cast<std::uint32_t>(d3->imm));
                fo.next = cnext; // the call's return address
                fo.nsteps = 3;
                ++fused_built_;
            }
        } else if (d2 && d2->op == Op::Call) {
            // Single-argument call: push r; call rel (the dominant call
            // shape in compiled code — one stack argument).
            fo.h = FastHandler::FusedPushCall;
            fo.imm = static_cast<std::int32_t>(off2); // the call's offset
            const std::uint32_t cnext = ref.base + off2 + d2->length;
            fo.imm2 = static_cast<std::int32_t>(cnext + static_cast<std::uint32_t>(d2->imm));
            fo.next = cnext; // the call's return address
            fo.nsteps = 2;
            ++fused_built_;
        }
        break;
    }
    case Op::Load: {
        const std::uint32_t off2 = off + i1.length;
        const auto d2 = decode_at(off2);
        if (d2 && (d2->op == Op::Add || d2->op == Op::AddI)) {
            fo.h = (d2->op == Op::Add) ? FastHandler::FusedLoadAdd : FastHandler::FusedLoadAddI;
            fo.c = static_cast<std::uint8_t>(d2->r1);
            fo.d = static_cast<std::uint8_t>(d2->r2);
            fo.imm2 = d2->imm;
            fo.next = ref.base + off2 + d2->length;
            fo.nsteps = 2;
            ++fused_built_;
        } else if (d2 && d2->op == Op::Push) {
            // Load rd, [rb+d]; push rs — argument materialisation.
            fo.h = FastHandler::FusedLoadPush;
            fo.c = static_cast<std::uint8_t>(d2->r1);
            fo.imm2 = static_cast<std::int32_t>(ref.base + off2); // push's ip
            fo.next = ref.base + off2 + d2->length;
            fo.nsteps = 2;
            ++fused_built_;
        }
        break;
    }
    case Op::MovI: {
        // MovI rd, imm; pop re — the compiler's binary-operator shape
        // (lhs pushed, rhs immediate materialised, lhs popped back).
        const std::uint32_t off2 = off + i1.length;
        const auto d2 = decode_at(off2);
        if (d2 && d2->op == Op::Pop) {
            fo.h = FastHandler::FusedMovIPop;
            fo.c = static_cast<std::uint8_t>(d2->r1);
            fo.imm2 = static_cast<std::int32_t>(ref.base + off2); // pop's ip
            fo.next = ref.base + off2 + d2->length;
            fo.nsteps = 2;
            ++fused_built_;
        }
        break;
    }
    case Op::Leave: {
        // Leave; ret — the function epilogue.
        const std::uint32_t off2 = off + i1.length;
        const auto d2 = decode_at(off2);
        if (d2 && d2->op == Op::Ret) {
            fo.h = FastHandler::FusedLeaveRet;
            fo.imm = static_cast<std::int32_t>(off2); // the ret's offset
            fo.nsteps = 2;
            ++fused_built_;
        }
        break;
    }
    default:
        break;
    }
}

void DecodeCache::clear() noexcept {
    pages_.clear();
    mru_index_ = 0xffffffff;
    mru_ = nullptr;
}

} // namespace swsec::vm
