// The execution engine.  See engine_fast.hpp for the contract; the handler
// bodies below are the only definition of each opcode's architectural
// effect, and Machine::fetch is the only definition of fetch traps.
//
// Structure: one dispatch loop over FastOps, instantiated three times under
// a compile-time observe policy (Policy).  Loop-head invariants, checked
// before *every* dispatch:
//
//   1. the executing page's live generation still matches the stream's
//      (any write/protect to the page — including by the program itself —
//      is seen before the next, possibly stale, op can dispatch);
//   2. the step budget has room (run() owns the OutOfGas trap);
//   3. the ip points into the fast-decodable region of the current page
//      (page switches re-resolve; page tails take the slow fetch).
//
// The two tier-2 loops (unobserved and traced) exit to Machine::run()
// where the observed one must take over (invariant 1 broken, slow fetch,
// Sys, capability op, a fused group that no longer fits the budget).  The
// traced loop differs from the unobserved one only by its tracer calls,
// each under `if constexpr (kTraced)`, so an untraced run executes no
// tracer code at all.  The observed loop handles all of
// those in place: it probes the fault injector, checks the PMA rules,
// reports retirements and traps to the tracer and profiler, re-resolves
// the page after a generation bump and fetches through Machine::fetch when
// the slot cannot serve.  It retires the head of a fused slot alone, and
// returns after every syscall so run() re-evaluates which loop may run.
//
// A fused superinstruction retires two architectural instructions in one
// tier-2 dispatch.  It is only entered when the remaining budget covers
// both (otherwise the observed step retires the head instruction alone).
// No fused group stores before its last component, so the page check every
// store-class handler already resumes at (store_check) covers it too.
#include "vm/engine_fast.hpp"

#include "profile/profiler.hpp"
#include "vm/machine.hpp"

#include <iterator>
#include <limits>

// Computed-goto threaded dispatch is a GNU extension; elsewhere fall back
// to a dense switch over the same handler bodies.
#if defined(__GNUC__) || defined(__clang__)
#define SWSEC_THREADED_DISPATCH 1
#else
#define SWSEC_THREADED_DISPATCH 0
#endif

namespace swsec::vm {

namespace {

/// The jcc opcode of a FastCond, in enumerator order: the second component
/// of a fused cmp+jcc, which the traced loop names in its insn event.
constexpr std::uint8_t kJccOpcode[] = {
    static_cast<std::uint8_t>(isa::Op::Jz),  static_cast<std::uint8_t>(isa::Op::Jnz),
    static_cast<std::uint8_t>(isa::Op::Jl),  static_cast<std::uint8_t>(isa::Op::Jge),
    static_cast<std::uint8_t>(isa::Op::Jg),  static_cast<std::uint8_t>(isa::Op::Jle),
    static_cast<std::uint8_t>(isa::Op::Jb),  static_cast<std::uint8_t>(isa::Op::Jae),
};
static_assert(std::size(kJccOpcode) == static_cast<std::size_t>(FastCond::Ae) + 1);

bool cond_holds(std::uint8_t c, bool fz, bool flt, bool fb) noexcept {
    switch (static_cast<FastCond>(c)) {
    case FastCond::Z:
        return fz;
    case FastCond::Nz:
        return !fz;
    case FastCond::L:
        return flt;
    case FastCond::Ge:
        return !flt;
    case FastCond::G:
        return !flt && !fz;
    case FastCond::Le:
        return flt || fz;
    case FastCond::B:
        return fb;
    case FastCond::Ae:
        return !fb;
    }
    return false;
}

} // namespace

template <Policy kPolicy>
FastExit FastEngine::run(Machine& m, std::uint64_t end) {
    constexpr bool kObserved = kPolicy == Policy::Observed;
    constexpr bool kTraced = kPolicy == Policy::Traced;
    DispatchStats& stats = m.dispatch_;
    Memory& mem = m.mem_;
    DecodeCache& dc = m.dcache_;
    const Perm fetch_need = m.opts_.enforce_nx ? (Perm::R | Perm::X) : Perm::R;
    const bool memcheck = m.opts_.memcheck;
    const bool sstack = m.opts_.hardware_shadow_stack;
    const bool cfi = m.opts_.coarse_cfi;
    // What only the observed loop consults (and the traced one, for the
    // tracer).  Every use sits under `if constexpr (kObserved)` or
    // `if constexpr (kTraced)`, so none reaches the unobserved loop.
    [[maybe_unused]] trace::Tracer* const tracer = m.tracer_;
    [[maybe_unused]] const std::int32_t module = m.current_module_; // fixed on tier 2
    [[maybe_unused]] profile::Profiler* const profiler = m.profiler_;
    [[maybe_unused]] fault::FaultInjector* const faults = m.faults_;
    [[maybe_unused]] const bool pma = !m.modules_.empty();
    [[maybe_unused]] const bool pure_cap = m.opts_.pure_capability;
    [[maybe_unused]] const bool cached = m.opts_.decode_cache;

    // Machine state cached in locals for the hot loop; every exit path
    // flushes through SWSEC_FLUSH.
    std::uint32_t* const regs = m.regs_.data();
    std::uint32_t ip = m.ip_;
    std::uint64_t steps = m.steps_;
    const std::uint64_t steps0 = steps;
    bool fz = m.flags_.z;
    bool flt = m.flags_.lt;
    bool fb = m.flags_.b;

    DecodeCache::FastPageRef ref;
    const Memory::Page* code_page = nullptr;
    if constexpr (!kObserved) {
        ++stats.tier2_entries;
        ref = dc.fast_page(mem, ip, fetch_need);
        if (ref.ops == nullptr) {
            // Unmapped / non-executable code page: the slow fetch owns the trap.
            ++stats.deopt_slow_fetch;
            return FastExit::NeedSlowStep;
        }
        code_page = mem.page_at(ip);
    }

    // Two-entry direct-mapped micro-TLB for data pages.  Negative entries
    // are safe to cache: nothing maps/unmaps/reprotects pages while a loop
    // runs (only syscalls and the host can, and a syscall ends the loop).
    // An entry also caches the page's byte pointers, so an access does not
    // wait on a load through the Page: `data` for loads (the shared zero
    // page until the page's first write) and `owned` for stores (null until
    // then).  Only this engine's own stores and the fault injector's bit
    // flips can move a page off the zero page while it runs: the in-page
    // store path refreshes its entry, and the straddling path (which writes
    // through Memory) and an injected fault flush the TLB.
    struct TlbEntry {
        std::uint32_t index = 0xffffffff; // page indices use at most 20 bits
        Memory::Page* page = nullptr;
        const std::uint8_t* data = nullptr;
        std::uint8_t* owned = nullptr;
    };
    TlbEntry tlb[2];
    const auto data_page = [&](std::uint32_t addr) noexcept -> TlbEntry& {
        const std::uint32_t idx = addr >> kPageShift;
        TlbEntry& t = tlb[idx & 1];
        if (t.index != idx) {
            Memory::Page* p = mem.page_at(addr);
            t = TlbEntry{idx, p, p != nullptr ? p->data : nullptr,
                         p != nullptr ? p->owned.get() : nullptr};
        }
        return t;
    };
    // The page's own storage for an in-page store (materialised on first use).
    const auto store_bytes = [&](TlbEntry& t) -> std::uint8_t* {
        if (t.owned == nullptr) [[unlikely]] {
            t.owned = mem.writable(*t.page);
            t.data = t.owned;
        }
        return t.owned;
    };

    // Checked data access: fault priority unmapped > permission > poison,
    // little-endian words, generation touch on every write.  Accesses that
    // straddle a page boundary take Memory's slow path.  (The PMA rules,
    // which rank above all three, are checked by SWSEC_ACCESS.)
    const auto load_word = [&](std::uint32_t addr, std::uint32_t& out) noexcept -> AccessFault {
        const std::uint32_t off = addr & (kPageSize - 1);
        if (off <= kPageSize - 4) [[likely]] {
            const TlbEntry& t = data_page(addr);
            const Memory::Page* p = t.page;
            if (p == nullptr) {
                return AccessFault::Unmapped;
            }
            if (!has_perm(p->perms, Perm::R)) {
                return AccessFault::Permission;
            }
            if (memcheck && p->poison &&
                (p->poison->test(off) || p->poison->test(off + 1) || p->poison->test(off + 2) ||
                 p->poison->test(off + 3))) {
                return AccessFault::Poisoned;
            }
            const std::uint8_t* d = t.data + off;
            out = static_cast<std::uint32_t>(d[0]) | (static_cast<std::uint32_t>(d[1]) << 8) |
                  (static_cast<std::uint32_t>(d[2]) << 16) |
                  (static_cast<std::uint32_t>(d[3]) << 24);
            return AccessFault::None;
        }
        const AccessFault f = mem.check(addr, 4, Perm::R, memcheck);
        if (f != AccessFault::None) {
            return f;
        }
        out = mem.read32(addr);
        return AccessFault::None;
    };
    // Stores are not noexcept: a page's first write allocates its storage
    // (Memory::writable), and an allocation failure stays an exception.
    const auto store_word = [&](std::uint32_t addr, std::uint32_t v) -> AccessFault {
        const std::uint32_t off = addr & (kPageSize - 1);
        if (off <= kPageSize - 4) [[likely]] {
            TlbEntry& t = data_page(addr);
            Memory::Page* p = t.page;
            if (p == nullptr) {
                return AccessFault::Unmapped;
            }
            if (!has_perm(p->perms, Perm::W)) {
                return AccessFault::Permission;
            }
            if (memcheck && p->poison &&
                (p->poison->test(off) || p->poison->test(off + 1) || p->poison->test(off + 2) ||
                 p->poison->test(off + 3))) {
                return AccessFault::Poisoned;
            }
            std::uint8_t* d = store_bytes(t) + off;
            d[0] = static_cast<std::uint8_t>(v & 0xff);
            d[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
            d[2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
            d[3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
            mem.touch(*p);
            return AccessFault::None;
        }
        const AccessFault f = mem.check(addr, 4, Perm::W, memcheck);
        if (f != AccessFault::None) {
            return f;
        }
        mem.write32(addr, v);
        tlb[0] = tlb[1] = TlbEntry{}; // the write may have materialised either page
        return AccessFault::None;
    };
    const auto load_byte = [&](std::uint32_t addr, std::uint8_t& out) noexcept -> AccessFault {
        const std::uint32_t off = addr & (kPageSize - 1);
        const TlbEntry& t = data_page(addr);
        const Memory::Page* p = t.page;
        if (p == nullptr) {
            return AccessFault::Unmapped;
        }
        if (!has_perm(p->perms, Perm::R)) {
            return AccessFault::Permission;
        }
        if (memcheck && p->poison && p->poison->test(off)) {
            return AccessFault::Poisoned;
        }
        out = t.data[off];
        return AccessFault::None;
    };
    const auto store_byte = [&](std::uint32_t addr, std::uint8_t v) -> AccessFault {
        const std::uint32_t off = addr & (kPageSize - 1);
        TlbEntry& t = data_page(addr);
        Memory::Page* p = t.page;
        if (p == nullptr) {
            return AccessFault::Unmapped;
        }
        if (!has_perm(p->perms, Perm::W)) {
            return AccessFault::Permission;
        }
        if (memcheck && p->poison && p->poison->test(off)) {
            return AccessFault::Poisoned;
        }
        store_bytes(t)[off] = v;
        mem.touch(*p);
        return AccessFault::None;
    };

// Write locals back to the machine.  The tier-2 loops also credit their
// counters (every instruction they retire was served by a built slot, a
// decode-cache hit, which the traced loop reports to the tracer in one
// batch), so they flush exactly once per exit; the observed loop flushes
// before every call that reads machine state.
#define SWSEC_FLUSH()                                                                              \
    do {                                                                                           \
        m.ip_ = ip;                                                                                \
        m.steps_ = steps;                                                                          \
        m.flags_.z = fz;                                                                           \
        m.flags_.lt = flt;                                                                         \
        m.flags_.b = fb;                                                                           \
        if constexpr (!kObserved) {                                                                \
            stats.fast_steps += steps - steps0;                                                    \
            dc.hits_ += steps - steps0;                                                            \
            if constexpr (kTraced) {                                                               \
                tracer->count_dcache_hits(steps - steps0);                                         \
            }                                                                                      \
        }                                                                                          \
    } while (0)

// Trap with the provenance of the faulting instruction.  `retire` counts
// the trapping instruction too (it consumes its step), the trap event
// carries the step it was raised in, and `trap_ip` is the address of the
// faulting instruction (for fused ops: the faulting component).
#define SWSEC_TRAP_EXIT(retire, trap_ip, ...)                                                      \
    do {                                                                                           \
        steps += (retire);                                                                         \
        ip = (trap_ip);                                                                            \
        SWSEC_FLUSH();                                                                             \
        m.steps_ = steps - 1;                                                                      \
        m.set_trap(__VA_ARGS__);                                                                   \
        m.steps_ = steps;                                                                          \
        if constexpr (!kObserved) {                                                                \
            ++stats.deopt_trap;                                                                    \
        }                                                                                          \
        return FastExit::Trapped;                                                                  \
    } while (0)

// One checked data access through `access` (load_word, store_word, ...):
// PMA rules first (observed loop only: tier 2 never runs with protected
// modules), then the page fault priority.
#define SWSEC_ACCESS(access, write, addr_expr, v, retire, at_ip)                                   \
    do {                                                                                           \
        const std::uint32_t a_ = (addr_expr);                                                      \
        if constexpr (kObserved) {                                                                 \
            if (pma && !m.pma_allows_data(a_, write)) [[unlikely]] {                               \
                SWSEC_TRAP_EXIT(retire, at_ip, TrapKind::PmaViolation, a_,                         \
                                (write) ? "write of protected module memory"                       \
                                        : "read of protected module memory");                      \
            }                                                                                      \
        }                                                                                          \
        const AccessFault f_ = access(a_, v);                                                      \
        if (f_ != AccessFault::None) [[unlikely]] {                                                \
            if (f_ == AccessFault::Poisoned) {                                                     \
                SWSEC_TRAP_EXIT(retire, at_ip, TrapKind::PoisonedAccess, a_,                       \
                                (write) ? "write of poisoned memory" : "read of poisoned memory"); \
            }                                                                                      \
            SWSEC_TRAP_EXIT(retire, at_ip, (write) ? TrapKind::SegvWrite : TrapKind::SegvRead,     \
                            a_);                                                                   \
        }                                                                                          \
    } while (0)
#define SWSEC_LOAD32(addr, out, retire, at_ip) SWSEC_ACCESS(load_word, false, addr, out, retire, at_ip)
#define SWSEC_STORE32(addr, v, retire, at_ip) SWSEC_ACCESS(store_word, true, addr, v, retire, at_ip)
#define SWSEC_LOAD8(addr, out, retire, at_ip) SWSEC_ACCESS(load_byte, false, addr, out, retire, at_ip)
#define SWSEC_STORE8(addr, v, retire, at_ip) SWSEC_ACCESS(store_byte, true, addr, v, retire, at_ip)

#define SWSEC_IMM_U static_cast<std::uint32_t>(op->imm)

// --- Component effects.  Single and fused handlers are both written in
// these, so each opcode's effect is defined once.

#define SWSEC_CMP(x_expr, y_expr)                                                                  \
    do {                                                                                           \
        const std::uint32_t x_ = (x_expr);                                                         \
        const std::uint32_t y_ = (y_expr);                                                         \
        fz = (x_ == y_);                                                                           \
        flt = (static_cast<std::int32_t>(x_) < static_cast<std::int32_t>(y_));                     \
        fb = (x_ < y_);                                                                            \
    } while (0)

#define SWSEC_LOAD(dst, addr_expr, retire, at_ip)                                                  \
    do {                                                                                           \
        std::uint32_t v_ = 0;                                                                      \
        SWSEC_LOAD32(addr_expr, v_, retire, at_ip);                                                \
        (dst) = v_;                                                                                \
    } while (0)

// The value is read before sp moves: `push sp` stores the old sp.
#define SWSEC_PUSH(v_expr, retire, at_ip)                                                          \
    do {                                                                                           \
        const std::uint32_t nsp_ = regs[8] - 4;                                                    \
        SWSEC_STORE32(nsp_, v_expr, retire, at_ip);                                                \
        regs[8] = nsp_;                                                                            \
    } while (0)

// sp moves before the destination is written: `pop sp` loads the value.
#define SWSEC_POP(dst, retire, at_ip)                                                              \
    do {                                                                                           \
        std::uint32_t p_ = 0;                                                                      \
        SWSEC_LOAD32(regs[8], p_, retire, at_ip);                                                  \
        regs[8] += 4;                                                                              \
        (dst) = p_;                                                                                \
    } while (0)

// sp = bp happens even if the pop then faults.
#define SWSEC_LEAVE()                                                                              \
    do {                                                                                           \
        regs[8] = regs[9];                                                                         \
        SWSEC_POP(regs[9], 1, ip);                                                                 \
    } while (0)

#define SWSEC_CALL(target, ret_addr)                                                               \
    do {                                                                                           \
        SWSEC_PUSH(ret_addr, 1, ip);                                                               \
        if (sstack) {                                                                              \
            m.shadow_stack_.push_back(ret_addr);                                                   \
        }                                                                                          \
        if constexpr (kObserved) {                                                                 \
            if (profiler != nullptr) {                                                             \
                profiler->on_call(target);                                                         \
            }                                                                                      \
        }                                                                                          \
    } while (0)

// The pop completes before the shadow-stack verdict.
#define SWSEC_RET(target)                                                                          \
    do {                                                                                           \
        SWSEC_POP(target, 1, ip);                                                                  \
        if (sstack) {                                                                              \
            if (m.shadow_stack_.empty() || m.shadow_stack_.back() != (target)) [[unlikely]] {      \
                SWSEC_TRAP_EXIT(1, ip, TrapKind::ShadowStackViolation, target,                     \
                                "return address does not match shadow stack");                     \
            }                                                                                      \
            m.shadow_stack_.pop_back();                                                            \
        }                                                                                          \
        if constexpr (kObserved) {                                                                 \
            if (profiler != nullptr) {                                                             \
                profiler->on_ret();                                                                \
            }                                                                                      \
        }                                                                                          \
    } while (0)

#define SWSEC_CHECK_INDIRECT(target)                                                               \
    do {                                                                                           \
        if (cfi && !m.cfi_targets_.contains(target)) [[unlikely]] {                                \
            SWSEC_TRAP_EXIT(1, ip, TrapKind::CfiViolation, target,                                 \
                            "indirect branch to non-approved target");                             \
        }                                                                                          \
    } while (0)

// Pure-capability mode: a plain memory operation would let code fabricate
// pointers from integers.
#define SWSEC_PLAIN_MEMORY_OP()                                                                    \
    do {                                                                                           \
        if constexpr (kObserved) {                                                                 \
            if (pure_cap) [[unlikely]] {                                                           \
                SWSEC_TRAP_EXIT(1, ip, TrapKind::CapViolation, ip,                                 \
                                "plain memory operation in pure-cap mode");                        \
            }                                                                                      \
        }                                                                                          \
    } while (0)

// Capability ops run observed only (tier 2 hands them over as a slow step),
// and only on the capability machine.
#define SWSEC_CAPABILITY_OP()                                                                      \
    do {                                                                                           \
        if constexpr (!kObserved) {                                                                \
            goto H_Slow;                                                                           \
        }                                                                                          \
        if (!m.opts_.capability_mode) {                                                            \
            SWSEC_TRAP_EXIT(1, ip, TrapKind::InvalidInstruction, ip,                               \
                            "capability opcode on base machine");                                  \
        }                                                                                          \
    } while (0)

// The capability register (imm8 bits 4-6) and offset register (bits 0-3)
// of a capability op.  Four bits can name a register the machine lacks.
#define SWSEC_CAP_OPERANDS(cap, off_reg)                                                           \
    Capability& cap = m.caps_[static_cast<std::size_t>((op->imm >> 4) & 0x7)];                     \
    const std::uint32_t off_reg = SWSEC_IMM_U & 0xf;                                               \
    if (off_reg >= isa::kNumRegs) [[unlikely]] {                                                   \
        SWSEC_TRAP_EXIT(1, ip, TrapKind::InvalidInstruction, ip,                                   \
                        "capability operand names no register");                                   \
    }

// --- Retirement.  The observed and traced loops report every retired
// instruction to the tracer (numbered with the step it retires in, written
// into its ring slot in place), and the observed loop to the profiler too
// (`edge` marks control transfers, both outcomes of a jcc included).
#define SWSEC_OBSERVE_RETIRE(pc, to, edge)                                                         \
    do {                                                                                           \
        if constexpr (kTraced) {                                                                   \
            tracer->retire(steps, pc, module, op->opcode);                                         \
        }                                                                                          \
        if constexpr (kObserved) {                                                                 \
            if (tracer != nullptr) {                                                               \
                tracer->retire(steps, pc, m.current_module_, op->opcode);                          \
            }                                                                                      \
            if (profiler != nullptr) {                                                             \
                profiler->on_retire(pc);                                                           \
                if (edge) {                                                                        \
                    profiler->on_edge(pc, to);                                                     \
                }                                                                                  \
            }                                                                                      \
        }                                                                                          \
    } while (0)

#define SWSEC_RETIRE(to_expr, edge, resume)                                                        \
    do {                                                                                           \
        const std::uint32_t to_ = (to_expr);                                                       \
        SWSEC_OBSERVE_RETIRE(ip, to_, edge);                                                       \
        ip = to_;                                                                                  \
        ++steps;                                                                                   \
        goto resume;                                                                               \
    } while (0)

// The head instruction's successor.  A fused slot's `next` follows the
// whole group, and only the tier-2 loops execute the whole group.
#define SWSEC_HEAD_NEXT (kObserved ? ip + op->len : op->next)
#define SWSEC_NEXT() SWSEC_RETIRE(SWSEC_HEAD_NEXT, false, loop_head)
#define SWSEC_BRANCH(target) SWSEC_RETIRE(target, true, loop_head)
// Variants for handlers that stored to memory: re-validate the executing
// page's generation before the next dispatch (self-modifying code).
#define SWSEC_NEXT_W() SWSEC_RETIRE(SWSEC_HEAD_NEXT, false, store_check)
#define SWSEC_BRANCH_W(target) SWSEC_RETIRE(target, true, store_check)

// A fused slot: a head and one second instruction.  The observed loop runs
// its head alone.  The tier-2 loops run both, but only when both fit the
// remaining budget: otherwise the observed step retires the head alone, so
// the watchdog fires at exactly the same architectural instruction either
// way.  (loop_head guarantees steps < end, so `end - steps` is ≥ 1.)
#define SWSEC_FUSED(name, head)                                                                    \
    SWSEC_CASE(name)                                                                               \
    if constexpr (kObserved) {                                                                     \
        goto H_##head;                                                                             \
    }                                                                                              \
    if (end - steps < 2) [[unlikely]] {                                                            \
        SWSEC_FLUSH();                                                                             \
        ++stats.deopt_budget;                                                                      \
        return FastExit::NeedSlowStep;                                                             \
    }

// A fused pair retires per component, as the observed loop retires it.
// The traced loop writes the head's insn event as soon as the head's
// effect is done (SWSEC_HEAD_RETIRED), so a trapping second component
// records it before its trap event, and the second's on retirement of the
// pair, at step + 1 and the second's own address, naming `second_opcode`.
#define SWSEC_HEAD_RETIRED()                                                                       \
    do {                                                                                           \
        if constexpr (kTraced) {                                                                   \
            tracer->retire(steps, ip, module, op->opcode);                                         \
        }                                                                                          \
    } while (0)

#define SWSEC_FUSED_RETIRE(second_opcode, to, resume)                                              \
    do {                                                                                           \
        if constexpr (kTraced) {                                                                   \
            tracer->retire(steps + 1, ip + op->len, module, (second_opcode));                      \
        }                                                                                          \
        ip = (to);                                                                                 \
        steps += 2;                                                                                \
        ++stats.superinsns_retired;                                                                \
        goto resume;                                                                               \
    } while (0)

    constexpr std::uint32_t kFastLimit = kPageSize - isa::kMaxInsnLength;
    const FastOp* op;
    std::uint32_t off = 0;
    [[maybe_unused]] FastOp fetched; // the observed loop's op when no slot serves

#if SWSEC_THREADED_DISPATCH
    static const void* const kLabels[] = {
#define SWSEC_FAST_LABEL(name) &&H_##name,
        SWSEC_FAST_HANDLERS(SWSEC_FAST_LABEL)
#undef SWSEC_FAST_LABEL
    };
#define SWSEC_CASE(name) H_##name:
#else
#define SWSEC_CASE(name)                                                                           \
    case FastHandler::name:                                                                        \
        H_##name:
#endif

    // Invariant 1: the stream is only valid at its build generation.  Only
    // stores can mutate memory while a tier-2 loop runs (syscalls, hosts
    // and fault injectors all end it), so it re-validates the
    // executing page only after store-class handlers land here; entry and
    // page switches are safe to fall through: fast_page() just synced the
    // generation.  The observed loop re-validates before every fetch.
store_check:
    if constexpr (!kObserved) {
        if (code_page->generation != ref.generation) [[unlikely]] {
            SWSEC_FLUSH();
            ++stats.deopt_page_gen;
            return FastExit::PageChange;
        }
    }
loop_head:
    // Invariant 2: run() owns the watchdog trap.
    if (steps >= end) [[unlikely]] {
        SWSEC_FLUSH();
        if constexpr (!kObserved) {
            ++stats.deopt_budget;
        }
        return FastExit::Budget;
    }
    if constexpr (kObserved) {
        if (faults != nullptr) {
            SWSEC_FLUSH();
            m.apply_step_fault(faults->on_instruction(steps));
            if (m.trap_.is_set()) {
                return FastExit::Trapped; // the power cut wins: nothing executes
            }
            tlb[0] = tlb[1] = TlbEntry{}; // a bit flip may have materialised a page
        }
        if (pma && !m.pma_allows_fetch(ip)) [[unlikely]] {
            SWSEC_FLUSH();
            m.set_trap(TrapKind::PmaViolation, ip, "illegal entry into protected module");
            return FastExit::Trapped;
        }
        op = nullptr;
        if (cached) {
            if (ref.ops == nullptr || ip - ref.base >= kPageSize ||
                code_page->generation != ref.generation) {
                ref = dc.fast_page(mem, ip, fetch_need);
                code_page = mem.page_at(ip);
            }
            off = ip - ref.base;
            if (ref.ops != nullptr && off <= kFastLimit) {
                op = &(*ref.ops)[off];
                if (op->h == FastHandler::Unbuilt) {
                    dc.build_fast(ref, off);
                }
                if (op->h == FastHandler::Slow) {
                    op = nullptr;
                } else {
                    ++dc.hits_;
                }
            }
        }
        if (tracer != nullptr) {
            // Counters only — the event stream must not depend on the cache.
            tracer->count_dcache(op != nullptr);
        }
        if (op == nullptr) {
            SWSEC_FLUSH();
            isa::Insn insn;
            if (!m.fetch(insn)) {
                return FastExit::Trapped;
            }
            fetched = fast_op_from(insn, ip);
            op = &fetched;
        }
        if (pma) {
            // The executing module is where the IP points now; the data
            // accesses of this instruction are judged against it.
            const int prev = m.current_module_;
            m.current_module_ = m.module_containing(ip);
            if (tracer != nullptr && m.current_module_ != prev) {
                if (prev != kNoModule) {
                    tracer->record({trace::EventKind::PmaExit, steps, ip, prev, false,
                                    trace::CheckOrigin::Pma, 0, 0, 0, {}});
                }
                if (m.current_module_ != kNoModule) {
                    tracer->record({trace::EventKind::PmaEnter, steps, ip, m.current_module_,
                                    false, trace::CheckOrigin::Pma, 0, 0, 0, {}});
                }
            }
        }
    } else {
        // Invariant 3: ip inside the current page's fast-decodable region.
        off = ip - ref.base;
        if (off > kFastLimit) [[unlikely]] {
            if ((ip & ~(kPageSize - 1)) == ref.base) {
                // Page tail: the slow fetch owns straddling instructions.
                SWSEC_FLUSH();
                ++stats.deopt_slow_fetch;
                return FastExit::NeedSlowStep;
            }
            ref = dc.fast_page(mem, ip, fetch_need);
            if (ref.ops == nullptr) {
                SWSEC_FLUSH();
                ++stats.deopt_slow_fetch;
                return FastExit::NeedSlowStep;
            }
            code_page = mem.page_at(ip);
            goto loop_head; // generation freshly synced: no spin
        }
        op = &(*ref.ops)[off];
    }
dispatch_op:
#if SWSEC_THREADED_DISPATCH
    goto* kLabels[static_cast<std::size_t>(op->h)];
#else
    switch (op->h)
#endif
    {
        SWSEC_CASE(Unbuilt) {
            dc.build_fast(ref, off); // never leaves Unbuilt (worst case Slow)
            goto dispatch_op;
        }
        SWSEC_CASE(Slow) {
            SWSEC_FLUSH();
            ++stats.deopt_slow_fetch;
            return FastExit::NeedSlowStep;
        }
        SWSEC_CASE(Sys) {
            if constexpr (kObserved) {
                // The kernel reads and writes the machine, seeing the ip
                // past the sys.  It may attach observers, remap pages or
                // exit, so run() re-evaluates which loop runs next.
                const std::uint32_t pc = ip;
                ip = SWSEC_HEAD_NEXT;
                SWSEC_FLUSH();
                m.do_sys(static_cast<std::uint8_t>(op->imm));
                if (!m.trap_.is_set()) {
                    SWSEC_OBSERVE_RETIRE(pc, ip, false);
                }
                ++m.steps_;
                return m.trap_.is_set() ? FastExit::Trapped : FastExit::Syscall;
            }
            SWSEC_FLUSH();
            ++stats.deopt_syscall;
            return FastExit::NeedSlowStep;
        }
        SWSEC_CASE(Halt) { SWSEC_TRAP_EXIT(1, ip, TrapKind::Halted); }
        SWSEC_CASE(Nop) { SWSEC_NEXT(); }
        SWSEC_CASE(Push) {
            SWSEC_PLAIN_MEMORY_OP();
            SWSEC_PUSH(regs[op->a], 1, ip);
            SWSEC_NEXT_W();
        }
        SWSEC_CASE(PushI) {
            SWSEC_PLAIN_MEMORY_OP();
            SWSEC_PUSH(SWSEC_IMM_U, 1, ip);
            SWSEC_NEXT_W();
        }
        SWSEC_CASE(Pop) {
            SWSEC_PLAIN_MEMORY_OP();
            SWSEC_POP(regs[op->a], 1, ip);
            SWSEC_NEXT();
        }
        SWSEC_CASE(MovI) {
            regs[op->a] = SWSEC_IMM_U;
            SWSEC_NEXT();
        }
        SWSEC_CASE(MovR) {
            regs[op->a] = regs[op->b];
            SWSEC_NEXT();
        }
        SWSEC_CASE(Load) {
            SWSEC_PLAIN_MEMORY_OP();
            SWSEC_LOAD(regs[op->a], regs[op->b] + SWSEC_IMM_U, 1, ip);
            SWSEC_NEXT();
        }
        SWSEC_CASE(Load8) {
            SWSEC_PLAIN_MEMORY_OP();
            std::uint8_t v = 0;
            SWSEC_LOAD8(regs[op->b] + SWSEC_IMM_U, v, 1, ip);
            regs[op->a] = v;
            SWSEC_NEXT();
        }
        SWSEC_CASE(Store) {
            // STORE [a+disp], b : a is the base register.
            SWSEC_PLAIN_MEMORY_OP();
            SWSEC_STORE32(regs[op->a] + SWSEC_IMM_U, regs[op->b], 1, ip);
            SWSEC_NEXT_W();
        }
        SWSEC_CASE(Store8) {
            SWSEC_PLAIN_MEMORY_OP();
            SWSEC_STORE8(regs[op->a] + SWSEC_IMM_U, static_cast<std::uint8_t>(regs[op->b] & 0xff),
                         1, ip);
            SWSEC_NEXT_W();
        }
        SWSEC_CASE(Lea) {
            regs[op->a] = regs[op->b] + SWSEC_IMM_U;
            SWSEC_NEXT();
        }
        SWSEC_CASE(Add) {
            regs[op->a] += regs[op->b];
            SWSEC_NEXT();
        }
        SWSEC_CASE(AddI) {
            regs[op->a] += SWSEC_IMM_U;
            SWSEC_NEXT();
        }
        SWSEC_CASE(Sub) {
            regs[op->a] -= regs[op->b];
            SWSEC_NEXT();
        }
        SWSEC_CASE(SubI) {
            regs[op->a] -= SWSEC_IMM_U;
            SWSEC_NEXT();
        }
        SWSEC_CASE(Mul) {
            regs[op->a] *= regs[op->b];
            SWSEC_NEXT();
        }
        SWSEC_CASE(MulI) {
            regs[op->a] *= SWSEC_IMM_U;
            SWSEC_NEXT();
        }
        SWSEC_CASE(Divs) {
            const auto num = static_cast<std::int32_t>(regs[op->a]);
            const auto den = static_cast<std::int32_t>(regs[op->b]);
            if (den == 0) [[unlikely]] {
                SWSEC_TRAP_EXIT(1, ip, TrapKind::DivByZero);
            }
            regs[op->a] = (num == std::numeric_limits<std::int32_t>::min() && den == -1)
                              ? static_cast<std::uint32_t>(num) // defined to wrap
                              : static_cast<std::uint32_t>(num / den);
            SWSEC_NEXT();
        }
        SWSEC_CASE(Rems) {
            const auto num = static_cast<std::int32_t>(regs[op->a]);
            const auto den = static_cast<std::int32_t>(regs[op->b]);
            if (den == 0) [[unlikely]] {
                SWSEC_TRAP_EXIT(1, ip, TrapKind::DivByZero);
            }
            regs[op->a] = (num == std::numeric_limits<std::int32_t>::min() && den == -1)
                              ? 0
                              : static_cast<std::uint32_t>(num % den);
            SWSEC_NEXT();
        }
        SWSEC_CASE(And) {
            regs[op->a] &= regs[op->b];
            SWSEC_NEXT();
        }
        SWSEC_CASE(AndI) {
            regs[op->a] &= SWSEC_IMM_U;
            SWSEC_NEXT();
        }
        SWSEC_CASE(Or) {
            regs[op->a] |= regs[op->b];
            SWSEC_NEXT();
        }
        SWSEC_CASE(OrI) {
            regs[op->a] |= SWSEC_IMM_U;
            SWSEC_NEXT();
        }
        SWSEC_CASE(Xor) {
            regs[op->a] ^= regs[op->b];
            SWSEC_NEXT();
        }
        SWSEC_CASE(XorI) {
            regs[op->a] ^= SWSEC_IMM_U;
            SWSEC_NEXT();
        }
        SWSEC_CASE(ShlI) {
            regs[op->a] <<= (SWSEC_IMM_U & 31);
            SWSEC_NEXT();
        }
        SWSEC_CASE(ShrI) {
            regs[op->a] >>= (SWSEC_IMM_U & 31);
            SWSEC_NEXT();
        }
        SWSEC_CASE(SarI) {
            regs[op->a] = static_cast<std::uint32_t>(static_cast<std::int32_t>(regs[op->a]) >>
                                                     (SWSEC_IMM_U & 31));
            SWSEC_NEXT();
        }
        SWSEC_CASE(Shl) {
            regs[op->a] <<= (regs[op->b] & 31);
            SWSEC_NEXT();
        }
        SWSEC_CASE(Shr) {
            regs[op->a] >>= (regs[op->b] & 31);
            SWSEC_NEXT();
        }
        SWSEC_CASE(Sar) {
            regs[op->a] = static_cast<std::uint32_t>(static_cast<std::int32_t>(regs[op->a]) >>
                                                     (regs[op->b] & 31));
            SWSEC_NEXT();
        }
        SWSEC_CASE(Not) {
            regs[op->a] = ~regs[op->a];
            SWSEC_NEXT();
        }
        SWSEC_CASE(Neg) {
            regs[op->a] = 0U - regs[op->a];
            SWSEC_NEXT();
        }
        SWSEC_CASE(Cmp) {
            SWSEC_CMP(regs[op->a], regs[op->b]);
            SWSEC_NEXT();
        }
        SWSEC_CASE(CmpI) {
            SWSEC_CMP(regs[op->a], SWSEC_IMM_U);
            SWSEC_NEXT();
        }
        SWSEC_CASE(Test) {
            fz = ((regs[op->a] & regs[op->b]) == 0);
            SWSEC_NEXT();
        }
        SWSEC_CASE(Jmp) { SWSEC_BRANCH(static_cast<std::uint32_t>(op->imm2)); }
        SWSEC_CASE(Jcc) {
            SWSEC_BRANCH(cond_holds(op->c, fz, flt, fb) ? static_cast<std::uint32_t>(op->imm2)
                                                        : op->next);
        }
        SWSEC_CASE(Call) {
            SWSEC_PLAIN_MEMORY_OP();
            SWSEC_CALL(static_cast<std::uint32_t>(op->imm2), op->next);
            SWSEC_BRANCH_W(static_cast<std::uint32_t>(op->imm2));
        }
        SWSEC_CASE(CallR) {
            SWSEC_PLAIN_MEMORY_OP();
            const std::uint32_t target = regs[op->a];
            SWSEC_CHECK_INDIRECT(target);
            SWSEC_CALL(target, op->next);
            SWSEC_BRANCH_W(target);
        }
        SWSEC_CASE(JmpR) {
            SWSEC_PLAIN_MEMORY_OP();
            const std::uint32_t target = regs[op->a];
            SWSEC_CHECK_INDIRECT(target);
            SWSEC_BRANCH(target);
        }
        SWSEC_CASE(Ret) {
            SWSEC_PLAIN_MEMORY_OP();
            std::uint32_t target = 0;
            SWSEC_RET(target);
            SWSEC_BRANCH(target);
        }
        SWSEC_CASE(Leave) {
            SWSEC_PLAIN_MEMORY_OP();
            SWSEC_LEAVE();
            SWSEC_NEXT();
        }
        SWSEC_CASE(CLoad) {
            SWSEC_CAPABILITY_OP();
            SWSEC_CAP_OPERANDS(cap, off_reg);
            const std::uint32_t off = regs[off_reg];
            if (!cap.covers(off, 4) || !has_perm(cap.perms, Perm::R)) {
                SWSEC_TRAP_EXIT(1, ip, TrapKind::CapViolation, cap.base + off,
                                "cload outside capability");
            }
            SWSEC_LOAD(regs[op->a], cap.base + off, 1, ip);
            SWSEC_NEXT();
        }
        SWSEC_CASE(CStore) {
            SWSEC_CAPABILITY_OP();
            SWSEC_CAP_OPERANDS(cap, off_reg);
            const std::uint32_t off = regs[off_reg];
            if (!cap.covers(off, 4) || !has_perm(cap.perms, Perm::W)) {
                SWSEC_TRAP_EXIT(1, ip, TrapKind::CapViolation, cap.base + off,
                                "cstore outside capability");
            }
            SWSEC_STORE32(cap.base + off, regs[op->a], 1, ip);
            SWSEC_NEXT_W();
        }
        SWSEC_CASE(CJmp) {
            SWSEC_CAPABILITY_OP();
            const Capability& target = m.caps_[static_cast<std::size_t>(op->imm & 0x7)];
            if (!target.tag || !has_perm(target.perms, Perm::X)) {
                SWSEC_TRAP_EXIT(1, ip, TrapKind::CapViolation, target.base,
                                "cjmp through non-executable capability");
            }
            SWSEC_BRANCH(target.base);
        }
        SWSEC_CASE(CSetB) {
            // Monotonic shrink: [base + rM, base + rM + rlen) must nest
            // inside the existing range; growing a capability is impossible.
            SWSEC_CAPABILITY_OP();
            SWSEC_CAP_OPERANDS(cap, off_reg);
            const std::uint32_t delta = regs[off_reg];
            const std::uint32_t new_len = regs[op->a];
            if (!cap.tag || delta > cap.length || cap.length - delta < new_len) {
                SWSEC_TRAP_EXIT(1, ip, TrapKind::CapViolation, cap.base + delta,
                                "csetb attempted to grow a capability");
            }
            cap.base += delta;
            cap.length = new_len;
            SWSEC_NEXT();
        }
        SWSEC_FUSED(FusedCmpJcc, Cmp) {
            SWSEC_CMP(regs[op->a], regs[op->b]);
            SWSEC_HEAD_RETIRED();
            SWSEC_FUSED_RETIRE(
                kJccOpcode[op->c],
                cond_holds(op->c, fz, flt, fb) ? static_cast<std::uint32_t>(op->imm2) : op->next,
                loop_head);
        }
        SWSEC_FUSED(FusedCmpIJcc, CmpI) {
            SWSEC_CMP(regs[op->a], SWSEC_IMM_U);
            SWSEC_HEAD_RETIRED();
            SWSEC_FUSED_RETIRE(
                kJccOpcode[op->c],
                cond_holds(op->c, fz, flt, fb) ? static_cast<std::uint32_t>(op->imm2) : op->next,
                loop_head);
        }
        SWSEC_FUSED(FusedLoadPush, Load) {
            // The push reads its source *after* the load wrote a (usually
            // the same register).
            SWSEC_LOAD(regs[op->a], regs[op->b] + SWSEC_IMM_U, 1, ip);
            SWSEC_HEAD_RETIRED();
            SWSEC_PUSH(regs[op->c], 2, ip + op->len);
            SWSEC_FUSED_RETIRE(static_cast<std::uint8_t>(isa::Op::Push), op->next, store_check);
        }
        SWSEC_FUSED(FusedMovIPop, MovI) {
            regs[op->a] = SWSEC_IMM_U; // before the pop: movi sp, i; pop r
            SWSEC_HEAD_RETIRED();
            SWSEC_POP(regs[op->c], 2, ip + op->len);
            SWSEC_FUSED_RETIRE(static_cast<std::uint8_t>(isa::Op::Pop), op->next, loop_head);
        }
#if !SWSEC_THREADED_DISPATCH
    default: // FastHandler::Count is never stored
        SWSEC_FLUSH();
        ++stats.deopt_slow_fetch;
        return FastExit::NeedSlowStep;
#endif
    }
#if !SWSEC_THREADED_DISPATCH
    // Unreachable: every case exits via goto or return.
    SWSEC_FLUSH();
    return FastExit::NeedSlowStep;
#endif

#undef SWSEC_FLUSH
#undef SWSEC_TRAP_EXIT
#undef SWSEC_ACCESS
#undef SWSEC_LOAD32
#undef SWSEC_STORE32
#undef SWSEC_LOAD8
#undef SWSEC_STORE8
#undef SWSEC_IMM_U
#undef SWSEC_CMP
#undef SWSEC_LOAD
#undef SWSEC_PUSH
#undef SWSEC_POP
#undef SWSEC_LEAVE
#undef SWSEC_CALL
#undef SWSEC_RET
#undef SWSEC_CHECK_INDIRECT
#undef SWSEC_PLAIN_MEMORY_OP
#undef SWSEC_CAPABILITY_OP
#undef SWSEC_CAP_OPERANDS
#undef SWSEC_OBSERVE_RETIRE
#undef SWSEC_RETIRE
#undef SWSEC_HEAD_NEXT
#undef SWSEC_NEXT
#undef SWSEC_BRANCH
#undef SWSEC_NEXT_W
#undef SWSEC_BRANCH_W
#undef SWSEC_FUSED
#undef SWSEC_HEAD_RETIRED
#undef SWSEC_FUSED_RETIRE
#undef SWSEC_CASE
}

template FastExit FastEngine::run<Policy::Unobserved>(Machine& m, std::uint64_t end);
template FastExit FastEngine::run<Policy::Traced>(Machine& m, std::uint64_t end);
template FastExit FastEngine::run<Policy::Observed>(Machine& m, std::uint64_t end);

} // namespace swsec::vm
