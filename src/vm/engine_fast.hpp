// The execution engine (DESIGN.md §13).
//
// One dispatch loop over the decode cache's pre-decoded FastOp stream,
// computed-goto threaded (dense-switch fallback on non-GNU compilers),
// instantiated three times under a compile-time observe policy.  Its
// handler bodies are the machine's only definition of what each opcode
// does.
//
//  * run<Policy::Unobserved>, the unobserved loop ("tier 2"), runs
//    whenever nothing but a tracer could observe it: no fault plan
//    attached, no protected modules installed, decode cache on, not
//    pure-capability.  It retires each fused pair
//    built by DecodeCache::build_fast (cmp+jcc, cmpi+jcc, load+push,
//    movi+pop) in one dispatch, and hands anything it does not own back to
//    Machine::run().
//  * run<Policy::Traced> is the same loop with a tracer attached.  It
//    writes the insn event the observed loop would write for every
//    retirement, one per component of a fused pair (the head's between
//    the two components), so its trace equals the observed loop's.  It
//    hands every retired control transfer to the tracer after its
//    retirement, the jcc of a fused cmp+jcc included, so the tracer's folds
//    (coverage, a profile) see the observed loop's stream, in its order.
//  * run<Policy::Observed>, the observed loop ("tier 1"), runs everywhere
//    else, and is what Machine::step() runs for one instruction.  It adds
//    the per-instruction fault probe, the PMA fetch and data checks,
//    module-transition events, syscalls and capability ops; it executes
//    only the head instruction of a fused slot, and with the decode cache
//    off it builds one unfused FastOp per step from Machine::fetch.
//
// Contract: every loop leaves the same registers, flags, step counts, traps
// (kind/ip/addr/detail/origin) and memory mutations, including generation
// bumps, and a traced run records the same events whichever loop ran it.
// The fuzz engine oracle and tests/test_engine.cpp hold the fusion,
// page-change and budget logic to it; the absolute expectations in
// tests/test_vm.cpp and the trace goldens hold the semantics.
#pragma once

#include <cstdint>

namespace swsec::vm {

class Machine;

/// Why a loop handed control back to Machine::run().
enum class FastExit : std::uint8_t {
    Trapped,      // a trap fired (set on the machine; state fully flushed)
    Budget,       // step budget `end` reached: run() raises OutOfGas
    NeedSlowStep, // tier 2: one observed step() must execute the next insn
                  // (slow-path fetch, syscall, capability op, or a fused op
                  // that no longer fits the remaining budget)
    PageChange,   // tier 2: the executing page's generation bumped
                  // (self-modifying code): re-resolve
    Syscall,      // observed loop: a syscall retired; run() re-evaluates
                  // which loop may run next
};

/// The compile-time observe policy of a loop instantiation.
enum class Policy : std::uint8_t {
    Unobserved, // tier 2, nothing attached
    Traced,     // tier 2 feeding the attached tracer
    Observed,   // tier 1
};

class FastEngine {
public:
    /// Execute from the machine's current state until `end` total retired
    /// steps or an exit point.  Pre-condition: no trap set; for the two
    /// tier-2 policies Machine::fast_eligible(), and a tracer attached
    /// exactly when the policy is Traced.  On return the machine's
    /// ip/flags/steps are flushed.
    template <Policy kPolicy>
    static FastExit run(Machine& m, std::uint64_t end);
};

} // namespace swsec::vm
