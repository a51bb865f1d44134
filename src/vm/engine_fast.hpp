// The execution engine (DESIGN.md §13).
//
// One dispatch loop over the decode cache's pre-decoded FastOp stream,
// computed-goto threaded (dense-switch fallback on non-GNU compilers),
// instantiated twice under a compile-time observe policy.  Its handler
// bodies are the machine's only definition of what each opcode does.
//
//  * run<false>, the unobserved loop, runs whenever nothing observable
//    could distinguish it: no tracer, profiler or fault plan attached, no
//    protected modules installed, decode cache and fast_engine on, not
//    pure-capability.  It retires fused superinstructions (cmp+jcc,
//    push/push/call, load+arith) built by DecodeCache::build_fast in one
//    dispatch, and hands anything it does not own back to Machine::run().
//  * run<true>, the observed loop, runs everywhere else, and is what
//    Machine::step() runs for one instruction.  It adds the per-instruction
//    fault probe, the PMA fetch and data checks, module-transition, retire
//    and trap events, the profiler's hooks, syscalls and capability ops; it
//    executes only the head instruction of a fused slot, and with the
//    decode cache off it builds one unfused FastOp per step from
//    Machine::fetch.
//
// Contract: both loops leave the same registers, flags, step counts, traps
// (kind/ip/addr/detail/origin) and memory mutations, including generation
// bumps.  The engine-A/engine-B fuzz oracle and tests/test_engine.cpp hold
// the fusion, page-change and budget logic to it; the absolute expectations
// in tests/test_vm.cpp and the trace goldens hold the semantics.
#pragma once

#include <cstdint>

namespace swsec::vm {

class Machine;

/// Why a loop handed control back to Machine::run().
enum class FastExit : std::uint8_t {
    Trapped,      // a trap fired (set on the machine; state fully flushed)
    Budget,       // step budget `end` reached: run() raises OutOfGas
    NeedSlowStep, // unobserved loop: one observed step() must execute the
                  // next insn (slow-path fetch, syscall, capability op, or a
                  // fused op that no longer fits the remaining budget)
    PageChange,   // unobserved loop: the executing page's generation bumped
                  // (self-modifying code / mid-fusion write): re-resolve
    Syscall,      // observed loop: a syscall retired; run() re-evaluates
                  // which loop may run next
};

class FastEngine {
public:
    /// Execute from the machine's current state until `end` total retired
    /// steps or an exit point.  Pre-condition: no trap set, and for the
    /// unobserved loop Machine::fast_eligible().  On return the machine's
    /// ip/flags/steps are flushed.
    template <bool kObserved>
    static FastExit run(Machine& m, std::uint64_t end);
};

} // namespace swsec::vm
