// The attack laboratory: every attack technique of Section III-B, runnable
// against every Defense of Section III-C, reporting success or the trap
// that stopped it.
//
// Attacker model discipline: the attacker interacts with the victim only
// through its I/O channels.  Reconnaissance happens on the attacker's own
// copy of the binary (the "probe" process, seeded with the *attacker's*
// seed) — under ASLR the victim's layout differs, which is exactly the
// protection ASLR provides.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "assembler/object.hpp"
#include "core/defense.hpp"
#include "fault/fault.hpp"
#include "os/process.hpp"
#include "trace/trace.hpp"
#include "vm/trap.hpp"

namespace swsec::core {

enum class AttackKind : std::uint8_t {
    StackSmashInject,  // classic stack smashing + direct code injection [1]
    CodePtrHijack,     // overwrite a function pointer with a function entry
    CodePtrHijackMidFn, // ... with a mid-function address (caught by coarse CFI)
    CodeCorruption,    // patch the program's text through an arbitrary write
    Ret2Libc,          // return-to-libc: divert control to grant_shell()
    Rop,               // return-oriented chain exfiltrating a data-segment key
    DataOnly,          // flip the adjacent isAdmin flag; no pointers involved
    InfoLeakBypass,    // leak canary+addresses, then smash with correct canary [5]
    UseAfterFree,      // temporal: stale pointer reads attacker-filled chunk
    HeapMetadata,      // heap overflow corrupts free-list metadata ->
                       // write-what-where -> flip isAdmin (beats canary+DEP)
    HeapUnderflow,     // indexed writes skip the tail red zone into the
                       // neighbour's header + p[-8] underflow leaks the
                       // chunk's own size field (the memcheck blind spot)
    StackIndexHop,     // non-contiguous stack write: attacker offset HOPS
                       // the canary straight onto the return address
    HeapOverRead,      // attacker-length echo reads across the tail red
                       // zone into the neighbouring chunk's secret
    HeapUafRead,       // stale pointer READ of a recycled chunk leaks
                       // attacker-controlled bytes as the freed object
};

[[nodiscard]] std::string attack_name(AttackKind k);
[[nodiscard]] const std::vector<AttackKind>& all_attacks();

struct AttackOutcome {
    bool succeeded = false;
    vm::Trap trap;     // final trap of the victim process
    std::string note;  // what the attacker achieved / what stopped it
    /// The victim's counts (stats.instructions: instructions it executed).
    /// Deterministic given the seeds (the victim is share-nothing), so a
    /// --jobs N sweep sums them byte-identically to a serial one.
    os::RunStats stats;

    /// The victim's load bias.  trap.ip is a raw run-time PC, meaningless
    /// across two ASLR draws on its own; (ip - text_base) plus `trap_sym`
    /// make outcomes from differently-randomized victims comparable.
    std::uint32_t text_base = 0;
    std::uint32_t text_size = 0;
    /// trap.ip symbolized through the image's debug line table as
    /// "function:line".  Empty when the trap landed outside the text
    /// segment (e.g. inside injected stack shellcode — itself a signal).
    std::string trap_sym;
    /// The victim's compiled image (shared with the machine-wide image
    /// cache); lets callers symbolize/profile without recompiling.  Null
    /// for scenarios that never build a process (the static sfi verdict).
    std::shared_ptr<const objfmt::Image> image;

    [[nodiscard]] std::string verdict() const {
        return succeeded ? "ATTACK SUCCEEDED" : "blocked: " + vm::trap_name(trap.kind);
    }
};

/// Run one attack against one defense.  Deterministic given the seeds; under
/// ASLR the attacker's probe (attacker_seed) and the victim (victim_seed)
/// get different layouts.  When `victim_faults` is given, the *victim*
/// platform runs under that fault injector (the attacker's probe stays
/// clean — the attacker rehearses on healthy hardware; only the deployed
/// machine glitches).  The fault-sweep harness uses this to check that no
/// glitch can flip a blocked cell into a success.  When `victim_tracer` is
/// given, the victim machine records its full event trace into it, and feeds
/// the tracer's folds (the probe never traces — only the deployed machine is
/// observed).
[[nodiscard]] AttackOutcome run_attack(AttackKind kind, const Defense& defense,
                                       std::uint64_t victim_seed = 1001,
                                       std::uint64_t attacker_seed = 2002,
                                       fault::FaultInjector* victim_faults = nullptr,
                                       trace::Tracer* victim_tracer = nullptr);

} // namespace swsec::core
