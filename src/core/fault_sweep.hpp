// Machine-wide fail-closed fault sweeps.
//
// The paper's security objective is that compiled code behaves as specified
// *even under attack*; the fault model sharpens it: even when the platform
// itself glitches.  The sweep harness checks the two halves of that claim:
//
//  * Exploit-mitigation half (Sections III-B/C): for every attack x defense
//    cell of the matrix whose baseline outcome is "blocked", re-run the
//    attack under a schedule of injected faults — instruction-boundary
//    power cuts, single-bit register/memory flips (the classic glitch that
//    skips a canary or CFI check), transient syscall failures and short
//    reads.  The *fail-closed invariant*: a fault may abort the run or
//    change which trap fires, but it must never flip a blocked cell into
//    "attack succeeded".  The invariant is scoped to platform-enforced
//    blocks (machine permissions, shadow stack, kernel checks, the
//    memcheck poison map): those live outside the glitched machine, so no
//    injected fault can skip them.  Cells whose baseline block is a
//    *compiled-in* software check (a canary compare, a bounds check, a
//    fortified read, an address-sanitizer shadow probe) are the paper's
//    second-attacker-model result in miniature: the check is ordinary
//    guest code and a single register flip can jump past it.  Flips on
//    such cells are recorded separately as "glitched checks" — a
//    documented, replayable residual, not a harness failure.
//
//  * State-continuity half (Section IV-C): for all three StateProtocols,
//    cut power in every window between two NV device operations of a save,
//    and tear every blob write at every byte prefix.  After every window a
//    fresh protocol instance must recover an accepted state (liveness) and
//    still make progress — and for the rollback-protected protocols a
//    post-recovery replay of stale slots must still be rejected.
//
// Everything is seeded and replayable: a reported violation names the exact
// FaultEvent, and re-running the same sweep reproduces it bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/attack_lab.hpp"
#include "core/defense.hpp"
#include "core/matrix.hpp"
#include "fault/fault.hpp"
#include "profile/metrics.hpp"

namespace swsec::core {

struct FaultSweepOptions {
    std::uint64_t victim_seed = 1001;
    std::uint64_t attacker_seed = 2002;
    std::uint64_t fault_seed = 4242;
    /// Fault windows per (attack, defense, class) triple; each window is an
    /// independent victim run with exactly one scheduled fault.
    int windows_per_class = 6;
    std::vector<fault::FaultClass> classes = {
        fault::FaultClass::PowerCut,    fault::FaultClass::RegBitFlip,
        fault::FaultClass::MemBitFlip,  fault::FaultClass::SyscallFail,
        fault::FaultClass::ShortRead,
    };
    std::vector<AttackKind> attacks;  // empty = all_attacks()
    std::vector<Defense> defenses;    // empty = standard_defenses()
    bool include_statecont = true;    // also run the NV liveness sweep
    int statecont_state_bytes = 9;    // protocol state blob size for the sweep
    /// Worker threads for the sweep.  Cells are share-nothing (every window
    /// builds its own Machine and NvStore), handed out by index and merged
    /// by index, so any jobs value produces byte-identical reports.
    /// 0 = one worker per hardware thread.
    int jobs = 1;
};

/// A blocked matrix cell that a fault flipped into a success — the one
/// outcome the sweep exists to rule out.
struct FailOpenViolation {
    std::string attack;
    std::string defense;
    fault::FaultEvent event;
    std::string note;

    [[nodiscard]] std::string to_string() const;
};

/// How an attack ended under one fault window.
enum class WindowOutcome : std::uint8_t {
    StillBlocked,  // blocked by a trap other than the injected power cut
    PowerCut,      // ended by the injected power cut itself (still blocked)
    FailOpen,      // succeeded past a platform block: a violation
    GlitchedCheck, // succeeded past a compiled-in check: the residual
};

/// One fault window of a cell: the event it injected (class, step or
/// ordinal, register or address, bit) and how the attack ended under it.
struct FaultWindow {
    fault::FaultEvent event;
    WindowOutcome outcome = WindowOutcome::StillBlocked;
};

/// Per-fault-class tallies of the exploit-mitigation half.
struct ClassTally {
    fault::FaultClass cls = fault::FaultClass::PowerCut;
    std::uint64_t windows = 0;     // victim runs under this class
    std::uint64_t power_cut = 0;   // runs ended by the injected cut itself
    std::uint64_t still_blocked = 0; // runs that stayed blocked (any trap)
    std::uint64_t fail_open = 0;   // runs that flipped to success (violations)
    std::uint64_t glitched_check = 0; // flips past a compiled-in check (residual)
};

/// Result of the Section IV-C liveness sweep.
struct StatecontSweep {
    std::uint64_t windows = 0;  // crash + torn-write windows executed
    std::uint64_t crashes = 0;  // windows in which the cut actually landed
    std::vector<std::string> violations; // liveness/rollback breaks (empty = pass)
};

/// Everything one (attack, defense) cell contributes to the report.  The
/// campaign driver runs cells one at a time (checkpointing each into its
/// write-ahead log); run_fault_sweep fans them out over workers.  Either
/// way the merge folds them in cell-index order, so the report is
/// byte-identical no matter who scheduled the work.
struct FaultCellSweep {
    bool baseline_success = false;
    MatrixCell record;                // baseline outcome with trap provenance
    std::vector<ClassTally> tallies;  // one per opts.classes entry
    std::vector<FaultWindow> windows; // class-major, window order
    std::vector<FailOpenViolation> violations;  // class-major, window order
    std::vector<FailOpenViolation> glitched;    // compiled-check bypasses (residual)
};

struct FaultSweepReport {
    std::uint64_t cells = 0;            // attack x defense cells visited
    std::uint64_t baseline_blocked = 0; // cells blocked on the healthy platform
    std::uint64_t baseline_success = 0; // cells the attack wins anyway (skipped)
    std::vector<ClassTally> tallies;    // one per fault class swept
    std::vector<FailOpenViolation> violations;
    /// Success flips whose baseline block was a compiled-in software check
    /// (trap origin Canary/Bounds/Fortify/AddressSanitizer).  These are the
    /// fault attacker defeating a countermeasure that runs as ordinary
    /// guest code — expected under the paper's second attacker model and
    /// reported for the record, but not a fail-closed violation.
    std::vector<FailOpenViolation> glitched;
    StatecontSweep statecont;
    /// Every cell in cell-index order: its baseline outcome with full trap
    /// provenance (the *why* behind baseline_blocked/baseline_success) and
    /// each fault window's event and outcome.  Identical for any jobs value.
    std::vector<FaultCellSweep> per_cell;

    [[nodiscard]] std::uint64_t total_windows() const noexcept;
    /// The invariant the harness enforces: no fail-open flips and no
    /// state-continuity liveness/rollback breaks.
    [[nodiscard]] bool fail_closed() const noexcept {
        return violations.empty() && statecont.violations.empty();
    }
    [[nodiscard]] std::string summary() const;
    /// One fault_cell_json() line per cell, in cell order: what `swsec
    /// fault-sweep --trace-out` writes.
    [[nodiscard]] std::string cells_jsonl() const;
};

/// One cell as one JSON object, fixed key order: the baseline
/// (matrix_cell_json), baseline_success, the per-class tallies, every
/// window's event and outcome, and the violations and glitched checks as
/// text.  The campaign's fault-sweep cell payload and each line of `swsec
/// fault-sweep --trace-out`, so the goldens pin every window's draw.
[[nodiscard]] std::string fault_cell_json(const FaultCellSweep& cell);

/// Run one (attack, defense) cell of the exploit-mitigation half.  `ai` and
/// `di` index into opts.attacks / opts.defenses (or the standard lists when
/// those are empty).  Deterministic given the options.
[[nodiscard]] FaultCellSweep sweep_fault_cell(const FaultSweepOptions& opts, std::size_t ai,
                                              std::size_t di);

/// Run the whole sweep (both halves, per options).
[[nodiscard]] FaultSweepReport run_fault_sweep(const FaultSweepOptions& opts = {});

/// Deterministic metrics registry for a finished sweep (labels:
/// harness=fault-sweep, plus class=<fault class> for the per-class
/// tallies): cells visited, windows executed, fail-open violations,
/// state-continuity liveness results and the baseline cells' platform
/// tallies.  Derived from the (jobs-invariant) report only, so the JSON
/// export is byte-identical for any jobs value.
[[nodiscard]] profile::Registry fault_sweep_metrics(const FaultSweepReport& report);

/// The state-continuity half alone: exhaustively sweep every power-cut
/// window and every torn-write byte prefix of a save, for all three
/// protocols.  Used by run_fault_sweep, tests and the bench.  `jobs`
/// parallelises across protocols (deterministic merge in protocol order).
[[nodiscard]] StatecontSweep run_statecont_fault_sweep(int state_bytes = 9, int jobs = 1);

} // namespace swsec::core
