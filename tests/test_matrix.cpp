// The attack/defense matrix, cell by cell (Sections III-B and III-C).
//
// Each test pins one row of the matrix to the behaviour the paper claims:
// which countermeasures stop which attack techniques, and how.  These are
// the central integration tests of the reproduction.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/attack_lab.hpp"
#include "core/defense.hpp"
#include "core/fault_sweep.hpp"
#include "core/matrix.hpp"

namespace {

using swsec::core::AttackKind;
using swsec::core::Defense;
using swsec::core::run_attack;
using swsec::vm::TrapKind;

struct Expect {
    Defense defense;
    bool succeeds;
    TrapKind trap; // checked only when the attack is expected to fail
};

void check_row(AttackKind kind, const std::vector<Expect>& expectations) {
    for (const auto& e : expectations) {
        const auto out = run_attack(kind, e.defense);
        EXPECT_EQ(out.succeeded, e.succeeds)
            << swsec::core::attack_name(kind) << " vs " << e.defense.name << ": "
            << out.trap.to_string();
        if (!e.succeeds) {
            EXPECT_EQ(out.trap.kind, e.trap)
                << swsec::core::attack_name(kind) << " vs " << e.defense.name << ": "
                << out.trap.to_string();
        }
    }
}

TEST(Matrix, StackSmashingWithCodeInjection) {
    check_row(AttackKind::StackSmashInject,
              {
                  {Defense::none(), true, TrapKind::None},
                  // StackGuard detects the clobbered canary before return [9].
                  {Defense::canary(), false, TrapKind::Abort},
                  // DEP: the injected bytes on the stack are not executable.
                  {Defense::dep(), false, TrapKind::SegvExec},
                  // ASLR: the attacker's probe addresses are wrong.
                  {Defense::aslr(), false, TrapKind::SegvExec},
                  {Defense::standard_hardening(), false, TrapKind::Abort},
                  {Defense::shadow_stack(), false, TrapKind::ShadowStackViolation},
                  // Coarse CFI checks only indirect branches, not returns:
                  // it does NOT stop classic stack smashing.
                  {Defense::coarse_cfi(), true, TrapKind::None},
                  {Defense::all_exploit_mitigations(), false, TrapKind::Abort},
                  // The run-time checker's red zone catches the overflow as
                  // the kernel copies byte 17 (Section III-C2).
                  {Defense::memcheck(), false, TrapKind::PoisonedAccess},
                  // The deployed sanitizer: the read() interceptor validates
                  // the delivered range against the shadow before copying.
                  {Defense::sanitize_address(), false, TrapKind::PoisonedAccess},
              });
}

TEST(Matrix, FunctionPointerOverwrite) {
    check_row(AttackKind::CodePtrHijack,
              {
                  {Defense::none(), true, TrapKind::None},
                  // The overflow stays between locals: the canary survives.
                  {Defense::canary(), true, TrapKind::None},
                  // Code reuse: DEP is irrelevant.
                  {Defense::dep(), true, TrapKind::None},
                  {Defense::aslr(), false, TrapKind::SegvExec},
                  // Return addresses untouched: the shadow stack is blind.
                  {Defense::shadow_stack(), true, TrapKind::None},
                  // grant_shell *is* a legal function entry: coarse-grained
                  // CFI admits the hijack (its known weakness).
                  {Defense::coarse_cfi(), true, TrapKind::None},
                  {Defense::safe_language(), false, TrapKind::Abort},
                  {Defense::memcheck(), false, TrapKind::PoisonedAccess},
                  {Defense::sanitize_address(), false, TrapKind::PoisonedAccess},
              });
}

TEST(Matrix, FunctionPointerOverwriteMidFunction) {
    check_row(AttackKind::CodePtrHijackMidFn,
              {
                  {Defense::none(), true, TrapKind::None},
                  // A mid-function target is NOT in the approved set.
                  {Defense::coarse_cfi(), false, TrapKind::CfiViolation},
              });
}

TEST(Matrix, CodeCorruption) {
    check_row(AttackKind::CodeCorruption,
              {
                  // Pre-DEP platforms: writable text, attack works.
                  {Defense::none(), true, TrapKind::None},
                  {Defense::canary(), true, TrapKind::None},
                  // W^X makes the text segment unwritable.
                  {Defense::dep(), false, TrapKind::SegvWrite},
                  {Defense::aslr(), false, TrapKind::SegvWrite},
                  {Defense::shadow_stack(), true, TrapKind::None},
                  // The arbitrary write goes through a cast pointer: the
                  // bounds-check retrofit cannot see it (the "unsafe code
                  // remains" caveat of Section III-C2).
                  {Defense::safe_language(), true, TrapKind::None},
                  // The sanitizer's honest residual: the text segment is
                  // addressable (never poisoned), so the in-bounds arbitrary
                  // write sails through the shadow check.
                  {Defense::sanitize_address(), true, TrapKind::None},
              });
}

TEST(Matrix, ReturnToLibc) {
    check_row(AttackKind::Ret2Libc,
              {
                  {Defense::none(), true, TrapKind::None},
                  {Defense::canary(), false, TrapKind::Abort},
                  // The paper's key point: code-reuse attacks defeat DEP.
                  {Defense::dep(), true, TrapKind::None},
                  {Defense::aslr(), false, TrapKind::SegvExec},
                  {Defense::standard_hardening(), false, TrapKind::Abort},
                  {Defense::shadow_stack(), false, TrapKind::ShadowStackViolation},
                  {Defense::coarse_cfi(), true, TrapKind::None},
                  {Defense::safe_language(), false, TrapKind::Abort},
                  {Defense::sanitize_address(), false, TrapKind::PoisonedAccess},
              });
}

TEST(Matrix, ReturnOrientedProgramming) {
    check_row(AttackKind::Rop,
              {
                  {Defense::none(), true, TrapKind::None},
                  // ROP exfiltrates the key *with DEP enabled* [2].
                  {Defense::dep(), true, TrapKind::None},
                  {Defense::canary(), false, TrapKind::Abort},
                  {Defense::shadow_stack(), false, TrapKind::ShadowStackViolation},
                  {Defense::safe_language(), false, TrapKind::Abort},
              });
}

TEST(Matrix, DataOnlyAttack) {
    // No code pointer is touched: every exploit mitigation fails; only the
    // vulnerability-prevention techniques help (Section III-B data-only).
    check_row(AttackKind::DataOnly,
              {
                  {Defense::none(), true, TrapKind::None},
                  {Defense::canary(), true, TrapKind::None},
                  {Defense::dep(), true, TrapKind::None},
                  {Defense::aslr(), true, TrapKind::None},
                  {Defense::standard_hardening(), true, TrapKind::None},
                  {Defense::shadow_stack(), true, TrapKind::None},
                  {Defense::coarse_cfi(), true, TrapKind::None},
                  {Defense::all_exploit_mitigations(), true, TrapKind::None},
                  {Defense::safe_language(), false, TrapKind::Abort},
                  {Defense::memcheck(), false, TrapKind::PoisonedAccess},
              });
}

TEST(Matrix, InfoLeakBypassesCanaryDepAslr) {
    // Breaking the memory secrecy assumption [5]: leak the canary and a
    // return address, rebase, then smash with the correct canary.
    check_row(AttackKind::InfoLeakBypass,
              {
                  {Defense::none(), true, TrapKind::None},
                  {Defense::canary(), true, TrapKind::None},
                  {Defense::dep(), true, TrapKind::None},
                  {Defense::aslr(), true, TrapKind::None},
                  // The widely-deployed combination falls to the leak.
                  {Defense::standard_hardening(), true, TrapKind::None},
                  {Defense::shadow_stack(), false, TrapKind::ShadowStackViolation},
                  {Defense::safe_language(), false, TrapKind::Abort},
                  {Defense::memcheck(), false, TrapKind::PoisonedAccess},
                  // The leak itself is stopped: echoing 32 bytes of a
                  // 16-byte stack buffer crosses its red zone in the
                  // write() interceptor.
                  {Defense::sanitize_address(), false, TrapKind::PoisonedAccess},
              });
}

TEST(Matrix, UseAfterFree) {
    // Temporal vulnerability: exploit mitigations and spatial bounds checks
    // all miss it; the quarantine-based run-time checker catches it.
    check_row(AttackKind::UseAfterFree,
              {
                  {Defense::none(), true, TrapKind::None},
                  {Defense::standard_hardening(), true, TrapKind::None},
                  {Defense::all_exploit_mitigations(), true, TrapKind::None},
                  {Defense::safe_language(), true, TrapKind::None},
                  {Defense::memcheck(), false, TrapKind::PoisonedAccess},
                  // Quarantined free(): the chunk is never recycled and its
                  // shadow stays poisoned, so the stale read traps.
                  {Defense::sanitize_address(), false, TrapKind::PoisonedAccess},
              });
}

TEST(Matrix, AslrIsProbabilistic) {
    // With tiny entropy the attacker occasionally wins: success depends only
    // on the victim landing on the probe's layout.
    int wins = 0;
    const int trials = 12;
    for (int t = 0; t < trials; ++t) {
        const auto out = run_attack(AttackKind::Ret2Libc, Defense::aslr(2),
                                    /*victim_seed=*/5000 + static_cast<std::uint64_t>(t),
                                    /*attacker_seed=*/9999);
        wins += out.succeeded ? 1 : 0;
    }
    // 2 bits over three independently randomised segments: some trials fail.
    EXPECT_LT(wins, trials);
}

} // namespace

// Appended: the heap-metadata attack row.
namespace {
TEST(Matrix, HeapMetadataCorruption) {
    // Overflowing a heap chunk corrupts the freed neighbour's free-list
    // header; two mallocs later the attacker writes anywhere.  A data-only
    // heap attack: canaries (stack-only), DEP (data is writable), shadow
    // stacks and CFI (no control flow touched) all miss it.
    check_row(AttackKind::HeapMetadata,
              {
                  {Defense::none(), true, TrapKind::None},
                  {Defense::canary(), true, TrapKind::None},
                  {Defense::dep(), true, TrapKind::None},
                  {Defense::shadow_stack(), true, TrapKind::None},
                  {Defense::coarse_cfi(), true, TrapKind::None},
                  // The forged pointer needs the data-segment address.
                  {Defense::aslr(), false, TrapKind::SegvRead},
                  // The stack/global bounds retrofit cannot size a malloc'd
                  // chunk (the honest false negative again)...
                  {Defense::safe_language(), true, TrapKind::None},
                  // ...but the allocator's red zones catch the overflow.
                  {Defense::memcheck(), false, TrapKind::PoisonedAccess},
                  {Defense::sanitize_address(), false, TrapKind::PoisonedAccess},
              });
}
} // namespace

// Appended: the heap-underflow attack row (indexed metadata pokes).
namespace {
TEST(Matrix, HeapUnderflowIndexedPokes) {
    // Indexed byte writes skip the tail red zone and forge the freed
    // neighbour's free-list pointer in place; an indexed read underflows
    // into the chunk's own size header.  No linear overflow ever touches
    // a red zone, so only poisoned *headers* can catch it — the memcheck
    // blind spot this row regression-locks (pre-fix the memcheck cell ran
    // to a clean exit with the metadata leak printed).
    check_row(AttackKind::HeapUnderflow,
              {
                  {Defense::none(), true, TrapKind::None},
                  {Defense::canary(), true, TrapKind::None},
                  {Defense::dep(), true, TrapKind::None},
                  {Defense::shadow_stack(), true, TrapKind::None},
                  {Defense::coarse_cfi(), true, TrapKind::None},
                  // The forged pointer needs the data-segment address.
                  {Defense::aslr(), false, TrapKind::SegvRead},
                  // Bounds retrofits cannot size a malloc'd chunk.
                  {Defense::safe_language(), true, TrapKind::None},
                  // Poisoned chunk headers stop the very first poke.
                  {Defense::memcheck(), false, TrapKind::PoisonedAccess},
                  // The compiled shadow check on the indexed store fires on
                  // the same poisoned header byte.
                  {Defense::sanitize_address(), false, TrapKind::PoisonedAccess},
              });
}
} // namespace

// Appended: the three spatial-safety blind-spot rows the shadow-memory
// sanitizer closes (DESIGN.md §15).
namespace {
TEST(Matrix, StackIndexHopOverCanary) {
    // A non-contiguous write: the attacker-supplied offset lands the word
    // directly on the return-address slot, hopping over the canary (and over
    // memcheck's array red zones) without touching them.  Contiguity-based
    // defenses never fire; only poisoning the ret slot itself catches the
    // hop.
    check_row(AttackKind::StackIndexHop,
              {
                  {Defense::none(), true, TrapKind::None},
                  // The canary survives untouched: StackGuard passes.
                  {Defense::canary(), true, TrapKind::None},
                  // Code reuse (ret into grant_shell): DEP is irrelevant.
                  {Defense::dep(), true, TrapKind::None},
                  // The probe's grant_shell address is wrong under ASLR.
                  {Defense::aslr(), false, TrapKind::SegvExec},
                  // Red zones bracket the array, but the hop lands PAST
                  // them on the never-poisoned ret slot: the testing
                  // checker's blind spot this row regression-locks.
                  {Defense::memcheck(), true, TrapKind::None},
                  // The write goes through a cast pointer: no bounds info.
                  {Defense::safe_language(), true, TrapKind::None},
                  // The return address still changes: the shadow stack's
                  // copy disagrees at ret.
                  {Defense::shadow_stack(), false, TrapKind::ShadowStackViolation},
                  // sanitize_address poisons the ret-addr zone itself
                  // (DESIGN.md §15): the hopping store traps.
                  {Defense::sanitize_address(), false, TrapKind::PoisonedAccess},
              });
}

TEST(Matrix, HeapOverReadInfoLeak) {
    // Heartbleed on the heap: an attacker-controlled echo length reads
    // across the victim chunk's tail red zone and the neighbour's header
    // into a secret.  A pure READ — canary/DEP/shadow-stack/CFI watch
    // writes and control flow, and the payload contains no addresses, so
    // ASLR has nothing to randomize away.
    check_row(AttackKind::HeapOverRead,
              {
                  {Defense::none(), true, TrapKind::None},
                  {Defense::canary(), true, TrapKind::None},
                  {Defense::dep(), true, TrapKind::None},
                  {Defense::aslr(), true, TrapKind::None},
                  {Defense::standard_hardening(), true, TrapKind::None},
                  {Defense::shadow_stack(), true, TrapKind::None},
                  {Defense::coarse_cfi(), true, TrapKind::None},
                  // Bounds retrofits cannot size a malloc'd chunk.
                  {Defense::safe_language(), true, TrapKind::None},
                  // memcheck: the kernel's checked copy loop hits the
                  // poisoned tail red zone at byte 16 — nothing past the
                  // chunk ever reaches the output.
                  {Defense::memcheck(), false, TrapKind::PoisonedAccess},
                  // sanitize: the write() interceptor validates the whole
                  // range against the shadow before copying a single byte.
                  {Defense::sanitize_address(), false, TrapKind::PoisonedAccess},
              });
}

TEST(Matrix, HeapUafReadLeak) {
    // Use-after-free READ: the allocator recycles the freed session chunk
    // into the attacker-filled request buffer, so the stale s[1] read
    // returns attacker bytes verbatim.  Only quarantine + full-extent
    // re-poisoning on free() makes the stale read trap; a free() that
    // recycles (or re-poisons only part of the user region) leaks.
    check_row(AttackKind::HeapUafRead,
              {
                  {Defense::none(), true, TrapKind::None},
                  {Defense::standard_hardening(), true, TrapKind::None},
                  {Defense::all_exploit_mitigations(), true, TrapKind::None},
                  {Defense::safe_language(), true, TrapKind::None},
                  {Defense::memcheck(), false, TrapKind::PoisonedAccess},
                  {Defense::sanitize_address(), false, TrapKind::PoisonedAccess},
              });
}

// ---- committed harness outputs ---------------------------------------------

using Artifacts = std::vector<std::pair<std::string, std::string>>;

/// Pin `artifacts` byte for byte against the files in `dir`, or, when the
/// environment variable `out_env` names a directory, write them there
/// instead and skip.
void check_goldens(const Artifacts& artifacts, const std::filesystem::path& dir,
                   const char* out_env) {
    if (const char* out = std::getenv(out_env)) {
        for (const auto& [name, text] : artifacts) {
            std::ofstream(std::filesystem::path(out) / name, std::ios::binary) << text;
        }
        GTEST_SKIP() << "wrote " << artifacts.size() << " goldens to " << out;
    }
    for (const auto& [name, text] : artifacts) {
        ASSERT_TRUE(std::filesystem::exists(dir / name)) << "missing " << dir / name;
        std::ifstream in(dir / name, std::ios::binary);
        std::ostringstream committed;
        committed << in.rdbuf();
        EXPECT_EQ(text, committed.str()) << name;
    }
}

// The four outputs of `swsec matrix` (the table, --trace-out JSONL,
// --metrics-out JSON and --prom-out text) pinned against
// tests/golden/matrix/.  CI's serial-vs-jobs diffs compare a build with
// itself, so a change that moves a cell, a provenance field or a count on
// both sides would go unseen without them.  After an intended change,
// regenerate them with
//   SWSEC_MATRIX_GOLDEN_OUT=<dir> ./build/tests/test_matrix --gtest_filter='MatrixGolden.*'
// and review the diff.
TEST(MatrixGolden, TableTraceMetricsAndPromMatchCommitted) {
    const auto cells = swsec::core::run_matrix(1001, 2002, 2);
    const swsec::profile::Registry reg = swsec::core::matrix_metrics(cells);
    check_goldens({{"table.txt", swsec::core::format_matrix(cells)},
                   {"trace.jsonl", swsec::core::matrix_cells_jsonl(cells)},
                   {"metrics.json", reg.to_json()},
                   {"metrics.prom", reg.to_prometheus()}},
                  SWSEC_MATRIX_GOLDEN_DIR, "SWSEC_MATRIX_GOLDEN_OUT");
}

// The same four outputs of CI's `swsec fault-sweep --windows 2` (summary,
// per-cell JSONL with every window's event, metrics JSON and Prometheus
// text) pinned against
// tests/golden/fault-sweep/; regenerate with
//   SWSEC_FAULT_SWEEP_GOLDEN_OUT=<dir> ./build/tests/test_matrix --gtest_filter='FaultSweepGolden.*'
TEST(FaultSweepGolden, SummaryTraceMetricsAndPromMatchCommitted) {
    swsec::core::FaultSweepOptions opts;
    opts.windows_per_class = 2;
    opts.jobs = 2; // the report is byte-identical for any jobs value
    const swsec::core::FaultSweepReport report = swsec::core::run_fault_sweep(opts);
    const swsec::profile::Registry reg = swsec::core::fault_sweep_metrics(report);
    check_goldens({{"summary.txt", report.summary()},
                   {"trace.jsonl", report.cells_jsonl()},
                   {"metrics.json", reg.to_json()},
                   {"metrics.prom", reg.to_prometheus()}},
                  SWSEC_FAULT_SWEEP_GOLDEN_DIR, "SWSEC_FAULT_SWEEP_GOLDEN_OUT");
}
} // namespace
