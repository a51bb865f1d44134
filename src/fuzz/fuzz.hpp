// Differential semantics-preservation fuzzing (the correctness-tooling lane).
//
// The paper's security objective is that compiled code behaves as the
// source specifies — so every countermeasure must be behaviour-preserving
// for benign programs, and the compiler must agree with the machine about
// what the source means.  This harness makes that executable.  For every
// seeded, valid-by-construction MiniC program (fuzz/generator.hpp) it runs
// three oracles:
//
//  * Defense   — run under every benign standard_defenses() configuration;
//                observable output (fd-1 bytes + final trap) must be
//                byte-identical to the unprotected baseline.  This is
//                Juglaret et al.'s compartmentalizing-compilation property
//                specialised to the deployed countermeasures.
//  * Engine    — re-run with the decode cache off, demanding the identical
//                observable output *and* an identical event trace (the
//                PR2/PR3 equivalence oracles): the execution engine's fast
//                paths must not create a weird machine of their own.
//  * ConstFold — each program embeds global initialisers (folded at compile
//                time by cc::fold_constant_expr) re-computed at run time by
//                the VM's ALU; a FOLD-MISMATCH marker in the output means
//                compile-time and run-time semantics disagree — the
//                fold_const family of bugs.
//
// Every divergence carries a repro record (seed, config pair, both outputs,
// source) and can be greedily minimized at statement granularity; records
// round-trip through a text format so each one becomes a committed
// regression case replayed by ctest.  The driver fans seeds out over
// core/parallel with an index-ordered merge: a --jobs N report is
// byte-identical to the serial one.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "os/process.hpp"
#include "profile/metrics.hpp"
#include "trace/trace.hpp"

namespace swsec::fuzz {

enum class Oracle : std::uint8_t {
    Defense,   // countermeasure configs must preserve benign behaviour
    Engine,    // decode-cache on/off must be observationally identical
    ConstFold, // compile-time folding must agree with run-time evaluation
};

[[nodiscard]] const char* oracle_name(Oracle o) noexcept;
/// Inverse of oracle_name; returns false on an unknown name.
bool oracle_from_name(const std::string& name, Oracle& out) noexcept;

/// One observed disagreement, self-contained enough to replay: re-checking
/// `source` under the named config pair must reproduce (or, once fixed,
/// refute) the divergence.
struct Divergence {
    std::uint64_t seed = 0;
    Oracle oracle = Oracle::Defense;
    std::string config_a;
    std::string config_b;
    std::string output_a;
    std::string output_b;
    std::string source;

    bool operator==(const Divergence&) const = default;
};

/// The watchdog budget of every fuzz, evolve and fuzz-campaign run.
inline constexpr std::uint64_t kMaxSteps = 20'000'000;

struct FuzzOptions {
    std::uint64_t seed_base = 1; // seeds are seed_base .. seed_base + seeds - 1
    int seeds = 100;
    int jobs = 1;           // core/parallel workers; 0 = one per hardware thread
    bool minimize = false;  // greedily minimize each divergence's source
    /// Collect per-seed edge coverage (folded from check_program's traced
    /// baseline run) and report the cumulative curve; seeds that light new
    /// edges are chunk-prioritized into a corpus.  Per-seed bitmaps are
    /// filled in the parallel phase, the cumulative merge runs serially in
    /// seed order, so the curve is byte-identical for any jobs value.
    bool coverage = false;
};

/// Cumulative edge-coverage accounting of a --coverage campaign.
struct CoverageReport {
    bool enabled = false;
    std::uint64_t total_edges = 0;         // distinct buckets after the last seed
    std::vector<std::uint32_t> new_edges;  // per seed: buckets newly covered
    std::vector<std::uint64_t> cumulative; // per seed: running bucket count (monotone)

    /// A seed that reached edges no earlier seed reached, with the minimal
    /// chunk subset of its generated program that still reaches one of
    /// them — the corpus entry worth keeping/mutating further.
    struct InterestingSeed {
        std::uint64_t seed = 0;
        std::uint32_t new_buckets = 0;
        std::vector<std::size_t> chunks; // indices into GenProgram::chunks
    };
    std::vector<InterestingSeed> interesting;

    /// One "index,seed,new_edges,cumulative" line per seed (CSV header
    /// included) — the full curve for plotting.
    [[nodiscard]] std::string curve_csv(std::uint64_t seed_base) const;
};

struct FuzzReport {
    int programs = 0;
    std::uint64_t runs = 0;         // differential process executions
    std::uint64_t const_checks = 0; // fold-vs-runtime probes evaluated
    /// The sum of every run's os::Process::stats(), traced or not.
    os::RunStats stats;
    /// Per-seed differential executions, in seed order (one entry per
    /// generated program; empty for replay runs).  Feeds the
    /// fuzz_seed_runs histogram — the distribution shows which seeds
    /// tripped extra oracle re-runs, where the totals above cannot.
    std::vector<std::uint64_t> seed_runs;
    /// Fixpoint rounds per minimized divergence, in seed order (only
    /// populated under --minimize).  Feeds fuzz_minimizer_rounds.
    std::vector<std::uint64_t> minimizer_rounds;
    /// Seed order, deterministic for any jobs value.
    std::vector<Divergence> divergences;
    /// Populated when FuzzOptions::coverage was set.
    CoverageReport coverage;

    [[nodiscard]] bool clean() const noexcept { return divergences.empty(); }
    [[nodiscard]] std::string summary() const;
};

/// Run all three oracles against one program.  `stats` (optional)
/// accumulates runs, const_checks and every run's stats.  `coverage`
/// (optional) receives the edges of the baseline (undefended) run, which
/// the engine oracle traces anyway, windowed to the text segment so the
/// bits are ASLR-draw-independent and exclude injected/stack code; it
/// costs no run.
/// Deterministic given (source, seed, max_steps).
[[nodiscard]] std::vector<Divergence> check_program(const std::string& source, std::uint64_t seed,
                                                    std::uint64_t max_steps,
                                                    FuzzReport* stats = nullptr,
                                                    trace::CoverageBitmap* coverage = nullptr);

/// The seeded campaign: generate opts.seeds programs, check each, merge
/// results in seed order (byte-identical for any jobs value).
[[nodiscard]] FuzzReport run_fuzz(const FuzzOptions& opts);

/// Greedy statement-level minimizer: repeatedly drop chunks whose removal
/// keeps `still_diverges(rendered_source)` true, to a fixpoint.  The result
/// is idempotent: minimizing a minimized program removes nothing.
/// `rounds_out` (optional) receives the number of full passes over the
/// chunk list, including the final no-change pass that proves the fixpoint.
[[nodiscard]] GenProgram minimize(const GenProgram& prog,
                                  const std::function<bool(const std::string&)>& still_diverges,
                                  std::uint64_t* rounds_out = nullptr);

/// The campaign's metrics registry: the fuzz totals, the platform series of
/// the runs' summed stats (core::add_platform_metrics) and the per-seed
/// execution-count and minimizer-rounds histograms.  Deterministic
/// given the report (which is itself jobs-invariant).
[[nodiscard]] profile::Registry fuzz_metrics(const FuzzReport& report);

// ---- repro records ------------------------------------------------------
// A text format for committing divergences as regression cases.  One file
// may hold several records; parse(to_repro(d)) == d.

[[nodiscard]] std::string to_repro(const Divergence& d);
[[nodiscard]] std::string to_repro_file(const std::vector<Divergence>& ds);
/// Throws swsec::Error on a malformed record.
[[nodiscard]] Divergence parse_repro(const std::string& text);
[[nodiscard]] std::vector<Divergence> parse_repro_file(const std::string& text);

/// Replay each record's source through check_program; returns the
/// divergences observed *now* (empty means every recorded bug stays fixed).
[[nodiscard]] std::vector<Divergence> replay_repros(const std::vector<Divergence>& records,
                                                    std::uint64_t max_steps = kMaxSteps,
                                                    FuzzReport* stats = nullptr);

} // namespace swsec::fuzz
