// Coverage-guided evolutionary fuzzing: the loop that closes PR5's
// measurement into a flywheel.
//
// PR4 generated programs from independent seeds; PR5 measured which seeds
// lit new coverage buckets and kept them as a corpus — but nothing ever
// *used* the corpus.  This stage does: each round it picks parents from the
// corpus (weighted by how many new buckets they contributed), derives
// children by model-level havoc and two-parent splice (fuzz/mutate.hpp — the
// operators cannot express an invalid program), evaluates the children
// share-nothing in parallel, and merges results serially in slot order.
// The schedule is therefore a pure function of the master seed: a --jobs N
// run produces byte-identical reports, corpora and curves.
//
// Each evaluation is one check_program call: the coverage that schedules
// the corpus is folded from the traced baseline run the engine oracle
// already makes, so an exec costs the oracles' 14 runs and no more, and
// each program is compiled by the oracles' own per-program memo (never
// through the machine-wide image cache, which holds scenario images only).
//
// Every divergence the oracles raise is auto-triaged: the deviating
// configuration (resolve_config) is compiled afresh and re-run with a
// profiler attached, the final trap's provenance (kind + CheckOrigin) and
// the shadow call stack are symbolized through the image's line table, and
// the resulting "func:line" stack is the dedup key — ten thousand
// executions of the same bug yield one crash record (with a hit count),
// exactly the triage discipline AFL-style fuzzers need to stay readable at
// campaign scale.  Each unique crash carries its representative Divergence,
// so it exports as a standard repro-v1 record for tests/fuzz_corpus/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/defense.hpp"
#include "fuzz/fuzz.hpp"
#include "fuzz/mutate.hpp"

namespace swsec::fuzz {

struct EvolveOptions {
    std::uint64_t seed = 1;        // master seed: the whole run is a function of it
    int init_programs = 32;        // round-0 population (generator-distribution models)
    int execs = 256;               // total program-evaluation budget (includes round 0)
    int batch = 32;                // children bred per round
    int jobs = 1;                  // core/parallel workers; 0 = hardware threads
    std::size_t max_corpus = 256;  // corpus admission cap
};

/// One unique crash/divergence after triage-dedup.
struct CrashRecord {
    Divergence div;                  // first representative (replayable)
    std::string key;                 // oracle|config|trap|origin|stack dedup key
    std::vector<std::string> frames; // symbolized stack, outermost first, trap site last
    std::uint64_t hits = 1;          // how many executions reached this key
};

/// How to re-run one side of a divergence.  Oracle config names are either
/// a standard defense name, a defense name with check_program's engine
/// suffix, the ConstFold pair ("fold"/"runtime" — the baseline run), or
/// "<compile>" (no run exists, so not runnable).  "+dcache" and "+tier2"
/// resolve to the defense as it stands; "-dcache" and "+tier1" to the
/// defense with the decode cache off, the engine oracle's reference run.
struct RunConfig {
    bool runnable = false;
    core::Defense defense;
};
[[nodiscard]] RunConfig resolve_config(const std::string& name);

/// Triage one divergence: re-run the deviating configuration with a
/// profiler, symbolize the trap site and shadow stack, and derive the dedup
/// key.  Deterministic: triaging the same divergence twice yields the same
/// key (the dedup-idempotence property the tests lock).
struct TriageResult {
    std::string key;
    std::vector<std::string> frames;
    std::string trap; // "trapname/origin" of the deviating run
};
[[nodiscard]] TriageResult triage_divergence(const Divergence& d, std::uint64_t max_steps);

struct EvolveReport {
    std::uint64_t seed = 0;
    int execs = 0;                  // programs evaluated (capped by the budget)
    int rounds = 0;                 // breeding rounds (round 0 = init population)
    std::uint64_t runs = 0;         // underlying process executions
    int corpus_size = 0;            // admitted corpus entries
    std::uint64_t total_buckets = 0;
    /// Cumulative covered buckets after each evaluation, in slot order.
    /// Monotone by construction and byte-identical for any jobs value.
    std::vector<std::uint64_t> curve;
    std::uint64_t divergences_total = 0; // pre-dedup oracle divergences
    std::vector<CrashRecord> crashes;    // unique, in discovery order

    [[nodiscard]] std::string summary() const;
    /// Single-line deterministic JSON (the campaign cell payload).  The
    /// curve is thinned to at most 32 evenly spaced points (last always
    /// included) so payloads stay bounded at any budget.
    [[nodiscard]] std::string to_json() const;
    /// One "exec,cumulative" line per evaluation (CSV header included): the
    /// full curve, which `swsec evolve --curve-out` writes.
    [[nodiscard]] std::string curve_csv() const;
};

/// Run the evolutionary stage.  Deterministic: (opts.seed, init_programs,
/// execs, batch, max_corpus) fully determine the report; jobs only changes
/// wall-clock time.
[[nodiscard]] EvolveReport run_evolve(const EvolveOptions& opts);

/// swsec-metrics-v1 export of an evolve report: execution, round, run,
/// divergence and unique-crash totals, corpus size and covered buckets.
[[nodiscard]] profile::Registry evolve_metrics(const EvolveReport& report);

} // namespace swsec::fuzz
