// Named observability scenarios for `swsec trace`: one per countermeasure,
// each running an attack against exactly the defense built to stop it and
// capturing the victim's full event trace with trap provenance.
//
// These are the demonstration half of the trace layer (DESIGN.md §8): the
// JSONL answers *why* the run ended — which check fired (origin), in which
// module, kernel or user mode — not just which trap kind.  They double as
// the equivalence oracles of tests/test_trace.cpp: every scenario must emit
// byte-identical JSONL with the decode cache on or off, and re-running with
// the same seeds must reproduce the trace bit for bit (including under
// injected faults).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/attack_lab.hpp"
#include "trace/trace.hpp"

namespace swsec::core {

struct TraceScenarioOptions {
    bool decode_cache = true; // off must not change the event stream
    std::uint64_t victim_seed = 1001;
    std::uint64_t attacker_seed = 2002;
};

/// Result of one traced scenario run.
struct TraceRun {
    std::string scenario;
    /// Victim outcome with full trap provenance.  For the static "sfi"
    /// scenario no machine runs: trap.kind stays None and origin carries
    /// the verifier attribution.
    AttackOutcome outcome;
    std::string events_jsonl;  // the victim's event stream, one JSON per line
    trace::Counters counters;  // aggregate tallies (NOT part of the stream)
};

/// Scenario names accepted by run_trace_scenario, in display order: the
/// attack scenarios (profile_scenario_names()), then the two platform
/// scenarios pma and sfi.
[[nodiscard]] const std::vector<std::string>& trace_scenario_names();

/// Run one named scenario.  Throws Error for unknown names.
[[nodiscard]] TraceRun run_trace_scenario(const std::string& name,
                                          const TraceScenarioOptions& opts = {});

} // namespace swsec::core
