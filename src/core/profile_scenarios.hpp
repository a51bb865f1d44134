// Named profiling scenarios for `swsec profile`: the attack scenarios of
// `swsec trace` re-run with the exact PC/edge profiler attached to the victim,
// producing hot-block tables, per-source-line heat, flamegraph-folded
// stacks and an annotated disassembly — all symbolized through the debug
// line table the compiler now emits (DESIGN.md §11).
//
// The profiler observes the architectural event stream, so a scenario's
// report is exactly as deterministic as the run: same seeds, same counts,
// bit for bit, decode cache on or off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/attack_lab.hpp"
#include "profile/report.hpp"

namespace swsec::core {

struct ProfileScenarioOptions {
    std::uint64_t victim_seed = 1001;
    std::uint64_t attacker_seed = 2002;
    /// Shadow-stack sample interval in retired instructions (0 disables
    /// folded-stack sampling; exact PC/edge counts are unaffected).
    std::uint64_t sample_interval = 97;
};

struct ProfileRun {
    std::string scenario;
    AttackOutcome outcome;            // full trap provenance of the victim
    profile::ProfileReport report;    // symbolized profile of the victim run
};

/// Scenario names accepted by run_profile_scenario, in display order: the
/// attack scenarios `swsec trace` runs too (pma/sfi build no attack-lab
/// process, so there is nothing to profile).
[[nodiscard]] const std::vector<std::string>& profile_scenario_names();

/// Run one named scenario with a profiler attached to the victim.  Throws
/// Error for unknown names.
[[nodiscard]] ProfileRun run_profile_scenario(const std::string& name,
                                              const ProfileScenarioOptions& opts = {});

} // namespace swsec::core
