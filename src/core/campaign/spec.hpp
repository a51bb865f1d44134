// Campaign specifications: the durable identity of a long-running sweep.
//
// A campaign is a finite lattice of share-nothing cells (matrix draws,
// fault-sweep cells or fuzz seeds) executed under checkpoint/resume.  The
// Spec is everything needed to re-derive any cell from scratch — kind,
// lattice shape and seeds — serialized canonically so that its SHA-256
// names the campaign: a resume against a directory whose manifest hashes
// differently is refused rather than silently merged.
//
// Sabotage knobs mirror the repo's fault-injection philosophy: the crash
// and hang failure modes the driver must survive are themselves seeded,
// deterministic spec fields, so the recovery machinery is exercised by
// ordinary tests and CI rather than by hope.
#pragma once

#include <cstdint>
#include <string>

namespace swsec::campaign {

enum class Kind : std::uint8_t {
    Matrix,     // attack x defense matrix, Monte-Carlo over seed draws
    FaultSweep, // exploit-mitigation fault sweep, one cell per attack x defense
    Fuzz,       // differential fuzzing, one cell per generator seed
    FuzzEvolve, // evolutionary fuzzing, one independent island per cell
};

[[nodiscard]] const char* kind_name(Kind k) noexcept;
/// Inverse of kind_name; returns false on an unknown name.
bool kind_from_name(const std::string& name, Kind& out) noexcept;

/// Deterministic failure injection into the *driver* (not the VM): the
/// designated cell misbehaves so retry/quarantine paths are testable.
struct Sabotage {
    std::int64_t hang_cell = -1;  // this cell runs an in-VM infinite loop
                                  // with the step watchdog disabled (-1 = none)
    std::int64_t crash_cell = -1; // this cell throws on its first attempts
    int crash_times = 2;          // how many attempts of crash_cell throw
};

struct Spec {
    Kind kind = Kind::Matrix;

    // Matrix: draws independent (victim_seed + d, attacker_seed + d) runs
    // of the full attack x defense lattice.
    std::uint64_t victim_seed = 1001;
    std::uint64_t attacker_seed = 2002;
    int draws = 1;

    // FaultSweep: the exploit-mitigation half only — the statecont liveness
    // sweep is one indivisible lattice, not a per-cell workload, and stays
    // with `swsec fault-sweep`.
    std::uint64_t fault_seed = 4242;
    int windows_per_class = 2;

    // Fuzz: seeds are seed_base .. seed_base + seeds - 1, one cell each.
    std::uint64_t seed_base = 1;
    int seeds = 100;

    // FuzzEvolve: each cell is one independent evolutionary island (seed
    // seed_base + cell) running `evolve_execs` mutated executions over an
    // initial population of `evolve_init` generated programs.  Islands are
    // share-nothing, so the campaign scheduler's checkpoint/resume and
    // quarantine machinery applies per island.
    int evolve_execs = 64;
    int evolve_init = 16;

    Sabotage sabotage;

    /// Total cells in the lattice for this kind.
    [[nodiscard]] std::uint64_t cell_count() const;

    /// Canonical JSON (fixed field order, every field present) — the byte
    /// string that is hashed into the campaign id.
    [[nodiscard]] std::string to_json() const;

    /// Parse a spec serialized by to_json().  Throws swsec::Error on a
    /// malformed document, a number that does not fit its field, or a spec
    /// validate() rejects.
    [[nodiscard]] static Spec from_json(const std::string& json);

    /// Throws swsec::Error unless every count (draws, seeds,
    /// windows_per_class, evolve_execs, evolve_init, crash_times) is
    /// non-negative and each sabotage cell is a cell index or -1.
    void validate() const;

    /// Campaign id: first 16 hex chars of SHA-256(to_json()).
    [[nodiscard]] std::string id() const;

    /// Repro coordinates of one cell as a JSON object ("which attack,
    /// which defense, which seed") — attached to quarantine records so a
    /// quarantined cell can be re-run in isolation.
    [[nodiscard]] std::string cell_coords_json(std::uint64_t cell) const;
};

} // namespace swsec::campaign
