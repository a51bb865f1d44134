// The attack/defense matrix — the paper's central claims as one experiment.
//
// For every attack technique of Section III-B and every countermeasure
// configuration of Section III-C, run the attack and record whether it
// succeeded or which trap stopped it.  bench/bench_attack_matrix.cpp prints
// this table; tests/test_matrix.cpp pins every cell to the paper's claims.
#pragma once

#include <string>
#include <vector>

#include "core/attack_lab.hpp"
#include "core/defense.hpp"
#include "profile/metrics.hpp"

namespace swsec::core {

struct MatrixCell {
    AttackKind attack;
    std::string defense;
    AttackOutcome outcome;
};

/// Run the full matrix.  Deterministic given the seeds — including under
/// `jobs` > 1: cells are share-nothing (each worker builds its own Machine
/// and Process), handed out by index and merged by index, so the parallel
/// result is cell-for-cell identical to the serial one.  jobs == 0 means
/// one worker per hardware thread.
[[nodiscard]] std::vector<MatrixCell> run_matrix(std::uint64_t victim_seed = 1001,
                                                 std::uint64_t attacker_seed = 2002,
                                                 int jobs = 1);

/// Render as an aligned text table ("yes" = attack succeeded, otherwise the
/// trap that stopped it).
[[nodiscard]] std::string format_matrix(const std::vector<MatrixCell>& cells);

/// One JSONL line per cell carrying the full trap provenance: which check
/// fired (origin), in which module, kernel or user mode, at which ip/addr —
/// i.e. *why* the cell passed or failed, not just the trap kind.  Raw
/// ip/addr are only meaningful relative to the victim's load bias, so each
/// line also carries `text_base`, the text-relative `ip_off` and the
/// symbolized `sym` ("function:line"), which *are* comparable across two
/// ASLR draws.  Cells are emitted in input order, so a serial and a
/// `--jobs N` sweep (which merges by index) serialise byte-identically.
[[nodiscard]] std::string matrix_cells_jsonl(const std::vector<MatrixCell>& cells);

/// One cell of the above as a single JSON object (no trailing newline) —
/// the unit the campaign write-ahead log checkpoints.  matrix_cells_jsonl
/// is exactly these objects joined by newlines, so a campaign-merged report
/// is byte-identical to a monolithic sweep's.
[[nodiscard]] std::string matrix_cell_json(const MatrixCell& cell);

/// Aggregate the cells' deterministic platform tallies into a metrics
/// registry (labels: harness=matrix): attack verdict counts, victim
/// instructions, decode-cache hits/decodes, syscall retries, injected I/O
/// faults, sbrk traffic and the heap high-water mark.  Aggregation runs in
/// cell-index order over per-cell deterministic numbers, so the JSON export
/// is byte-identical for any jobs value.  The machine-wide image-cache hit
/// count is added as a Volatile gauge (schedule-dependent; excluded from
/// the default export).
[[nodiscard]] profile::Registry matrix_metrics(const std::vector<MatrixCell>& cells);

/// Fold the per-victim platform tallies of `cells` into `reg` under `base`
/// (instructions, decode cache, syscall retries, injected I/O faults, sbrk,
/// heap high water, tier-2 dispatch), plus the Volatile image-cache gauges.
/// matrix_metrics and fault_sweep_metrics both export these series.
void add_victim_metrics(profile::Registry& reg, const profile::Labels& base,
                        const std::vector<MatrixCell>& cells);

} // namespace swsec::core
