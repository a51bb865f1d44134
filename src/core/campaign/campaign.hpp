// The crash-safe campaign driver: checkpoint/resume, work-stealing
// execution, and per-cell retry/timeout/quarantine.
//
// A campaign directory is the unit of durability:
//
//   manifest.json    spec + id, written atomically before any cell runs
//   campaign.jsonl   the write-ahead log (wal.hpp): one record per cell
//   report.jsonl     final merge, cell-index order  (written when complete)
//   quarantine.jsonl quarantined cells with repro coordinates   (ditto)
//   summary.txt      deterministic human summary                (ditto)
//
// `run_campaign` on a fresh directory writes the manifest and runs every
// cell; on a directory holding the same spec (by id) it behaves exactly
// like `resume_campaign`: completed cells are skipped, a damaged WAL
// suffix is truncated away, and only the missing cells execute.  Because
// every cell is deterministic and the merge is keyed by cell index, the
// final report.jsonl after any number of kill -9 / resume cycles is
// byte-identical to the uninterrupted run's.
//
// Degradation instead of abort: each cell gets `max_attempts` tries with
// exponential backoff.  An attempt that exceeds the wall-clock deadline
// raises a timeout; an attempt that throws is a crash.  A cell that
// exhausts its attempts is quarantined — recorded with its repro
// coordinates and the last failure detail — and the campaign completes
// around it.  Real cells are already bounded by the VM's own step
// watchdog; the wall-clock deadline is the outer line of defense for the
// case where that in-VM watchdog is disabled (exercised by the hang_cell
// sabotage, which runs a genuine in-VM infinite loop in step-budget
// slices under the deadline).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign/spec.hpp"
#include "core/campaign/wal.hpp"
#include "core/parallel.hpp"
#include "profile/metrics.hpp"

namespace swsec::campaign {

struct Options {
    int jobs = 1;                 // work-stealing workers; 0 = hardware threads
    std::uint64_t cell_timeout_ms = 30'000; // per-attempt wall-clock deadline
    unsigned max_attempts = 2;    // tries per cell before quarantine
    std::uint64_t retry_backoff_ms = 10; // first retry's sleep; doubles per retry
    int fsync_every = 1;          // WAL fsync cadence (see WalWriter)
    /// Stop after this many cells have been executed *this run* (0 = no
    /// cap).  Deterministic — the kept cells are the lowest-indexed
    /// remaining ones — so tests can interrupt a campaign at an exact
    /// checkpoint boundary without signals.
    std::uint64_t max_cells = 0;
    /// Live telemetry cadence: every `heartbeat_ms`, append one
    /// `swsec-progress-v1` record (cells accounted, EWMA cells/s, ETA) to
    /// `<dir>/progress.jsonl`, rewritten as an atomic whole-file snapshot
    /// so a tail never sees a torn line.  0 disables the heartbeat thread;
    /// a final record is still appended at completion when enabled.
    std::uint64_t heartbeat_ms = 0;
    /// When non-empty: write the Prometheus exposition of the live metrics
    /// registry (volatile series included — this is telemetry, not a CI
    /// artifact) to this path atomically at each heartbeat.
    std::string prom_out;
};

struct Report {
    std::string id;
    Kind kind = Kind::Matrix;
    std::uint64_t cells_total = 0;
    std::uint64_t cells_completed = 0;   // Done records in the WAL (all runs)
    std::uint64_t cells_quarantined = 0; // Quarantined records (all runs)
    std::uint64_t cells_resumed = 0;     // records already present at start
    std::uint64_t cells_run = 0;         // cells executed by this run
    std::uint64_t retries = 0;           // extra attempts this run
    std::uint64_t timeouts = 0;          // attempts that hit the deadline
    std::uint64_t wal_lines_dropped = 0; // damaged suffix truncated at open
    double elapsed_sec = 0.0;            // this run, wall clock
    core::ParallelStats sched;           // this run's scheduler stats
    std::vector<WalRecord> quarantined;  // cell-index order
    /// Histograms gathered while the run executed (per-cell wall time and
    /// attempts, per-worker chunk/steal depth) — all Volatile, folded into
    /// campaign_metrics().
    profile::Registry metrics;

    /// Every cell accounted for (done or quarantined) — the final merge
    /// artifacts exist iff this holds.
    [[nodiscard]] bool complete() const noexcept {
        return cells_completed + cells_quarantined == cells_total;
    }
    /// Deterministic summary (no timings, no schedule-dependent numbers):
    /// identical across serial/parallel/interrupted-and-resumed runs.
    [[nodiscard]] std::string summary() const;
};

/// Run (or transparently resume) `spec` in `dir`.  Creates the directory.
/// Throws swsec::Error if `dir` already holds a *different* campaign.
[[nodiscard]] Report run_campaign(const Spec& spec, const std::string& dir,
                                  const Options& opts = {});

/// Resume the campaign recorded in `dir`'s manifest.  Throws swsec::Error
/// if there is no manifest, or if it was edited (read_manifest).
[[nodiscard]] Report resume_campaign(const std::string& dir, const Options& opts = {});

/// Parse `dir`'s manifest back into a Spec.  Throws if it is absent or
/// malformed, or if its stored id is not its spec's (an edited manifest).
[[nodiscard]] Spec read_manifest(const std::string& dir);

/// Non-destructive progress probe: reads manifest + WAL, runs nothing,
/// truncates nothing.
struct Status {
    bool exists = false;
    std::string id;
    Kind kind = Kind::Matrix;
    std::uint64_t cells_total = 0;
    std::uint64_t cells_completed = 0;
    std::uint64_t cells_quarantined = 0;
    std::uint64_t quarantined_timeout = 0; // quarantine breakdown by reason
    std::uint64_t quarantined_crash = 0;
    bool wal_truncated = false;       // a damaged suffix is present
    std::size_t wal_lines_dropped = 0;
    /// Last swsec-progress-v1 record from <dir>/progress.jsonl, if any.
    bool heartbeat = false;
    std::uint64_t hb_seq = 0;
    double hb_elapsed_sec = 0.0;
    double hb_cells_per_sec = 0.0; // EWMA; 0 when the run had no throughput yet
    double hb_eta_sec = -1.0;      // negative = unknown (no rate established)

    [[nodiscard]] bool complete() const noexcept {
        return exists && cells_completed + cells_quarantined == cells_total;
    }
    [[nodiscard]] std::string to_string() const;
};
[[nodiscard]] Status campaign_status(const std::string& dir);

/// Metrics registry for a finished run (labels: harness=campaign,
/// kind=<kind>).  Lattice-derived totals are deterministic; everything
/// that depends on crash history or scheduling (resumes, retries, steals,
/// throughput) is Volatile and excluded from CI-diffed exports.
[[nodiscard]] profile::Registry campaign_metrics(const Report& r);

} // namespace swsec::campaign
