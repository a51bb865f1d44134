// Parallel sweep engine tests: parallel_for's contract (every index exactly
// once, exceptions propagate, serial path spawns no threads) and the
// determinism guarantee the sweeps build on it — `--jobs N` must produce
// results cell-for-cell and byte-for-byte identical to serial.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/fault_sweep.hpp"
#include "core/matrix.hpp"
#include "core/parallel.hpp"

namespace {

using namespace swsec::core;

// --- parallel_for ------------------------------------------------------------

TEST(ParallelFor, EveryIndexExactlyOnce) {
    for (const int jobs : {1, 2, 4, 0}) {
        std::vector<std::atomic<int>> hits(257);
        parallel_for(hits.size(), jobs, [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < hits.size(); ++i) {
            EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
        }
    }
}

TEST(ParallelFor, EmptyAndSingle) {
    int calls = 0;
    parallel_for(0, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallel_for(1, 4, [&](std::size_t i) {
        ++calls;
        EXPECT_EQ(i, 0u);
    });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, ExceptionPropagates) {
    for (const int jobs : {1, 4}) {
        EXPECT_THROW(
            parallel_for(64, jobs,
                         [&](std::size_t i) {
                             if (i == 37) {
                                 throw std::runtime_error("boom");
                             }
                         }),
            std::runtime_error)
            << "jobs=" << jobs;
    }
}

TEST(ParallelFor, ResolveJobs) {
    EXPECT_EQ(resolve_jobs(1), 1);
    EXPECT_EQ(resolve_jobs(7), 7);
    EXPECT_GE(resolve_jobs(0), 1);  // hardware concurrency, at least one
    EXPECT_GE(resolve_jobs(-3), 1);
}

// --- work stealing -----------------------------------------------------------

TEST(ParallelForWs, EveryIndexOnceAcrossGrains) {
    for (const int jobs : {1, 2, 4}) {
        for (const std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                        std::size_t{1000}}) {
            std::vector<std::atomic<int>> hits(193);
            ParallelStats stats;
            ParallelOptions opts;
            opts.jobs = jobs;
            opts.grain = grain;
            opts.stats = &stats;
            parallel_for_ws(hits.size(), opts, [&](std::size_t i) { ++hits[i]; });
            for (std::size_t i = 0; i < hits.size(); ++i) {
                ASSERT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " grain=" << grain;
            }
            EXPECT_GE(stats.chunks, 1u);
        }
    }
}

TEST(ParallelForWs, SerialPathReportsOneChunk) {
    ParallelStats stats;
    ParallelOptions opts;
    opts.jobs = 1;
    opts.stats = &stats;
    int calls = 0;
    parallel_for_ws(64, opts, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 64);
    EXPECT_EQ(stats.chunks, 1u);
    EXPECT_EQ(stats.steals, 0u);
    // Serial runs report one worker slot so per-worker depth histograms see
    // a single well-defined observation.
    ASSERT_EQ(stats.worker_chunks, (std::vector<std::uint64_t>{1}));
    ASSERT_EQ(stats.worker_steals, (std::vector<std::uint64_t>{0}));
}

TEST(ParallelForWs, PerWorkerTalliesSumToTotals) {
    ParallelStats stats;
    ParallelOptions opts;
    opts.jobs = 4;
    opts.grain = 2; // 32 chunks over 4 workers
    opts.stats = &stats;
    std::atomic<int> calls{0};
    parallel_for_ws(64, opts, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 64);
    ASSERT_EQ(stats.worker_chunks.size(), 4u);
    ASSERT_EQ(stats.worker_steals.size(), 4u);
    std::uint64_t chunk_sum = 0;
    std::uint64_t steal_sum = 0;
    for (std::size_t w = 0; w < stats.worker_chunks.size(); ++w) {
        chunk_sum += stats.worker_chunks[w];
        steal_sum += stats.worker_steals[w];
        EXPECT_LE(stats.worker_steals[w], stats.worker_chunks[w]);
    }
    EXPECT_EQ(chunk_sum, stats.chunks);
    EXPECT_EQ(steal_sum, stats.steals);
}

TEST(ParallelForWs, ChunkCountMatchesGrain) {
    // grain 4 over 64 indices = 16 chunks, however they get scheduled.
    ParallelStats stats;
    ParallelOptions opts;
    opts.jobs = 2;
    opts.grain = 4;
    opts.stats = &stats;
    std::atomic<int> calls{0};
    parallel_for_ws(64, opts, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 64);
    EXPECT_EQ(stats.chunks, 16u);
}

TEST(ParallelForWs, UnevenCellCostsStillVisitEverything) {
    // One chunk ~100x the others: stealing (or not) must never change the
    // computed results, only who computes them.
    for (const int jobs : {2, 4}) {
        std::vector<std::atomic<std::uint64_t>> out(96);
        ParallelOptions opts;
        opts.jobs = jobs;
        opts.grain = 1;
        parallel_for_ws(out.size(), opts, [&](std::size_t i) {
            std::uint64_t acc = i;
            const int spins = (i == 0) ? 200000 : 2000;
            for (int s = 0; s < spins; ++s) {
                acc = acc * 6364136223846793005ull + 1442695040888963407ull;
            }
            out[i] = acc;
        });
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_NE(out[i].load(), 0u) << "i=" << i;
        }
    }
}

// --- deterministic parallel sweeps -------------------------------------------

void expect_same_cells(const std::vector<MatrixCell>& a, const std::vector<MatrixCell>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].attack, b[i].attack) << "cell " << i;
        EXPECT_EQ(a[i].defense, b[i].defense) << "cell " << i;
        EXPECT_EQ(a[i].outcome.succeeded, b[i].outcome.succeeded) << "cell " << i;
        EXPECT_EQ(a[i].outcome.trap.kind, b[i].outcome.trap.kind) << "cell " << i;
        EXPECT_EQ(a[i].outcome.trap.ip, b[i].outcome.trap.ip) << "cell " << i;
        EXPECT_EQ(a[i].outcome.stats.instructions, b[i].outcome.stats.instructions)
            << "cell " << i;
        EXPECT_EQ(a[i].outcome.note, b[i].outcome.note) << "cell " << i;
    }
}

TEST(ParallelMatrix, JobsProduceIdenticalCells) {
    const std::uint64_t seeds[][2] = {{1001, 2002}, {7, 13}, {0xdeadbeef, 0xfeedface}};
    for (const auto& s : seeds) {
        const auto serial = run_matrix(s[0], s[1], 1);
        const auto parallel4 = run_matrix(s[0], s[1], 4);
        expect_same_cells(serial, parallel4);
        EXPECT_EQ(format_matrix(serial), format_matrix(parallel4));
    }
}

TEST(ParallelFaultSweep, JobsProduceIdenticalReport) {
    FaultSweepOptions serial_opts;
    serial_opts.windows_per_class = 2;
    FaultSweepOptions par_opts = serial_opts;
    par_opts.jobs = 4;

    const auto a = run_fault_sweep(serial_opts);
    const auto b = run_fault_sweep(par_opts);
    EXPECT_EQ(a.cells, b.cells);
    EXPECT_EQ(a.baseline_blocked, b.baseline_blocked);
    EXPECT_EQ(a.baseline_success, b.baseline_success);
    ASSERT_EQ(a.tallies.size(), b.tallies.size());
    for (std::size_t i = 0; i < a.tallies.size(); ++i) {
        EXPECT_EQ(a.tallies[i].windows, b.tallies[i].windows);
        EXPECT_EQ(a.tallies[i].power_cut, b.tallies[i].power_cut);
        EXPECT_EQ(a.tallies[i].still_blocked, b.tallies[i].still_blocked);
        EXPECT_EQ(a.tallies[i].fail_open, b.tallies[i].fail_open);
    }
    ASSERT_EQ(a.violations.size(), b.violations.size());
    for (std::size_t i = 0; i < a.violations.size(); ++i) {
        EXPECT_EQ(a.violations[i].to_string(), b.violations[i].to_string());
    }
    // The rendered report — tallies, violation order, statecont — must be
    // byte-identical.
    EXPECT_EQ(a.summary(), b.summary());
}

TEST(ParallelStatecont, JobsProduceIdenticalSweep) {
    const auto a = run_statecont_fault_sweep(9, 1);
    const auto b = run_statecont_fault_sweep(9, 4);
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.crashes, b.crashes);
    EXPECT_EQ(a.violations, b.violations);
}

} // namespace
