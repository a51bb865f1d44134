// Experiments FUZZ and EVOLVE/CURVES: the fuzzer's mutation engine, its
// coverage-guided stage and the defense-curve runner (DESIGN.md §10, §14).
// The seeded fuzz campaign's programs/s is the harness benchmark's `fuzz`
// workload (harnessbench/): one fresh program per cell through all three
// oracles.
//
// BM_EvolveMutationThroughput prices the model-level mutation engine alone
// (havoc + splice + render, no execution); BM_EvolveStage prices the whole
// coverage-guided loop per program; BM_CurveTrials prices the Monte-Carlo
// defense-curve runner in trials/s — the number that sizes a 10^6-trial
// sweep.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/curves.hpp"
#include "fuzz/evolve.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/mutate.hpp"

namespace {

using namespace swsec;

void BM_EvolveMutationThroughput(benchmark::State& state) {
    const fuzz::ProgramModel a = fuzz::generate_model(1);
    const fuzz::ProgramModel b = fuzz::generate_model(2);
    Rng rng(42);
    std::uint64_t children = 0;
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        const fuzz::ProgramModel h = fuzz::havoc(a, rng);
        const fuzz::ProgramModel s = fuzz::havoc(fuzz::splice(a, b, rng), rng);
        const std::string sh = h.render().render();
        const std::string ss = s.render().render();
        children += 2;
        bytes += sh.size() + ss.size();
        benchmark::DoNotOptimize(sh);
        benchmark::DoNotOptimize(ss);
    }
    state.counters["children_per_s"] =
        benchmark::Counter(static_cast<double>(children), benchmark::Counter::kIsRate);
    state.counters["rendered_bytes_per_s"] =
        benchmark::Counter(static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EvolveMutationThroughput)->Unit(benchmark::kMicrosecond);

void BM_EvolveStage(benchmark::State& state) {
    fuzz::EvolveOptions opts;
    opts.seed = 3;
    opts.init_programs = 8;
    opts.batch = 8;
    opts.execs = 16;
    opts.jobs = static_cast<int>(state.range(0));
    std::uint64_t programs = 0;
    std::uint64_t runs = 0;
    for (auto _ : state) {
        const fuzz::EvolveReport r = fuzz::run_evolve(opts);
        programs += static_cast<std::uint64_t>(r.execs);
        runs += r.runs;
        benchmark::DoNotOptimize(r);
    }
    state.counters["programs_per_s"] =
        benchmark::Counter(static_cast<double>(programs), benchmark::Counter::kIsRate);
    state.counters["runs_per_s"] =
        benchmark::Counter(static_cast<double>(runs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EvolveStage)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_CurveTrials(benchmark::State& state) {
    core::CurveOptions opts;
    opts.aslr_bits = {0, 4, 8};
    opts.canary_budgets = {1, 4};
    opts.canary_bits = 4;
    opts.trials = 50;
    opts.seed = 7;
    opts.jobs = static_cast<int>(state.range(0));
    std::uint64_t trials = 0;
    std::uint64_t runs = 0;
    for (auto _ : state) {
        const core::CurveReport r = core::run_curves(opts);
        trials += r.total_trials();
        runs += r.total_runs();
        benchmark::DoNotOptimize(r);
    }
    state.counters["trials_per_s"] =
        benchmark::Counter(static_cast<double>(trials), benchmark::Counter::kIsRate);
    state.counters["runs_per_s"] =
        benchmark::Counter(static_cast<double>(runs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CurveTrials)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
