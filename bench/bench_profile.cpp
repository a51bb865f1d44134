// Experiment PROFILE: the cost of source-level profiling (DESIGN.md §11).
//
// Four prices, separated so regressions name their layer:
//
//  * BM_ProfilerHooks     — the profiler's fold in isolation: one retire
//                           + one edge account per iteration (hash-map
//                           increments, no sampling).
//  * BM_Symbolize         — PC -> function:line through the debug line
//                           table (binary search over funcs + line rows).
//  * BM_BuildReport       — full report construction from a profiled run:
//                           blocks, line heat, edges, folded stacks and
//                           the annotated disassembly render.
//  * BM_ProfileScenario   — end-to-end `swsec profile <scenario>`: attack,
//                           traced victim run folding the profile, report.
//  * BM_HistogramObserve  — one histogram_observe on a resolved series:
//                           the per-cell price campaign workers pay inline.
//  * BM_RegistryToPrometheus — full text-exposition render of a registry
//                           sized like a campaign export.
//
// The whole-run cost of a profile (the traced tier-2 loop feeding the fold)
// is benched next to the tracer in bench_trace.cpp (BM_VmExecuteProfiled),
// so the profiled and traced arms share one workload and stay comparable.
#include <benchmark/benchmark.h>

#include "cc/compiler.hpp"
#include "core/profile_scenarios.hpp"
#include "os/process.hpp"
#include "profile/metrics.hpp"
#include "profile/profiler.hpp"
#include "profile/report.hpp"
#include "profile/symbolize.hpp"
#include "trace/trace.hpp"

namespace {

using namespace swsec;

const std::string kWorkload = R"(
    int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
    int main() { return fib(16); }
)";

/// One profiled run of the workload, reused by the report benches.
profile::Profiler profiled_run(const objfmt::Image& img, std::uint32_t* text_base) {
    profile::Profiler prof;
    prof.set_sample_interval(97);
    trace::Tracer tracer(1);
    tracer.set_fold(&prof);
    os::SecurityProfile p;
    p.tracer = &tracer;
    os::Process proc(img, p, 99);
    (void)proc.run(200'000'000);
    *text_base = proc.layout().text_base;
    return prof;
}

void BM_ProfilerHooks(benchmark::State& state) {
    profile::Profiler prof;
    prof.set_sample_interval(0);
    std::uint32_t pc = 0x08048000;
    for (auto _ : state) {
        prof.retire(pc, static_cast<std::uint8_t>(isa::Op::Jmp));
        prof.edge(pc, pc + 7);
        pc = 0x08048000 + ((pc + 13) & 0xfff); // walk a 4 KiB working set
        benchmark::DoNotOptimize(prof);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProfilerHooks);

void BM_Symbolize(benchmark::State& state) {
    const auto img = cc::compile_program({kWorkload}, {});
    const profile::Symbolizer sym(img, 0x08048000);
    std::uint32_t pc = 0x08048000;
    std::uint64_t known = 0;
    for (auto _ : state) {
        const auto pos = sym.resolve(pc);
        known += pos.known ? 1 : 0;
        pc = 0x08048000 + ((pc + 13) % static_cast<std::uint32_t>(img.text.size()));
        benchmark::DoNotOptimize(pos);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.counters["known"] = static_cast<double>(known);
}
BENCHMARK(BM_Symbolize);

void BM_BuildReport(benchmark::State& state) {
    const auto img = cc::compile_program({kWorkload}, {});
    std::uint32_t text_base = 0;
    const profile::Profiler prof = profiled_run(img, &text_base);
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        const auto report = profile::build_report(prof, img, text_base);
        bytes += report.annotated_disasm.size();
        benchmark::DoNotOptimize(report);
    }
    state.counters["report_bytes_per_s"] =
        benchmark::Counter(static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BuildReport)->Unit(benchmark::kMillisecond);

void BM_ProfileScenario(benchmark::State& state) {
    const auto& names = core::profile_scenario_names();
    const std::string name = names[static_cast<std::size_t>(state.range(0))];
    state.SetLabel(name);
    std::uint64_t retired = 0;
    for (auto _ : state) {
        const auto run = core::run_profile_scenario(name);
        retired += run.report.total_retired;
        benchmark::DoNotOptimize(run);
    }
    state.counters["retired_per_s"] =
        benchmark::Counter(static_cast<double>(retired), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ProfileScenario)->DenseRange(0, 6)->Unit(benchmark::kMillisecond);

void BM_HistogramObserve(benchmark::State& state) {
    profile::Registry reg;
    const profile::Labels labels = {{"harness", "campaign"}, {"kind", "fuzz"}};
    std::uint64_t v = 1;
    for (auto _ : state) {
        reg.histogram_observe("campaign_cell_wall_ms", labels, v,
                              profile::Volatile::Yes);
        v = (v * 2862933555777941757ull + 3037000493ull) & 0xffffff; // spread buckets
        benchmark::DoNotOptimize(reg);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramObserve);

void BM_RegistryToPrometheus(benchmark::State& state) {
    // A registry shaped like a real campaign export: a few counter/gauge
    // families plus histograms fanned out over label combinations.
    profile::Registry reg;
    for (int k = 0; k < 8; ++k) {
        const profile::Labels labels = {{"harness", "campaign"},
                                        {"kind", k % 2 ? "fuzz" : "evolve"},
                                        {"shard", std::to_string(k)}};
        reg.counter_add("campaign_cells_total", labels, 100 + k);
        reg.gauge_set("campaign_workers", labels, 4);
        for (std::uint64_t v = 1; v < 1u << 20; v <<= 1) {
            reg.histogram_observe("campaign_cell_wall_ms", labels, v,
                                  profile::Volatile::Yes);
            reg.histogram_observe("campaign_cell_attempts", labels, v & 7);
        }
    }
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        const std::string text = reg.to_prometheus(true);
        bytes += text.size();
        benchmark::DoNotOptimize(text);
    }
    state.counters["exposition_bytes_per_s"] =
        benchmark::Counter(static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RegistryToPrometheus);

} // namespace

BENCHMARK_MAIN();
