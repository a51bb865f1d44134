// Experiment TRACE: the cost of the observability layer.
//
// The design promise (DESIGN.md §8) is that a *detached* tracer is free
// and an attached one does not change which engine runs: an untraced run
// executes the engine's untraced tier-2 loop, which holds no tracer code,
// and a traced run its traced instantiation.  BM_VmExecuteTraced pins that
// — arg 0 (no tracer) vs arg 1 (tracer attached) on a compute-bound
// workload; the detached case must stay within 5% of the pre-trace
// baseline (bench_attack_matrix BM_VmExecute/1).  Arg 1 prices the
// attached case: the fused loop writing one ring slot per retired
// instruction, the honest cost of full observability (about 2× arg 0;
// about 3× while a tracer forced the observed loop).
#include <benchmark/benchmark.h>

#include "cc/compiler.hpp"
#include "core/trace_scenarios.hpp"
#include "os/process.hpp"
#include "profile/profiler.hpp"
#include "trace/trace.hpp"

namespace {

using namespace swsec;

// Arg 0: tracer detached (the untraced tier-2 loop).  Arg 1: tracer
// attached (the traced tier-2 loop), every event recorded into the ring.
void BM_VmExecuteTraced(benchmark::State& state) {
    static const std::string src = R"(
        int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
        int main() { return fib(18); }
    )";
    const bool traced = state.range(0) != 0;
    state.SetLabel(traced ? "tracer=attached" : "tracer=detached");
    const auto img = cc::compile_program({src}, {});
    os::SecurityProfile profile;
    trace::Tracer tracer;
    if (traced) {
        profile.tracer = &tracer;
    }
    std::uint64_t steps = 0;
    for (auto _ : state) {
        tracer.clear();
        os::Process p(img, profile, 99);
        const auto r = p.run(200'000'000);
        steps += r.steps;
        benchmark::DoNotOptimize(r);
    }
    state.counters["insns_per_s"] =
        benchmark::Counter(static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VmExecuteTraced)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The profiler holds the same pay-for-what-you-use promise as the tracer
// (DESIGN.md §11): its only hook sites are the step loop's retire/edge
// bookkeeping and call/ret, never the memory fast paths, so arg 0 (no
// profiler) must stay within 5% of the same workload's detached-tracer
// arm above — that parity is the PR's disabled-overhead acceptance bar.
// Arg 1 prices exact PC+edge counting with the stack sampler on.
void BM_VmExecuteProfiled(benchmark::State& state) {
    static const std::string src = R"(
        int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
        int main() { return fib(18); }
    )";
    const bool profiled = state.range(0) != 0;
    state.SetLabel(profiled ? "profiler=attached" : "profiler=detached");
    const auto img = cc::compile_program({src}, {});
    os::SecurityProfile profile;
    profile::Profiler prof;
    if (profiled) {
        profile.profiler = &prof;
    }
    std::uint64_t steps = 0;
    for (auto _ : state) {
        prof.reset();
        os::Process p(img, profile, 99);
        const auto r = p.run(200'000'000);
        steps += r.steps;
        benchmark::DoNotOptimize(r);
    }
    state.counters["insns_per_s"] =
        benchmark::Counter(static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VmExecuteProfiled)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// End-to-end scenario cost: attack + victim + full trace + JSONL render.
void BM_TraceScenario(benchmark::State& state) {
    const auto& names = core::trace_scenario_names();
    const std::string name = names[static_cast<std::size_t>(state.range(0))];
    state.SetLabel(name);
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        const auto run = core::run_trace_scenario(name);
        bytes += run.events_jsonl.size();
        benchmark::DoNotOptimize(run);
    }
    state.counters["jsonl_bytes_per_s"] =
        benchmark::Counter(static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceScenario)->DenseRange(0, 8)->Unit(benchmark::kMillisecond);

// The ring buffer in isolation: cost of one record() at steady state
// (buffer full, every record evicts the oldest event).
void BM_TracerRecord(benchmark::State& state) {
    trace::Tracer tracer;
    trace::TraceEvent ev{trace::EventKind::InsnRetired, 0, 0x8048000, -1, false,
                         trace::CheckOrigin::None, 0x90, 0, 0, {}};
    for (auto _ : state) {
        tracer.record(ev);
        benchmark::DoNotOptimize(tracer);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerRecord);

} // namespace

BENCHMARK_MAIN();
