// Experiment CM-EXPLOIT: the attack/defense matrix (the paper's central
// qualitative "table"), plus the end-to-end cost of mounting each attack
// and the VM microbenchmarks: the decode-cache speedup on raw execution and
// the sanitizer's instrumentation tax.  The whole matrix's cells/s is the
// harness benchmark's `matrix` workload (harnessbench/).
#include <benchmark/benchmark.h>

#include "cc/compiler.hpp"
#include "core/attack_lab.hpp"
#include "core/matrix.hpp"
#include "os/process.hpp"

namespace {

using namespace swsec::core;

void BM_Attack(benchmark::State& state) {
    const AttackKind kind = all_attacks()[static_cast<std::size_t>(state.range(0))];
    const Defense defense = state.range(1) == 0   ? Defense::none()
                            : state.range(1) == 1 ? Defense::standard_hardening()
                                                  : Defense::sanitize_address();
    state.SetLabel(attack_name(kind) + " vs " + defense.name);
    bool succeeded = false;
    for (auto _ : state) {
        const auto out = run_attack(kind, defense);
        succeeded = out.succeeded;
        benchmark::DoNotOptimize(out);
    }
    state.counters["attack_succeeded"] = succeeded ? 1 : 0;
}
BENCHMARK(BM_Attack)->ArgsProduct(
    {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, {0, 1, 2}});

// Raw VM execution with the per-page decode cache on vs off (arg 1/0):
// one compile, many runs of a compute-bound workload, so the decode loop
// dominates and the cache's effect is isolated from compilation cost.
void BM_VmExecute(benchmark::State& state) {
    static const std::string src = R"(
        int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
        int main() { return fib(18); }
    )";
    swsec::os::SecurityProfile profile;
    profile.decode_cache = state.range(0) != 0;
    state.SetLabel(profile.decode_cache ? "decode_cache=on" : "decode_cache=off");
    const auto img = swsec::cc::compile_program({src}, {});
    std::uint64_t steps = 0;
    for (auto _ : state) {
        swsec::os::Process p(img, profile, 99);
        const auto r = p.run(200'000'000);
        steps += r.steps;
        benchmark::DoNotOptimize(r);
    }
    state.counters["insns_per_s"] =
        benchmark::Counter(static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VmExecute)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The shadow-memory sanitizer's instrumentation tax (DESIGN.md §15) on an
// array-walking workload where the per-access shadow checks dominate.
// Arg 0 = uninstrumented baseline, arg 1 = sanitize_address; the pair
// isolates the tax from everything else (same source, same seed, tier 2
// enabled in both, as deployed).
void BM_VmExecuteSanitized(benchmark::State& state) {
    static const std::string src = R"(
        int main() {
          int tab[64];
          int i = 0;
          while (i < 64) { tab[i] = i; i = i + 1; }
          int acc = 0;
          int r = 0;
          while (r < 500) {
            int j = 0;
            while (j < 64) { acc = acc + tab[j]; j = j + 1; }
            r = r + 1;
          }
          return acc & 255;
        }
    )";
    const bool sanitized = state.range(0) != 0;
    state.SetLabel(sanitized ? "sanitize=on" : "sanitize=off");
    swsec::cc::CompilerOptions copts;
    copts.sanitize_address = sanitized;
    swsec::os::SecurityProfile profile;
    profile.sanitize_address = sanitized;
    const auto img = swsec::cc::compile_program({src}, copts);
    std::uint64_t steps = 0;
    for (auto _ : state) {
        swsec::os::Process p(img, profile, 99);
        const auto r = p.run(200'000'000);
        steps += r.steps;
        benchmark::DoNotOptimize(r);
    }
    state.counters["insns_per_s"] =
        benchmark::Counter(static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VmExecuteSanitized)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
    std::printf("Attack/defense matrix (YES = attack achieved its goal):\n\n%s\n",
                format_matrix(run_matrix()).c_str());
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
