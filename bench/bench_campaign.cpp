// Experiment CAMPAIGN: cost of crash safety.  The campaign engine wraps
// every cell in a write-ahead-log append (CRC + fsync policy); these
// microbenchmarks price that record: its framing alone, and its append to a
// real log at either fsync cadence.  End-to-end campaign cells/s (2
// workers, WAL, merge, then a resume) is the harness benchmark's `campaign`
// workload (harnessbench/).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/campaign/wal.hpp"

namespace {

using namespace swsec::campaign;

std::string bench_dir(const std::string& tag) {
    const std::string dir =
        (std::filesystem::temp_directory_path() / ("swsec_bench_campaign_" + tag)).string();
    std::filesystem::remove_all(dir);
    return dir;
}

// WAL record serialization + CRC framing + parse-back, no I/O: the pure
// CPU tax on every completed cell.
void BM_WalRecordRoundTrip(benchmark::State& state) {
    WalRecord rec;
    rec.cell = 123456;
    rec.payload = "{\"seed\":123457,\"runs\":14,\"const_checks\":3,\"divergences\":0}";
    std::uint64_t records = 0;
    for (auto _ : state) {
        const std::string line = wal_line(rec);
        WalRecord out;
        benchmark::DoNotOptimize(
            parse_wal_line(std::string_view(line).substr(0, line.size() - 1), out));
        ++records;
    }
    state.counters["records_per_sec"] =
        benchmark::Counter(static_cast<double>(records), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WalRecordRoundTrip);

// Appending records to a real log file.  Arg = fsync_every (0 = never,
// 1 = per record): the durability knob's real price on this filesystem.
void BM_WalAppend(benchmark::State& state) {
    const std::string dir = bench_dir("wal");
    std::filesystem::create_directories(dir);
    WalRecord rec;
    rec.cell = 1;
    rec.payload = "{\"seed\":2,\"runs\":14,\"const_checks\":3,\"divergences\":0}";
    std::uint64_t records = 0;
    for (auto _ : state) {
        state.PauseTiming();
        std::filesystem::remove(dir + "/campaign.jsonl");
        WalWriter writer(dir + "/campaign.jsonl", static_cast<int>(state.range(0)));
        state.ResumeTiming();
        for (int i = 0; i < 64; ++i) {
            rec.cell = static_cast<std::uint64_t>(i);
            writer.append(rec);
        }
        records += 64;
    }
    state.counters["records_per_sec"] =
        benchmark::Counter(static_cast<double>(records), benchmark::Counter::kIsRate);
    std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalAppend)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
    std::printf("Campaign engine: WAL framing cost and fsync cadence.\n\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
