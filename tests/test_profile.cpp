// The profiling & metrics layer (DESIGN.md §11): debug line tables carried
// from the compiler through the linker and ASLR relocation, exact PC/edge
// profiling against a single-step oracle, the deterministic metrics
// registry, and the fuzzer's edge-coverage bitmaps.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "assembler/assembler.hpp"
#include "assembler/linker.hpp"
#include "cc/compiler.hpp"
#include "common/escape.hpp"
#include "core/attack_lab.hpp"
#include "core/defense.hpp"
#include "core/fault_sweep.hpp"
#include "core/matrix.hpp"
#include "core/profile_scenarios.hpp"
#include "core/trace_scenarios.hpp"
#include "fuzz/fuzz.hpp"
#include "fuzz/generator.hpp"
#include "os/process.hpp"
#include "profile/metrics.hpp"
#include "profile/profiler.hpp"
#include "profile/report.hpp"
#include "profile/symbolize.hpp"

namespace {

using namespace swsec;

const std::string kLoopSrc = R"(
    int work(int n) {
        int acc = 0;
        int i = 0;
        while (i < n) {
            acc = acc + i * i;
            i = i + 1;
        }
        return acc;
    }
    int main() {
        print_int(work(50));
        return 0;
    }
)";

// --- line tables -------------------------------------------------------------

TEST(LineTable, AssemblerRecordsLineDirectives) {
    const auto obj = assembler::assemble(R"(
        .text
        .file "demo.mc"
        .global f
        f:
            .line 3
            mov r0, 1
            mov r1, 2
            .line 5
            add r0, r1
            ret
    )");
    EXPECT_EQ(obj.source_file, "demo.mc");
    // Run-length encoding: one entry per line change, not per instruction.
    ASSERT_EQ(obj.lines.size(), 2u);
    EXPECT_EQ(obj.lines[0].offset, 0u);
    EXPECT_EQ(obj.lines[0].line, 3u);
    EXPECT_EQ(obj.lines[1].line, 5u);
    EXPECT_GT(obj.lines[1].offset, 0u);
}

TEST(LineTable, AssemblyLinesFallBackToSourceLineNumbers) {
    // Hand-written units get the assembly's own line numbers, so runtime
    // asm (crt0, libc) symbolizes too.
    const auto obj = assembler::assemble(".text\n.global f\nf:\n    mov r0, 1\n    ret\n");
    ASSERT_FALSE(obj.lines.empty());
    EXPECT_EQ(obj.lines[0].line, 4u); // "mov r0, 1" sits on line 4
}

TEST(LineTable, LinkerBiasesOffsetsAndDedupesFiles) {
    const std::vector<objfmt::ObjectFile> objs{
        assembler::assemble(".text\n.file \"a.mc\"\n.global f\nf:\n.line 1\n    ret\n", "a"),
        assembler::assemble(".text\n.file \"b.mc\"\n.global g\ng:\n.line 9\n    ret\n", "b")};
    const auto img = assembler::link(objs);
    ASSERT_EQ(img.line_table.size(), 2u);
    ASSERT_EQ(img.line_files.size(), 2u);
    EXPECT_EQ(img.line_files[img.line_table[0].file], "a.mc");
    EXPECT_EQ(img.line_files[img.line_table[1].file], "b.mc");
    EXPECT_EQ(img.line_table[1].line, 9u);
    // b's entry is biased past a's text.
    EXPECT_GT(img.line_table[1].offset, img.line_table[0].offset);
}

TEST(LineTable, CompilerEmitsLineDirectives) {
    const std::string asm_text = cc::compile_to_asm(kLoopSrc, {}, "u0");
    EXPECT_NE(asm_text.find(".file \"u0.mc\""), std::string::npos);
    EXPECT_NE(asm_text.find(".line "), std::string::npos);
}

TEST(LineTable, SymbolizerRoundTripsUnderAslrRedraws) {
    // The same source position must come back under two different layouts:
    // the line table is text-relative, the symbolizer adds the bias.
    const auto img = cc::compile_program({kLoopSrc}, {});
    os::SecurityProfile profile;
    profile.aslr = true;
    for (const std::uint64_t seed : {7ull, 8ull}) {
        os::Process p(img, profile, seed);
        const std::uint32_t work_addr = p.addr_of("work");
        const profile::Symbolizer sym(img, p.layout().text_base);
        const auto pos = sym.resolve(work_addr);
        ASSERT_TRUE(pos.known);
        EXPECT_EQ(pos.function, "work");
        EXPECT_EQ(pos.file, "u0.mc");
    }
}

TEST(LineTable, TrapSymbolIdenticalAcrossAslrDraws) {
    // Two victims under ASLR trap at different raw ips but the same
    // function:line — the whole point of carrying the bias + symbols.
    core::Defense d = core::Defense::canary();
    d.profile.aslr = true;
    const auto a = core::run_attack(core::AttackKind::StackSmashInject, d, 11, 2002);
    const auto b = core::run_attack(core::AttackKind::StackSmashInject, d, 12, 2002);
    EXPECT_FALSE(a.succeeded);
    EXPECT_FALSE(b.succeeded);
    EXPECT_NE(a.text_base, b.text_base); // the draws really differed
    EXPECT_NE(a.trap.ip, b.trap.ip);
    ASSERT_FALSE(a.trap_sym.empty());
    EXPECT_EQ(a.trap_sym, b.trap_sym);
}

// --- exact profiling ---------------------------------------------------------

TEST(Profiler, PcCountsMatchSingleStepOracle) {
    const auto img = cc::compile_program({kLoopSrc}, {});
    const os::SecurityProfile plain;

    // Oracle: single-step an unprofiled machine, tallying the PC of every
    // retired (non-trapping) instruction by hand.
    std::map<std::uint32_t, std::uint64_t> oracle;
    {
        os::Process p(img, plain, 99);
        while (!p.machine().trap().is_set()) {
            const std::uint32_t pc = p.machine().ip();
            p.machine().step();
            if (!p.machine().trap().is_set()) {
                ++oracle[pc];
            }
        }
    }

    profile::Profiler prof;
    prof.set_sample_interval(0);
    trace::Tracer tracer(1);
    tracer.set_fold(&prof);
    os::SecurityProfile profiled = plain;
    profiled.tracer = &tracer;
    os::Process p(img, profiled, 99);
    (void)p.run(1'000'000);

    std::uint64_t oracle_total = 0;
    for (const auto& [pc, n] : oracle) {
        oracle_total += n;
    }
    EXPECT_EQ(prof.retired(), oracle_total);
    ASSERT_EQ(prof.pc_counts().size(), oracle.size());
    for (const auto& [pc, n] : oracle) {
        const auto it = prof.pc_counts().find(pc);
        ASSERT_NE(it, prof.pc_counts().end()) << "missing pc";
        EXPECT_EQ(it->second, n);
    }
}

TEST(Profiler, LoopEdgeCountsAreExact) {
    const auto img = cc::compile_program({kLoopSrc}, {});
    profile::Profiler prof;
    prof.set_sample_interval(0);
    trace::Tracer tracer(1);
    tracer.set_fold(&prof);
    os::SecurityProfile profile;
    profile.tracer = &tracer;
    os::Process p(img, profile, 99);
    (void)p.run(1'000'000);

    // The while loop iterates exactly 50 times: its back edge (and the
    // header's fall-through edge) must be taken exactly 50 times, and no
    // edge in the whole program runs hotter than the loop itself.
    std::uint64_t max_edge = 0;
    std::size_t edges_at_50 = 0;
    for (const auto& [key, n] : prof.edge_counts()) {
        max_edge = std::max(max_edge, n);
        edges_at_50 += n == 50 ? 1 : 0;
    }
    EXPECT_GE(edges_at_50, 2u);
    EXPECT_EQ(max_edge, 50u);
}

TEST(Profiler, ReportSymbolizesOver95PercentOnMatrixScenario) {
    const auto run = core::run_profile_scenario("canary");
    EXPECT_GE(run.report.symbolized_fraction(), 0.95);
    EXPECT_GT(run.report.total_retired, 0u);
    EXPECT_FALSE(run.report.blocks.empty());
    EXPECT_FALSE(run.report.lines.empty());
    EXPECT_FALSE(run.outcome.trap_sym.empty());
}

TEST(Profiler, ScenarioReportsAreDeterministic) {
    const auto a = core::run_profile_scenario("dep");
    const auto b = core::run_profile_scenario("dep");
    EXPECT_EQ(a.report.to_json(), b.report.to_json());
    EXPECT_EQ(a.report.folded_text(), b.report.folded_text());
}

// `swsec trace` and `swsec profile` read one scenario table: every profile
// scenario, traced, runs the same victim to the same end.
TEST(ObservedScenarios, TraceAndProfileRunTheSamePairing) {
    for (const std::string& name : core::profile_scenario_names()) {
        const auto traced = core::run_trace_scenario(name);
        const auto profiled = core::run_profile_scenario(name);
        EXPECT_EQ(traced.outcome.verdict(), profiled.outcome.verdict()) << name;
        EXPECT_EQ(traced.outcome.trap.kind, profiled.outcome.trap.kind) << name;
        EXPECT_EQ(traced.outcome.trap.origin, profiled.outcome.trap.origin) << name;
        EXPECT_EQ(traced.outcome.trap.ip, profiled.outcome.trap.ip) << name;
        EXPECT_EQ(traced.outcome.stats.instructions, profiled.outcome.stats.instructions)
            << name;
    }
}

TEST(Profiler, FoldedStacksNameCallers) {
    core::ProfileScenarioOptions opts;
    opts.sample_interval = 1; // sample every retire: short runs still fold
    const auto run = core::run_profile_scenario("canary", opts);
    ASSERT_FALSE(run.report.folded.empty());
    std::uint64_t total = 0;
    bool saw_nested = false;
    for (const auto& f : run.report.folded) {
        total += f.count;
        saw_nested = saw_nested || f.stack.find(';') != std::string::npos;
    }
    EXPECT_EQ(total, run.report.total_retired); // interval 1: every retire sampled
    EXPECT_TRUE(saw_nested);
}

// The three outputs of `swsec profile SCENARIO --sample-interval 1` (the
// summary, --out JSON and --folded text) for every scenario, and the
// summary and --annotate disassembly of `swsec profile fib.mc` at the
// default interval, pinned against tests/golden/profile/.  Interval 1
// samples every retirement, so the folded stacks pin where each call's
// push and each ret's pop land relative to that instruction's sample.
// After an intended change, regenerate them with
//   SWSEC_PROFILE_GOLDEN_OUT=<dir> ./build/tests/test_profile --gtest_filter='ProfileGolden.*'
// and review the diff.
TEST(ProfileGolden, ScenariosAndRecursiveProgramMatchCommitted) {
    const std::filesystem::path dir = SWSEC_PROFILE_GOLDEN_DIR;
    std::vector<std::pair<std::string, std::string>> artifacts;
    core::ProfileScenarioOptions opts;
    opts.sample_interval = 1;
    for (const std::string& name : core::profile_scenario_names()) {
        const profile::ProfileReport report = core::run_profile_scenario(name, opts).report;
        artifacts.emplace_back(name + ".summary.txt", report.summary());
        artifacts.emplace_back(name + ".json", report.to_json());
        artifacts.emplace_back(name + ".folded", report.folded_text());
    }

    std::ifstream src_in(dir / "fib.mc", std::ios::binary);
    std::ostringstream src;
    src << src_in.rdbuf();
    const auto img = cc::compile_program({src.str()}, {});
    profile::Profiler prof;
    trace::Tracer tracer(1);
    tracer.set_fold(&prof);
    os::SecurityProfile p;
    p.tracer = &tracer;
    os::Process proc(img, p, 1);
    ASSERT_TRUE(proc.run(100'000'000).exited(0));
    const profile::ProfileReport fib = profile::build_report(prof, img, proc.layout().text_base);
    artifacts.emplace_back("fib.txt", fib.summary() + fib.annotated_disasm);
    artifacts.emplace_back("fib.folded", fib.folded_text());

    if (const char* out = std::getenv("SWSEC_PROFILE_GOLDEN_OUT")) {
        for (const auto& [name, text] : artifacts) {
            std::ofstream(std::filesystem::path(out) / name, std::ios::binary) << text;
        }
        GTEST_SKIP() << "wrote " << artifacts.size() << " goldens to " << out;
    }
    for (const auto& [name, text] : artifacts) {
        std::ifstream in(dir / name, std::ios::binary);
        ASSERT_TRUE(in) << "missing " << dir / name;
        std::ostringstream committed;
        committed << in.rdbuf();
        EXPECT_EQ(text, committed.str()) << name;
    }
}

// --- metrics registry --------------------------------------------------------

TEST(Metrics, CountersGaugesAndLabels) {
    profile::Registry reg;
    reg.counter_add("hits", {{"layer", "dcache"}}, 3);
    reg.counter_add("hits", {{"layer", "dcache"}}, 2);
    reg.counter_add("hits", {{"layer", "image"}}, 1);
    reg.gauge_set("depth", {}, 4.0);
    reg.gauge_max("depth", {}, 2.0); // lower: ignored
    reg.gauge_max("depth", {}, 9.0);
    EXPECT_EQ(reg.counter("hits", {{"layer", "dcache"}}), 5u);
    EXPECT_EQ(reg.counter("hits", {{"layer", "image"}}), 1u);
    EXPECT_EQ(reg.gauge("depth"), 9.0);
}

TEST(Metrics, LabelOrderDoesNotSplitSeries) {
    profile::Registry reg;
    reg.counter_add("n", {{"a", "1"}, {"b", "2"}}, 1);
    reg.counter_add("n", {{"b", "2"}, {"a", "1"}}, 1);
    EXPECT_EQ(reg.counter("n", {{"a", "1"}, {"b", "2"}}), 2u);
}

TEST(Metrics, MergeAddsCountersAndMaxesGauges) {
    profile::Registry a;
    profile::Registry b;
    a.counter_add("c", {}, 2);
    b.counter_add("c", {}, 3);
    a.gauge_max("g", {}, 5.0);
    b.gauge_max("g", {}, 7.0);
    a.merge(b);
    EXPECT_EQ(a.counter("c"), 5u);
    EXPECT_EQ(a.gauge("g"), 7.0);
}

TEST(Metrics, VolatileMetricsExcludedFromDefaultExport) {
    profile::Registry reg;
    reg.counter_add("stable", {}, 1);
    reg.gauge_set("wallclock", {}, 123.0, profile::Volatile::Yes);
    const std::string json = reg.to_json();
    EXPECT_NE(json.find("\"stable\""), std::string::npos);
    EXPECT_EQ(json.find("wallclock"), std::string::npos);
    EXPECT_NE(reg.to_json(true).find("wallclock"), std::string::npos);
}

TEST(Metrics, JsonIsSortedAndStable) {
    profile::Registry a;
    a.counter_add("zz", {}, 1);
    a.counter_add("aa", {}, 2);
    profile::Registry b;
    b.counter_add("aa", {}, 2);
    b.counter_add("zz", {}, 1);
    EXPECT_EQ(a.to_json(), b.to_json());
    EXPECT_NE(a.to_json().find("\"schema\":\"swsec-metrics-v1\""), std::string::npos);
}

TEST(Metrics, MatrixMetricsIdenticalSerialVsJobs) {
    const auto serial = core::run_matrix(1001, 2002, 1);
    const auto parallel = core::run_matrix(1001, 2002, 4);
    EXPECT_EQ(core::matrix_metrics(serial).to_json(), core::matrix_metrics(parallel).to_json());
    EXPECT_EQ(core::matrix_cells_jsonl(serial), core::matrix_cells_jsonl(parallel));
    // The jsonl carries the draw-independent coordinates.
    EXPECT_NE(core::matrix_cells_jsonl(serial).find("\"text_base\""), std::string::npos);
    EXPECT_NE(core::matrix_cells_jsonl(serial).find("\"sym\""), std::string::npos);
}

// --- histograms --------------------------------------------------------------

TEST(Metrics, HistogramBucketLadder) {
    // Smallest i with value <= 2^i; 0 shares the le="1" bucket.
    EXPECT_EQ(profile::histogram_bucket_index(0), 0u);
    EXPECT_EQ(profile::histogram_bucket_index(1), 0u);
    EXPECT_EQ(profile::histogram_bucket_index(2), 1u);
    EXPECT_EQ(profile::histogram_bucket_index(3), 2u);
    EXPECT_EQ(profile::histogram_bucket_index(4), 2u);
    EXPECT_EQ(profile::histogram_bucket_index(5), 3u);
    EXPECT_EQ(profile::histogram_bucket_index(std::uint64_t{1} << 26), 26u);
    EXPECT_EQ(profile::histogram_bucket_index((std::uint64_t{1} << 26) + 1),
              profile::kHistogramBuckets); // +Inf
    EXPECT_EQ(profile::histogram_bounds().front(), "1");
    EXPECT_EQ(profile::histogram_bounds().back(), "67108864");
}

TEST(Metrics, HistogramObserveCountSumBuckets) {
    profile::Registry reg;
    reg.histogram_observe("lat", {{"h", "x"}}, 1);
    reg.histogram_observe("lat", {{"h", "x"}}, 2);
    reg.histogram_observe("lat", {{"h", "x"}}, 1000);
    EXPECT_EQ(reg.histogram_count("lat", {{"h", "x"}}), 3u);
    EXPECT_EQ(reg.histogram_sum("lat", {{"h", "x"}}), 1003u);
    const auto buckets = reg.histogram_buckets("lat", {{"h", "x"}});
    ASSERT_EQ(buckets.size(), profile::kHistogramBuckets + 1);
    EXPECT_EQ(buckets[0], 1u);  // value 1
    EXPECT_EQ(buckets[1], 1u);  // value 2
    EXPECT_EQ(buckets[10], 1u); // 1000 <= 1024 = 2^10
    // Absent series: empty accessors, not phantom zero-filled ones.
    EXPECT_TRUE(reg.histogram_buckets("nope").empty());
    EXPECT_EQ(reg.histogram_count("nope"), 0u);
}

TEST(Metrics, MergeIsAssociativeCommutativeAndIdempotentOnEmpty) {
    // The schedule-invariance of every export rests on merge being a
    // commutative monoid over registries; lock it for all three kinds.
    const auto make = [](std::uint64_t c, double g, std::uint64_t h) {
        profile::Registry r;
        r.counter_add("c_total", {{"k", "v"}}, c);
        r.gauge_max("g", {}, g);
        r.histogram_observe("h", {}, h);
        r.histogram_observe("h", {}, h * 3 + 1);
        return r;
    };
    const profile::Registry a = make(1, 5.0, 2);
    const profile::Registry b = make(10, 2.0, 900);
    const profile::Registry c = make(100, 9.0, 31);

    // Associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    profile::Registry left = a;
    left.merge(b);
    left.merge(c);
    profile::Registry bc = b;
    bc.merge(c);
    profile::Registry right = a;
    right.merge(bc);
    EXPECT_EQ(left.to_json(true), right.to_json(true));
    EXPECT_EQ(left.to_prometheus(true), right.to_prometheus(true));

    // Commutative: a ⊕ b == b ⊕ a.
    profile::Registry ab = a;
    ab.merge(b);
    profile::Registry ba = b;
    ba.merge(a);
    EXPECT_EQ(ab.to_json(true), ba.to_json(true));
    EXPECT_EQ(ab.to_prometheus(true), ba.to_prometheus(true));

    // Identity: merging an empty registry changes nothing, either way round.
    profile::Registry ae = a;
    ae.merge(profile::Registry{});
    EXPECT_EQ(ae.to_json(true), a.to_json(true));
    profile::Registry ea;
    ea.merge(a);
    EXPECT_EQ(ea.to_json(true), a.to_json(true));
    EXPECT_EQ(ea.to_prometheus(true), a.to_prometheus(true));
}

TEST(Metrics, HistogramMergeAddsBucketwise) {
    profile::Registry a;
    profile::Registry b;
    a.histogram_observe("h", {}, 1);
    b.histogram_observe("h", {}, 1);
    b.histogram_observe("h", {}, 1'000'000'000); // +Inf bucket
    a.merge(b);
    EXPECT_EQ(a.histogram_count("h"), 3u);
    EXPECT_EQ(a.histogram_sum("h"), 1'000'000'002u);
    const auto buckets = a.histogram_buckets("h");
    EXPECT_EQ(buckets[0], 2u);
    EXPECT_EQ(buckets[profile::kHistogramBuckets], 1u);
}

// --- prometheus exposition ---------------------------------------------------

TEST(Metrics, PrometheusFamiliesSortedWithTypeAndHelp) {
    profile::Registry reg;
    reg.counter_add("zz_total", {}, 1);
    reg.gauge_set("aa_gauge", {}, 1.5);
    reg.set_help("aa_gauge", "a help line");
    const std::string out = reg.to_prometheus();
    const std::size_t a_help = out.find("# HELP aa_gauge a help line\n");
    const std::size_t a_type = out.find("# TYPE aa_gauge gauge\n");
    const std::size_t a_series = out.find("aa_gauge 1.5\n");
    const std::size_t z_type = out.find("# TYPE zz_total counter\n");
    const std::size_t z_series = out.find("zz_total 1\n");
    ASSERT_NE(a_help, std::string::npos);
    ASSERT_NE(a_type, std::string::npos);
    ASSERT_NE(a_series, std::string::npos);
    ASSERT_NE(z_type, std::string::npos);
    ASSERT_NE(z_series, std::string::npos);
    EXPECT_LT(a_help, a_type);
    EXPECT_LT(a_type, a_series);
    EXPECT_LT(a_series, z_type); // families sorted, each TYPE before its series
    EXPECT_LT(z_type, z_series);
}

TEST(Metrics, PrometheusHistogramCumulativeBucketsSumCount) {
    profile::Registry reg;
    reg.histogram_observe("lat_ms", {{"h", "x"}}, 1);
    reg.histogram_observe("lat_ms", {{"h", "x"}}, 2);
    reg.histogram_observe("lat_ms", {{"h", "x"}}, 1'000'000'000);
    const std::string out = reg.to_prometheus();
    EXPECT_NE(out.find("# TYPE lat_ms histogram\n"), std::string::npos);
    EXPECT_NE(out.find("lat_ms_bucket{h=\"x\",le=\"1\"} 1\n"), std::string::npos);
    EXPECT_NE(out.find("lat_ms_bucket{h=\"x\",le=\"2\"} 2\n"), std::string::npos);
    // The giant observation lives only in +Inf; the last finite bucket holds
    // the cumulative 2, +Inf equals the count.
    EXPECT_NE(out.find("lat_ms_bucket{h=\"x\",le=\"67108864\"} 2\n"), std::string::npos);
    EXPECT_NE(out.find("lat_ms_bucket{h=\"x\",le=\"+Inf\"} 3\n"), std::string::npos);
    EXPECT_NE(out.find("lat_ms_sum{h=\"x\"} 1000000003\n"), std::string::npos);
    EXPECT_NE(out.find("lat_ms_count{h=\"x\"} 3\n"), std::string::npos);
}

TEST(Metrics, PrometheusEscapesLabelValuesAndSanitizesNames) {
    profile::Registry reg;
    reg.counter_add("hits", {{"path", "a\\b\"c\nd"}}, 1);
    reg.counter_add("weird.name", {}, 2); // '.' is invalid in exposition names
    const std::string out = reg.to_prometheus();
    EXPECT_NE(out.find("hits{path=\"a\\\\b\\\"c\\nd\"} 1\n"), std::string::npos);
    EXPECT_NE(out.find("# TYPE weird_name counter\n"), std::string::npos);
    EXPECT_NE(out.find("weird_name 2\n"), std::string::npos);
}

TEST(Metrics, VolatileMetricsExcludedFromPrometheusByDefault) {
    profile::Registry reg;
    reg.counter_add("stable_total", {}, 1);
    reg.gauge_set("wallclock", {}, 123.0, profile::Volatile::Yes);
    const std::string out = reg.to_prometheus();
    EXPECT_NE(out.find("stable_total"), std::string::npos);
    EXPECT_EQ(out.find("wallclock"), std::string::npos);
    EXPECT_NE(reg.to_prometheus(true).find("wallclock"), std::string::npos);
}

TEST(Metrics, SharedEscaperBetweenJsonAndTraceIsLocked) {
    // One escaper for every writer (common/escape.hpp): the trace layer
    // delegates to it, and the metrics JSON uses it for names and label
    // values — so a hostile label value cannot produce invalid JSON.
    // "\x01" is split from "f": a hex escape is greedy and "\x01f" would
    // parse as the single byte 0x1f.
    const std::string nasty = "a\\b\"c\nd\te\x01" "f";
    EXPECT_EQ(trace::json_escape(nasty), swsec::json_escape(nasty));
    EXPECT_EQ(swsec::json_escape(nasty), "a\\\\b\\\"c\\nd\\te\\u0001f");

    profile::Registry reg;
    reg.counter_add("c", {{"k", "v\"w\\x"}}, 1);
    const std::string json = reg.to_json();
    EXPECT_NE(json.find("\"k\":\"v\\\"w\\\\x\""), std::string::npos);
}

TEST(Metrics, PrometheusIdenticalSerialVsJobsOnMatrixRun) {
    // The acceptance bar for the whole layer: a real harness's exposition
    // file is byte-identical for any --jobs value.
    const auto serial = core::run_matrix(1001, 2002, 1);
    const auto parallel = core::run_matrix(1001, 2002, 4);
    const std::string a = core::matrix_metrics(serial).to_prometheus();
    const std::string b = core::matrix_metrics(parallel).to_prometheus();
    EXPECT_EQ(a, b);
    // And the histogram series the layer exists for is actually present.
    EXPECT_NE(a.find("# TYPE matrix_trap_latency_steps histogram\n"), std::string::npos);
    EXPECT_NE(a.find("matrix_trap_latency_steps_count"), std::string::npos);
}

// --- coverage bitmaps --------------------------------------------------------

TEST(Coverage, BitmapBasics) {
    trace::CoverageBitmap bmp;
    EXPECT_EQ(bmp.popcount(), 0u);
    bmp.add(0x10, 0x20);
    bmp.add(0x10, 0x20); // same edge: same bucket
    EXPECT_EQ(bmp.popcount(), 1u);
    bmp.add(0x30, 0x40);
    EXPECT_EQ(bmp.popcount(), 2u);

    trace::CoverageBitmap other;
    other.add(0x10, 0x20);
    other.add(0x50, 0x60);
    EXPECT_EQ(bmp.merge_new(other), 1u); // only the new edge counts
    EXPECT_EQ(bmp.popcount(), 3u);
}

TEST(Coverage, PerSeedBitmapIsDeterministic) {
    const std::string source = fuzz::generate_program(42).render();
    trace::CoverageBitmap a;
    trace::CoverageBitmap b;
    ASSERT_TRUE(fuzz::check_program(source, 42, 20'000'000, nullptr, &a).empty());
    ASSERT_TRUE(fuzz::check_program(source, 42, 20'000'000, nullptr, &b).empty());
    EXPECT_GT(a.popcount(), 0u);
    EXPECT_EQ(a.words(), b.words());
}

// The bitmap check_program folds from its traced tier-2 baseline run equals
// one built from an independent reference: a Profiler folding the observed
// loop's stream (decode cache off, every instruction fetched through
// Machine::fetch) over the same image and seed, whose edge_counts() are
// folded over the same text window.  Seed 143's baseline retires more instructions than
// the oracle's 8 192-slot trace ring holds, so its edges must be folded as
// they retire, not read back from the ring.
TEST(Coverage, CheckProgramBitmapEqualsProfilerEdges) {
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        seeds.push_back(seed);
    }
    seeds.push_back(143);
    const core::Defense& baseline = core::standard_defenses()[0];
    for (const std::uint64_t seed : seeds) {
        SCOPED_TRACE(seed);
        const std::string source = fuzz::generate_program(seed).render();
        trace::CoverageBitmap folded;
        ASSERT_TRUE(fuzz::check_program(source, seed, 20'000'000, nullptr, &folded).empty());

        profile::Profiler prof;
        prof.set_sample_interval(0);
        trace::Tracer tracer(1);
        tracer.set_fold(&prof);
        os::SecurityProfile p = baseline.profile;
        p.decode_cache = false;
        p.tracer = &tracer;
        os::Process proc(cc::compile_program({source}, baseline.copts), p, seed);
        (void)proc.run(20'000'000);
        const std::uint32_t base = proc.layout().text_base;
        const std::uint32_t size = proc.layout().text_size;
        trace::CoverageBitmap reference;
        for (const auto& [key, count] : prof.edge_counts()) {
            const std::uint32_t from = profile::Profiler::edge_from(key) - base;
            const std::uint32_t to = profile::Profiler::edge_to(key) - base;
            if (from < size && to < size) {
                reference.add(from, to);
            }
        }
        if (seed == 143) {
            EXPECT_GT(prof.retired(), 8192u) << "seed 143 no longer overflows the ring";
        }
        EXPECT_GT(reference.popcount(), 0u);
        EXPECT_EQ(folded.words(), reference.words());
    }
}

TEST(Coverage, CurveMonotoneAndJobsInvariant) {
    fuzz::FuzzOptions opts;
    opts.seeds = 8;
    opts.coverage = true;
    opts.jobs = 1;
    const auto serial = fuzz::run_fuzz(opts);
    opts.jobs = 4;
    const auto parallel = fuzz::run_fuzz(opts);

    ASSERT_TRUE(serial.coverage.enabled);
    ASSERT_EQ(serial.coverage.cumulative.size(), 8u);
    for (std::size_t i = 1; i < serial.coverage.cumulative.size(); ++i) {
        EXPECT_LE(serial.coverage.cumulative[i - 1], serial.coverage.cumulative[i]);
    }
    EXPECT_EQ(serial.coverage.curve_csv(opts.seed_base), parallel.coverage.curve_csv(opts.seed_base));
    EXPECT_EQ(serial.coverage.total_edges, parallel.coverage.total_edges);
    // The very first seed always lights new edges and keeps at least one chunk.
    ASSERT_FALSE(serial.coverage.interesting.empty());
    EXPECT_EQ(serial.coverage.interesting[0].seed, opts.seed_base);
    EXPECT_GT(serial.coverage.interesting[0].new_buckets, 0u);
}

// --- platform plumbing -------------------------------------------------------

TEST(Plumbing, ModuleLoadedIsFirstTraceEvent) {
    const auto run = core::run_trace_scenario("baseline");
    ASSERT_FALSE(run.events_jsonl.empty());
    const std::string first = run.events_jsonl.substr(0, run.events_jsonl.find('\n'));
    EXPECT_NE(first.find("\"event\":\"module-load\""), std::string::npos);
}

/// The metric families of `reg` (its Prometheus `# TYPE` lines) whose
/// names begin with one of `prefixes`.
std::set<std::string> families(const profile::Registry& reg,
                               const std::vector<std::string>& prefixes) {
    std::set<std::string> out;
    std::istringstream in(reg.to_prometheus());
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("# TYPE ", 0) != 0) {
            continue;
        }
        const std::string name = line.substr(7, line.find(' ', 7) - 7);
        for (const std::string& p : prefixes) {
            if (name.rfind(p, 0) == 0) {
                out.insert(name);
            }
        }
    }
    return out;
}

// Matrix, fault-sweep and fuzz write their platform series through one
// exporter from one summed os::RunStats, so each series has one definition
// in every harness: the same names everywhere, a fuzz decode-cache hit count
// that covers every tier-2 step of every run, and a sum of snapshots that
// keeps the largest single-process heap high water.
TEST(HarnessMetrics, EveryHarnessExportsOneSetOfPlatformSeries) {
    const std::set<std::string> platform = {
        "asan_interceptor_checks_total", "asan_interceptor_traps_total",
        "asan_shadow_poisons_total",     "asan_shadow_unpoisons_total",
        "dcache_decodes_total",          "dcache_hits_total",
        "heap_high_water_bytes",         "io_faults_injected_total",
        "sbrk_calls_total",              "syscall_retries_total",
        "syscalls_total",                "victim_instructions_total",
        "vm_dispatch_deopts_total",      "vm_dispatch_fast_steps_total",
        "vm_dispatch_superinsns_retired_total", "vm_dispatch_tier2_entries_total"};
    // Every family a platform count could be exported under.
    const std::vector<std::string> prefixes = {"asan_", "dcache_", "heap_",   "io_",
                                               "sbrk_", "syscall", "victim_", "vm_"};

    core::FaultSweepOptions sweep;
    sweep.windows_per_class = 1;
    sweep.jobs = 2;
    fuzz::FuzzOptions fz;
    fz.seeds = 3;
    const fuzz::FuzzReport fuzz_report = fuzz::run_fuzz(fz);
    const std::vector<std::pair<std::string, profile::Registry>> harnesses = {
        {"matrix", core::matrix_metrics(core::run_matrix(1001, 2002, 2))},
        {"fault-sweep", core::fault_sweep_metrics(core::run_fault_sweep(sweep))},
        {"fuzz", fuzz::fuzz_metrics(fuzz_report)},
    };
    for (const auto& [name, reg] : harnesses) {
        EXPECT_EQ(families(reg, prefixes), platform) << name;
    }

    const profile::Labels fuzz_base = {{"harness", "fuzz"}};
    const profile::Registry& fuzz_reg = harnesses[2].second;
    EXPECT_GT(fuzz_reg.counter("vm_dispatch_fast_steps_total", fuzz_base), 0u);
    EXPECT_GE(fuzz_reg.counter("dcache_hits_total", fuzz_base),
              fuzz_reg.counter("vm_dispatch_fast_steps_total", fuzz_base));

    os::RunStats big;
    big.instructions = 5;
    big.heap.high_water = 4096;
    os::RunStats small;
    small.instructions = 7;
    small.heap.high_water = 1024;
    os::RunStats sum = small;
    sum += big;
    EXPECT_EQ(sum.instructions, 12u);
    EXPECT_EQ(sum.heap.high_water, 4096u);
    sum += small;
    EXPECT_EQ(sum.heap.high_water, 4096u);
}

TEST(Plumbing, HeapHighWaterReachesOutcome) {
    // The uaf scenario mallocs: the kernel's brk accounting must surface
    // through the attack outcome for the metrics registry.
    const auto out =
        core::run_attack(core::AttackKind::UseAfterFree, core::Defense::none(), 1001, 2002);
    EXPECT_GT(out.stats.heap.sbrk_calls, 0u);
    EXPECT_GT(out.stats.heap.high_water, 0u);
    EXPECT_GT(out.stats.dcache_hits + out.stats.dcache_decodes, 0u);
}

} // namespace
