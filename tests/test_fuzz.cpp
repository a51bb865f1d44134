// Differential fuzzing subsystem tests: generator determinism, oracle
// cleanliness, minimizer idempotence, repro round-trips, serial-vs-parallel
// report identity, the satellite bugfix regressions (constant folding,
// malloc overflow, image-cache key drift), corpus replay, and the committed
// fuzz report, metrics and coverage curve.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cc/compiler.hpp"
#include "common/error.hpp"
#include "core/defense.hpp"
#include "core/image_cache.hpp"
#include "fuzz/fuzz.hpp"
#include "fuzz/generator.hpp"
#include "os/process.hpp"

namespace {

using namespace swsec;

std::string read_file(const std::filesystem::path& p) {
    std::ifstream f(p);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

std::int32_t run_minic(const std::string& src, const core::Defense& d,
                       std::string* out = nullptr) {
    os::Process p(cc::compile_program({src}, d.copts), d.profile, 13);
    const auto r = p.run();
    EXPECT_EQ(r.trap.kind, vm::TrapKind::Exit) << r.trap.to_string();
    if (out != nullptr) {
        *out = p.output();
    }
    return r.trap.code;
}

// ---- generator ----------------------------------------------------------

TEST(FuzzGenerator, DeterministicPerSeed) {
    const fuzz::GenProgram a = fuzz::generate_program(42);
    const fuzz::GenProgram b = fuzz::generate_program(42);
    EXPECT_EQ(a.render(), b.render());
    EXPECT_EQ(a.globals, b.globals);
    EXPECT_EQ(a.chunks, b.chunks);
}

TEST(FuzzGenerator, DistinctSeedsDistinctPrograms) {
    EXPECT_NE(fuzz::generate_program(1).render(), fuzz::generate_program(2).render());
}

TEST(FuzzGenerator, GeneratedProgramsAreCleanUnderAllOracles) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const auto divs =
            fuzz::check_program(fuzz::generate_program(seed).render(), seed, 20'000'000);
        EXPECT_TRUE(divs.empty()) << "seed " << seed << ": " << divs.size() << " divergences, first "
                                  << fuzz::oracle_name(divs[0].oracle) << " '" << divs[0].config_a
                                  << "' vs '" << divs[0].config_b << "'";
    }
}

// The source is parsed once per program, but a parse or sema error still
// yields one <compile> divergence per standard defense, with the
// compiler's own message.
TEST(FuzzOracles, CompileErrorIsReportedOncePerDefense) {
    const std::string source = "int main() { return undefined_fn(); }";
    const auto divs = fuzz::check_program(source, 7, 20'000'000);
    const auto& defenses = core::standard_defenses();
    ASSERT_EQ(defenses.size(), 11u);
    ASSERT_EQ(divs.size(), defenses.size());
    for (std::size_t i = 0; i < divs.size(); ++i) {
        SCOPED_TRACE(defenses[i].name);
        EXPECT_EQ(divs[i].seed, 7u);
        EXPECT_EQ(divs[i].oracle, fuzz::Oracle::Defense);
        EXPECT_EQ(divs[i].config_a, "<compile>");
        EXPECT_EQ(divs[i].config_b, defenses[i].name);
        EXPECT_EQ(divs[i].output_a, "line 1: use of undeclared identifier 'undefined_fn'");
        EXPECT_EQ(divs[i].output_b, "");
        EXPECT_EQ(divs[i].source, source);
    }
}

// Each configuration runs once per program: the 11 defense runs (the
// engine oracle traces the tier-2, decode-cache-on run of its three
// defenses), then per engine-checked defense one traced decode-cache-off
// run, the observed-loop reference: 14 in all.  The instruction counter is
// the sum over exactly those runs (a traced run counts its retired events).
TEST(FuzzOracles, EachConfigurationRunsOnce) {
    constexpr std::uint64_t kSeed = 3;
    constexpr std::uint64_t kBudget = 20'000'000;
    const std::string source = fuzz::generate_program(kSeed).render();
    fuzz::FuzzReport stats;
    ASSERT_TRUE(fuzz::check_program(source, kSeed, kBudget, &stats).empty());
    EXPECT_EQ(stats.runs, 14u);

    // 11 defenses once each; the three engine-checked ones traced, and once
    // more traced with the decode cache off.  A traced run counts its insn
    // events, an untraced one its steps.
    std::uint64_t expected = 0;
    std::size_t checked = 0;
    for (const core::Defense& d : core::standard_defenses()) {
        const auto image = core::cached_compile(source, d.copts);
        if (d.name != "none" && d.name != "all-mitigations" && d.name != "sanitize") {
            os::Process p(image, d.profile, kSeed);
            expected += p.run(kBudget).steps;
            continue;
        }
        ++checked;
        for (const bool dcache : {true, false}) {
            trace::Tracer tracer(8192);
            os::SecurityProfile traced = d.profile;
            traced.decode_cache = dcache;
            traced.tracer = &tracer;
            os::Process p(image, traced, kSeed);
            (void)p.run(kBudget);
            expected += tracer.counters().instructions;
        }
    }
    EXPECT_EQ(checked, 3u);
    EXPECT_EQ(stats.counters.instructions, expected);
}

// ---- minimizer ----------------------------------------------------------

TEST(FuzzMinimizer, GreedyAndIdempotent) {
    const fuzz::GenProgram prog = fuzz::generate_program(5);
    ASSERT_GE(prog.chunks.size(), 2U);
    // Synthetic oracle: the "divergence" persists iff chunk 1's text survives.
    const auto needs_chunk1 = [&](const std::string& cand) {
        return cand.find(prog.chunks[1]) != std::string::npos;
    };
    const fuzz::GenProgram small = fuzz::minimize(prog, needs_chunk1);
    ASSERT_EQ(small.chunks.size(), 1U);
    EXPECT_EQ(small.chunks[0], prog.chunks[1]);
    // Idempotent: minimizing the minimum removes nothing.
    const fuzz::GenProgram again = fuzz::minimize(small, needs_chunk1);
    EXPECT_EQ(again.render(), small.render());
}

TEST(FuzzMinimizer, RemovesNothingWhenPredicateNeverHolds) {
    const fuzz::GenProgram prog = fuzz::generate_program(6);
    const fuzz::GenProgram out =
        fuzz::minimize(prog, [](const std::string&) { return false; });
    EXPECT_EQ(out.render(), prog.render());
}

// ---- repro records ------------------------------------------------------

TEST(FuzzRepro, RoundTripsEscapedText) {
    fuzz::Divergence d;
    d.seed = 1234567890123ULL;
    d.oracle = fuzz::Oracle::Engine;
    d.config_a = "none+dcache";
    d.config_b = "none-dcache";
    d.output_a = "line1\nline2\twith\ttabs\n";
    d.output_b = "back\\slash\rcarriage\n";
    d.source = "int main() {\n  return 0;\n}\n";
    EXPECT_EQ(fuzz::parse_repro(fuzz::to_repro(d)), d);
    d.seed = 18446744073709551615ULL; // the largest seed survives the trip
    EXPECT_EQ(fuzz::parse_repro(fuzz::to_repro(d)), d);
}

TEST(FuzzRepro, FileRoundTripSkipsCommentsAndBlanks) {
    fuzz::Divergence a;
    a.seed = 7;
    a.oracle = fuzz::Oracle::Defense;
    a.config_a = "none";
    a.config_b = "aslr";
    a.source = "int main() { return 7; }\n";
    fuzz::Divergence b = a;
    b.seed = 8;
    b.oracle = fuzz::Oracle::ConstFold;
    const std::string text =
        "# a comment\n\n" + fuzz::to_repro(a) + "\n# between records\n" + fuzz::to_repro(b);
    const auto parsed = fuzz::parse_repro_file(text);
    ASSERT_EQ(parsed.size(), 2U);
    EXPECT_EQ(parsed[0], a);
    EXPECT_EQ(parsed[1], b);
}

TEST(FuzzRepro, MalformedRecordThrows) {
    EXPECT_THROW((void)fuzz::parse_repro("not a record\n"), Error);
    EXPECT_THROW((void)fuzz::parse_repro("repro-v1\nseed 1\n"), Error);
    EXPECT_THROW((void)fuzz::parse_repro_file("repro-v1\nseed 1\noracle bogus\nconfig-a x\n"
                                              "config-b y\noutput-a \noutput-b \nsource \nend\n"),
                 Error);
    // The seed field must be a whole 64-bit unsigned decimal.  A negative, a
    // trailing suffix, an empty field, an overflow, a leading space or a
    // sign would otherwise replay some other seed, or be read leniently.
    for (const char* seed : {"-5", "12abc", "", "99999999999999999999999", " 12", "+7"}) {
        SCOPED_TRACE(seed);
        EXPECT_THROW((void)fuzz::parse_repro(std::string("repro-v1\nseed ") + seed +
                                             "\noracle defense\nconfig-a x\nconfig-b y\n"
                                             "output-a \noutput-b \nsource \nend\n"),
                     Error);
    }
}

// ---- the campaign driver ------------------------------------------------

TEST(FuzzDriver, SerialAndParallelReportsAreIdentical) {
    fuzz::FuzzOptions serial;
    serial.seed_base = 1;
    serial.seeds = 25;
    serial.jobs = 1;
    fuzz::FuzzOptions parallel = serial;
    parallel.jobs = 3;
    const fuzz::FuzzReport a = fuzz::run_fuzz(serial);
    const fuzz::FuzzReport b = fuzz::run_fuzz(parallel);
    EXPECT_EQ(a.summary(), b.summary());
    EXPECT_EQ(a.divergences, b.divergences);
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.const_checks, b.const_checks);
    EXPECT_EQ(a.counters.instructions, b.counters.instructions);
    EXPECT_EQ(a.counters.dcache_hits, b.counters.dcache_hits);
    EXPECT_TRUE(a.clean()) << a.summary();
}

// The traced runs' slow-path fetch tally is a miss count, not
// DecodeCache::decodes() (which the matrix exports as dcache_decodes_total):
// it is exported under its own name, with its source pinned.
TEST(FuzzDriver, MetricsExportTracedCacheMissesUnderTheirOwnName) {
    fuzz::FuzzOptions opts;
    opts.seed_base = 1;
    opts.seeds = 3;
    const fuzz::FuzzReport report = fuzz::run_fuzz(opts);
    const profile::Registry reg = fuzz::fuzz_metrics(report);
    const profile::Labels base = {{"harness", "fuzz"}};
    EXPECT_GT(report.counters.dcache_misses, 0u) << "the cache-off traced runs miss every step";
    EXPECT_EQ(reg.counter("dcache_misses_total", base), report.counters.dcache_misses);
    EXPECT_EQ(reg.counter("dcache_hits_total", base), report.counters.dcache_hits);
    const std::string prom = reg.to_prometheus();
    EXPECT_NE(prom.find("# HELP dcache_misses_total "), std::string::npos);
    EXPECT_EQ(prom.find("dcache_decodes_total"), std::string::npos);
}

// ---- satellite 1: compile-time folding == machine semantics -------------

TEST(FoldSemantics, EveryOperatorMatchesTheMachine) {
    // Each global is folded by cc::fold_constant_expr at compile time; the
    // expected values below are the VM's two's-complement wrap semantics
    // (uint32 wrap for + - * ~ neg, Divs/Rems INT_MIN/-1 cases, shift
    // counts masked & 31, arithmetic >>).  A host-UB fold (the old
    // fold_const) either crashes the compiler or prints the wrong value.
    struct Case {
        const char* expr;
        std::int32_t expected;
    };
    const std::vector<Case> cases = {
        {"(2147483647 + 1)", -2147483647 - 1},
        {"(2147483647 * 2)", -2},
        {"(0 - (0 - 2147483647 - 1))", -2147483647 - 1},
        {"((0 - 2147483647 - 1) / (0 - 1))", -2147483647 - 1},
        {"((0 - 2147483647 - 1) % (0 - 1))", 0},
        {"((0 - 5) / 3)", -1},
        {"((0 - 5) % 3)", -2},
        {"(1 << 33)", 2},
        {"(3 << 31)", -2147483647 - 1},
        {"((0 - 8) >> 1)", -4},
        {"(2147483647 >> 30)", 1},
        {"(~2147483647)", -2147483647 - 1},
        {"(~0)", -1},
        {"(6 & 3)", 2},
        {"(6 | 3)", 7},
        {"(6 ^ 3)", 5},
        {"(0x7fffffff + 0x1)", -2147483647 - 1},
        {"((0 - 2147483647 - 1) < 2147483647)", 1},
        {"(2147483647 <= (0 - 2147483647 - 1))", 0},
        {"((0 - 1) == 4294967295)", 1}, // 4294967295 truncates to -1
        {"(1 != 1)", 0},
    };
    std::string src;
    std::string expected_out;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        src += "int c" + std::to_string(i) + " = " + cases[i].expr + ";\n";
        expected_out += std::to_string(cases[i].expected) + "\n";
    }
    src += "int main() {\n";
    for (std::size_t i = 0; i < cases.size(); ++i) {
        src += "  print_int(c" + std::to_string(i) + "); puts(\"\");\n";
    }
    src += "  return 0;\n}\n";
    std::string out;
    EXPECT_EQ(run_minic(src, core::Defense::none(), &out), 0);
    EXPECT_EQ(out, expected_out);
}

TEST(FoldSemantics, FoldedAndRuntimeEvaluationAgreeDifferentially) {
    // The same property end-to-end through the fuzzer's ConstFold oracle: a
    // program whose folded globals are re-computed through the VM's ALU
    // must never print the mismatch marker under any defense.
    const std::string src = R"(int __zero = 0;
int c0 = ((0 - 2147483647 - 1) / (0 - 1));
int c1 = (2147483647 * 2);
int main() {
  int r0 = (((0 - 2147483647 - 1) + __zero) / ((0 - 1) + __zero));
  int r1 = ((2147483647 + __zero) * (2 + __zero));
  if (c0 != r0) { puts("FOLD-MISMATCH"); }
  if (c1 != r1) { puts("FOLD-MISMATCH"); }
  return 0;
}
)";
    const auto divs = fuzz::check_program(src, 3, 20'000'000);
    EXPECT_TRUE(divs.empty());
}

TEST(FoldSemantics, DivisionByZeroInInitialiserIsRejected) {
    EXPECT_THROW((void)cc::compile_program({"int g = 1 / 0;\nint main() { return g; }\n"},
                                           cc::CompilerOptions::none()),
                 Error);
    EXPECT_THROW((void)cc::compile_program({"int g = 1 % 0;\nint main() { return g; }\n"},
                                           cc::CompilerOptions::none()),
                 Error);
}

// ---- satellite 2: malloc size-rounding overflow -------------------------

TEST(MallocGuard, HugeRequestsReturnNullInsteadOfWrapping) {
    // Pre-fix, (2147483647 + 3) & ~3 wrapped to 0x80000000 and the signed
    // first-fit scan handed back the freed 16-byte chunk.  The request must
    // fail cleanly whether or not a recyclable chunk exists.
    const std::string src = R"(int main() {
  char* a = malloc(16);
  if ((int)a == 0) { return 1; }
  free(a);
  if ((int)malloc(2147483647) != 0) { return 2; }
  if ((int)malloc(2147483621) != 0) { return 3; }
  if ((int)malloc(0 - 5) != 0) { return 4; }
  if ((int)malloc(0) != 0) { return 5; }
  char* b = malloc(64);
  if ((int)b == 0) { return 6; }
  b[63] = 7;
  return b[63];
}
)";
    EXPECT_EQ(run_minic(src, core::Defense::none()), 7);
    // Under memcheck the quarantine keeps the free list empty, exercising
    // the sbrk path: the guard must fire before sbrk sees a wrapped size.
    EXPECT_EQ(run_minic(src, core::Defense::memcheck()), 7);
}

// ---- satellite 3: image-cache key covers every compiler option ----------

TEST(ImageCacheKey, DistinctOptionSetsNeverCollide) {
    std::set<std::string> keys;
    int combos = 0;
    for (const int canaries : {0, 1}) {
        for (const int bounds : {0, 1}) {
            for (const int fortify : {0, 1}) {
                for (const int memcheck : {0, 1}) {
                    for (const int sanitize : {0, 1}) {
                        for (const int comments : {0, 1}) {
                            for (const cc::PmaMode pma :
                                 {cc::PmaMode::Off, cc::PmaMode::InsecureModule,
                                  cc::PmaMode::SecureModule}) {
                                cc::CompilerOptions o;
                                o.stack_canaries = canaries != 0;
                                o.bounds_checks = bounds != 0;
                                o.fortify_reads = fortify != 0;
                                o.memcheck = memcheck != 0;
                                o.sanitize_address = sanitize != 0;
                                o.emit_comments = comments != 0;
                                o.pma_mode = pma;
                                keys.insert(cc::compiler_options_key(o));
                                ++combos;
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(combos, 192);
    EXPECT_EQ(static_cast<int>(keys.size()), combos);
}

// ---- image-cache LRU bound ----------------------------------------------

TEST(ImageCacheLru, CapacityBoundsGrowthAndCountsEvictions) {
    core::clear_image_cache();
    const std::size_t prev = core::set_image_cache_capacity(3);
    for (int i = 0; i < 5; ++i) {
        const std::string src =
            "int main() { return " + std::to_string(i) + "; }";
        (void)core::cached_compile(src, cc::CompilerOptions{});
    }
    EXPECT_EQ(core::image_cache_size(), 3u);
    EXPECT_EQ(core::image_cache_evictions(), 2u);
    // The most recent insert is resident: re-asking is a hit, not a compile.
    const std::uint64_t hits_before = core::image_cache_hits();
    (void)core::cached_compile("int main() { return 4; }", cc::CompilerOptions{});
    EXPECT_EQ(core::image_cache_hits(), hits_before + 1);
    // An evicted source recompiles (deterministically) and re-enters within
    // the cap, evicting the now-coldest entry.
    (void)core::cached_compile("int main() { return 0; }", cc::CompilerOptions{});
    EXPECT_EQ(core::image_cache_size(), 3u);
    EXPECT_EQ(core::image_cache_evictions(), 3u);
    core::set_image_cache_capacity(prev);
    core::clear_image_cache();
}

TEST(ImageCacheLru, HitRefreshesRecency) {
    core::clear_image_cache();
    const std::size_t prev = core::set_image_cache_capacity(2);
    const auto a = core::cached_compile("int main() { return 10; }", cc::CompilerOptions{});
    (void)core::cached_compile("int main() { return 11; }", cc::CompilerOptions{});
    // Touch A so B becomes the LRU entry, then insert C: B must be evicted.
    (void)core::cached_compile("int main() { return 10; }", cc::CompilerOptions{});
    (void)core::cached_compile("int main() { return 12; }", cc::CompilerOptions{});
    const std::uint64_t hits_before = core::image_cache_hits();
    const auto a2 = core::cached_compile("int main() { return 10; }", cc::CompilerOptions{});
    EXPECT_EQ(core::image_cache_hits(), hits_before + 1); // A survived
    EXPECT_EQ(a.get(), a2.get());                         // same shared image
    core::set_image_cache_capacity(prev);
    core::clear_image_cache();
}

// ---- committed corpus ---------------------------------------------------

TEST(FuzzCorpus, EveryCommittedRecordReplaysClean) {
    const std::filesystem::path dir = SWSEC_FUZZ_CORPUS_DIR;
    ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
    std::vector<std::filesystem::path> files;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
        if (e.path().extension() == ".repro") {
            files.push_back(e.path());
        }
    }
    std::sort(files.begin(), files.end());
    ASSERT_GE(files.size(), 5U) << "corpus went missing";
    std::size_t records = 0;
    for (const auto& f : files) {
        const auto parsed = fuzz::parse_repro_file(read_file(f));
        ASSERT_FALSE(parsed.empty()) << f;
        records += parsed.size();
        fuzz::FuzzReport stats;
        const auto now = fuzz::replay_repros(parsed, 20'000'000, &stats);
        EXPECT_TRUE(now.empty()) << f << ": recorded bug has come back ("
                                 << (now.empty() ? "" : fuzz::oracle_name(now[0].oracle)) << ")";
        EXPECT_EQ(stats.programs, static_cast<int>(parsed.size()));
        EXPECT_GT(stats.runs, 0U);
    }
    EXPECT_GE(records, 5U);
}

// ---- committed fuzz artifacts ---------------------------------------------

// The three artifacts of `swsec fuzz --coverage --seeds 200` pinned byte for
// byte against tests/golden/fuzz/.  The oracles above compare two runs of
// one build, so a change that shifts both sides of every comparison (a
// program, a counter, a coverage edge) would go unseen without them.  After
// an intended change of what the fuzzer generates or counts, regenerate them
// with
//   SWSEC_FUZZ_GOLDEN_OUT=<dir> ./build/tests/test_fuzz --gtest_filter='FuzzGolden.*'
// and review the diff.
TEST(FuzzGolden, ReportMetricsAndCoverageMatchCommitted) {
    fuzz::FuzzOptions opts;
    opts.seed_base = 1;
    opts.seeds = 200;
    opts.jobs = 2; // the report is byte-identical for any jobs value
    opts.coverage = true;
    const fuzz::FuzzReport report = fuzz::run_fuzz(opts);
    const std::vector<std::pair<std::string, std::string>> artifacts = {
        {"summary.txt", report.summary()},
        {"metrics.json", fuzz::fuzz_metrics(report).to_json()},
        {"coverage.csv", report.coverage.curve_csv(opts.seed_base)},
    };
    if (const char* out = std::getenv("SWSEC_FUZZ_GOLDEN_OUT")) {
        for (const auto& [name, text] : artifacts) {
            std::ofstream(std::filesystem::path(out) / name, std::ios::binary) << text;
        }
        GTEST_SKIP() << "wrote " << artifacts.size() << " fuzz goldens to " << out;
    }
    const std::filesystem::path dir = SWSEC_FUZZ_GOLDEN_DIR;
    for (const auto& [name, text] : artifacts) {
        ASSERT_TRUE(std::filesystem::exists(dir / name)) << "missing " << dir / name;
        EXPECT_EQ(text, read_file(dir / name)) << name;
    }
}

} // namespace

// Appended: the evolutionary stage (PR8) — mutation validity, corpus-schedule
// determinism, serial-vs-parallel byte-identity, coverage-curve monotonicity,
// triage dedup idempotence, and the Monte-Carlo defense curves.
#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "core/curves.hpp"
#include "fuzz/evolve.hpp"
#include "fuzz/mutate.hpp"

namespace {

using namespace swsec;

fuzz::EvolveOptions small_evolve(int jobs) {
    fuzz::EvolveOptions o;
    o.seed = 11;
    o.init_programs = 8;
    o.batch = 8;
    o.execs = 40;
    o.jobs = jobs;
    return o;
}

TEST(Evolve, ScheduleIsAPureFunctionOfTheMasterSeed) {
    // Same seed, same everything: report, corpus size, curve, crash list.
    const fuzz::EvolveReport a = fuzz::run_evolve(small_evolve(1));
    const fuzz::EvolveReport b = fuzz::run_evolve(small_evolve(1));
    EXPECT_EQ(a.to_json(), b.to_json());
    EXPECT_EQ(a.summary(), b.summary());
    EXPECT_EQ(a.curve, b.curve);
    EXPECT_EQ(a.corpus_size, b.corpus_size);
}

TEST(Evolve, SerialAndParallelReportsAreByteIdentical) {
    // Breeding is serial, evaluation is share-nothing, merge is slot-order:
    // the jobs knob must change wall-clock only.
    const fuzz::EvolveReport a = fuzz::run_evolve(small_evolve(1));
    const fuzz::EvolveReport b = fuzz::run_evolve(small_evolve(3));
    EXPECT_EQ(a.to_json(), b.to_json());
    EXPECT_EQ(a.summary(), b.summary());
    EXPECT_EQ(a.curve, b.curve);
    EXPECT_EQ(a.runs, b.runs);
}

TEST(Evolve, CoverageCurveIsMonotoneAndConsistent) {
    const fuzz::EvolveReport r = fuzz::run_evolve(small_evolve(1));
    ASSERT_EQ(static_cast<int>(r.curve.size()), r.execs);
    EXPECT_EQ(r.execs, 40);
    for (std::size_t i = 1; i < r.curve.size(); ++i) {
        EXPECT_LE(r.curve[i - 1], r.curve[i]) << "coverage curve regressed at exec " << i;
    }
    EXPECT_EQ(r.curve.back(), r.total_buckets);
    EXPECT_GE(r.corpus_size, 1);
    EXPECT_LE(r.corpus_size, r.execs);
    EXPECT_GE(r.rounds, 1);
    EXPECT_GT(r.runs, static_cast<std::uint64_t>(r.execs)); // oracles multiply runs
}

TEST(Mutate, HavocAndSpliceStayValidByConstruction) {
    // Model-level mutation cannot express an invalid program: every havoc
    // child and every spliced child must compile and run clean under all
    // oracles (defense set, engine pairs, fold probes).
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const fuzz::ProgramModel a = fuzz::generate_model(seed);
        const fuzz::ProgramModel b = fuzz::generate_model(seed + 100);
        Rng rng(seed * 7919);
        const fuzz::ProgramModel h = fuzz::havoc(a, rng);
        const auto dh = fuzz::check_program(h.render().render(), seed, 20'000'000);
        EXPECT_TRUE(dh.empty()) << "havoc child of seed " << seed << " diverged";
        const fuzz::ProgramModel s = fuzz::havoc(fuzz::splice(a, b, rng), rng);
        const auto ds = fuzz::check_program(s.render().render(), seed, 20'000'000);
        EXPECT_TRUE(ds.empty()) << "spliced child of seed " << seed << " diverged";
    }
}

TEST(Triage, DedupKeyIsIdempotentAndCarriesProvenance) {
    // Triaging the same divergence twice must derive the same key and the
    // same symbolized stack — the property that makes dedup-by-key collapse
    // ten thousand hits of one bug into one crash record.
    fuzz::Divergence d;
    d.seed = 3;
    d.oracle = fuzz::Oracle::Defense;
    d.config_a = "none";
    d.config_b = "memcheck";
    d.source = "int main() {\n"
               "  char* p = malloc(8);\n"
               "  if ((int)p == 0) { return 1; }\n"
               "  return p[0 - 1];\n" /* header underflow: memcheck traps */
               "}\n";
    const fuzz::TriageResult t1 = fuzz::triage_divergence(d, 20'000'000);
    const fuzz::TriageResult t2 = fuzz::triage_divergence(d, 20'000'000);
    EXPECT_EQ(t1.key, t2.key);
    EXPECT_EQ(t1.frames, t2.frames);
    EXPECT_FALSE(t1.frames.empty());
    EXPECT_NE(t1.key.find("memcheck"), std::string::npos) << t1.key;
    EXPECT_NE(t1.key.find("poisoned"), std::string::npos) << t1.key;
}

TEST(Triage, UnrunnableConfigStillYieldsAStableKey) {
    fuzz::Divergence d;
    d.seed = 9;
    d.oracle = fuzz::Oracle::Defense;
    d.config_a = "none";
    d.config_b = "<compile>";
    d.source = "int main() { return 0; }\n";
    const fuzz::TriageResult t = fuzz::triage_divergence(d, 20'000'000);
    EXPECT_EQ(t.trap, "unrunnable");
    EXPECT_EQ(t.key, fuzz::triage_divergence(d, 20'000'000).key);
}

// ---- Monte-Carlo probabilistic defense curves ---------------------------

TEST(Curves, Wilson95IntervalIsSane) {
    const core::Wilson mid = core::wilson95(5, 10);
    EXPECT_GT(mid.lo, 0.0);
    EXPECT_LT(mid.lo, 0.5);
    EXPECT_GT(mid.hi, 0.5);
    EXPECT_LT(mid.hi, 1.0);
    const core::Wilson zero = core::wilson95(0, 10);
    EXPECT_EQ(zero.lo, 0.0);
    EXPECT_GT(zero.hi, 0.0); // honest at p = 0: upper bound stays positive
    const core::Wilson all = core::wilson95(10, 10);
    EXPECT_LT(all.lo, 1.0);
    EXPECT_NEAR(all.hi, 1.0, 1e-9);
    // More trials, tighter interval.
    const core::Wilson tight = core::wilson95(50, 100);
    EXPECT_LT(tight.hi - tight.lo, mid.hi - mid.lo);
    // Degenerate input: the whole [0, 1] interval, never a crash.
    const core::Wilson none = core::wilson95(0, 0);
    EXPECT_EQ(none.lo, 0.0);
    EXPECT_EQ(none.hi, 1.0);
}

core::CurveOptions small_curves(int jobs) {
    core::CurveOptions o;
    o.aslr_bits = {0, 2, 4};
    o.canary_budgets = {1, 4};
    o.canary_bits = 4;
    o.trials = 40;
    o.seed = 5;
    o.jobs = jobs;
    return o;
}

TEST(Curves, SerialAndParallelArtifactsAreByteIdentical) {
    const core::CurveReport a = core::run_curves(small_curves(1));
    const core::CurveReport b = core::run_curves(small_curves(3));
    EXPECT_EQ(a.to_jsonl(), b.to_jsonl());
    EXPECT_EQ(a.summary(), b.summary());
    EXPECT_EQ(a.total_runs(), b.total_runs());
}

TEST(Curves, CellsCarryModelsAndHonestIntervals) {
    const core::CurveReport r = core::run_curves(small_curves(1));
    ASSERT_EQ(r.cells.size(), 5u); // 3 aslr + 2 canary
    // Zero entropy: the probe's layout always matches — certainty, modelled
    // and measured.
    EXPECT_EQ(r.cells[0].family, "aslr");
    EXPECT_EQ(r.cells[0].p_hat, 1.0);
    EXPECT_EQ(r.cells[0].model, 1.0);
    // Entropy lowers the attacker's probability (deterministic given seed).
    EXPECT_GT(r.cells[0].p_hat, r.cells[2].p_hat);
    for (const core::CurveCell& c : r.cells) {
        EXPECT_EQ(c.trials, 40u);
        EXPECT_LE(c.wilson_lo, c.p_hat);
        EXPECT_GE(c.wilson_hi, c.p_hat);
        EXPECT_GE(c.model, 0.0);
        EXPECT_LE(c.model, 1.0);
    }
    // Analytic models: 2^-k for aslr, 1 - (1 - 2^-j)^B for canary.
    EXPECT_NEAR(r.cells[1].model, 0.25, 1e-12);
    EXPECT_NEAR(r.cells[3].model, 1.0 - std::pow(1.0 - 1.0 / 16.0, 1.0), 1e-12);
    EXPECT_NEAR(r.cells[4].model, 1.0 - std::pow(1.0 - 1.0 / 16.0, 4.0), 1e-12);
    // The jsonl artifact carries the CI fields on every line.
    const std::string jsonl = r.to_jsonl();
    EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 5);
    EXPECT_NE(jsonl.find("\"wilson_lo\":"), std::string::npos);
    EXPECT_NE(jsonl.find("\"wilson_hi\":"), std::string::npos);
}

TEST(Curves, MetricsExportUsesTheRegistrySchema) {
    const core::CurveReport r = core::run_curves(small_curves(1));
    const profile::Registry reg = core::curve_metrics(r);
    const std::string json = reg.to_json();
    EXPECT_NE(json.find("\"schema\":\"swsec-metrics-v1\""), std::string::npos);
    EXPECT_NE(json.find("curve_trials_total"), std::string::npos);
    EXPECT_NE(json.find("curve_p_hat"), std::string::npos);
}

} // namespace
