#include "fuzz/fuzz.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <exception>
#include <map>
#include <memory>
#include <utility>

#include "cc/compiler.hpp"
#include "common/error.hpp"
#include "core/defense.hpp"
#include "core/image_cache.hpp"
#include "core/parallel.hpp"
#include "os/process.hpp"
#include "profile/profiler.hpp"

namespace swsec::fuzz {

namespace {

/// Ring capacity for the engine oracle's tracers, small enough to keep the
/// rings cheap.  A long generated program records more events than this
/// (seed 143 records 14 484), so a ring keeps the tail, and each of the two
/// tracers folds the events it evicts into a digest that the oracle
/// compares as well.
constexpr std::size_t kTraceCapacity = 8192;

/// Seeds per `coverage-batch` line of a --coverage summary's curve.
constexpr std::size_t kCoverageBatch = 100;

/// Observable behaviour of one run: fd-1 bytes and the final trap's kind
/// and code.  Steps are excluded from equality: configurations legitimately
/// execute different instruction counts.
struct Observed {
    std::string out;
    std::string trap;

    [[nodiscard]] bool same(const Observed& o) const { return out == o.out && trap == o.trap; }
    [[nodiscard]] std::string describe() const { return out + "[trap] " + trap + "\n"; }
};

void add_counters(trace::Counters& into, const trace::Counters& c) {
    into.instructions += c.instructions;
    into.traps += c.traps;
    into.mem_faults += c.mem_faults;
    into.syscalls += c.syscalls;
    into.pma_transitions += c.pma_transitions;
    into.faults_injected += c.faults_injected;
    into.heap_allocs += c.heap_allocs;
    into.heap_frees += c.heap_frees;
    into.dcache_hits += c.dcache_hits;
    into.dcache_misses += c.dcache_misses;
}

/// Per-program compile memo.  The source is parsed and analysed once, and
/// images depend only on CompilerOptions (the platform half of a Defense
/// never reaches the compiler), so the 11 standard defenses share one AST
/// and 5 back-half builds, keyed by cc::compiler_options_key as the
/// machine-wide image cache and the compiler's runtime memo are.  A parse or
/// sema error is rethrown by every get(), so each defense still reports it.
/// Every run of the program shares the memoized image instead of copying it.
class CompileMemo {
public:
    explicit CompileMemo(const std::string& source) {
        try {
            program_ = cc::parse_program({source});
        } catch (const Error&) {
            parse_error_ = std::current_exception();
        }
    }

    std::shared_ptr<const objfmt::Image> get(const cc::CompilerOptions& copts) {
        if (parse_error_) {
            std::rethrow_exception(parse_error_);
        }
        const std::string key = cc::compiler_options_key(copts);
        auto it = images_.find(key);
        if (it == images_.end()) {
            it = images_
                     .emplace(key, std::make_shared<const objfmt::Image>(
                                       cc::build_program(program_, copts)))
                     .first;
        }
        return it->second;
    }

private:
    cc::ParsedProgram program_;
    std::exception_ptr parse_error_;
    std::map<std::string, std::shared_ptr<const objfmt::Image>> images_;
};

/// Everything one run leaves behind: the final registers, ip, step count,
/// full trap and output.  The engine oracle (tier 2, the engine's fused
/// loop, vs tier 1, its observed loop throughout) compares all of it
/// exactly; the defense oracle compares only `behaviour()`.
struct ObservedArch {
    std::array<std::uint32_t, isa::kNumRegs> regs{};
    std::uint32_t ip = 0;
    std::uint64_t steps = 0;
    vm::Trap trap;
    std::string out;

    [[nodiscard]] bool same(const ObservedArch& o) const {
        return regs == o.regs && ip == o.ip && steps == o.steps && trap.kind == o.trap.kind &&
               trap.ip == o.trap.ip && trap.addr == o.trap.addr && trap.code == o.trap.code &&
               trap.detail == o.trap.detail && out == o.out;
    }
    [[nodiscard]] std::string describe() const {
        std::string s = out + "[trap] " + trap.to_string() + "\n[state]";
        for (std::size_t i = 0; i < regs.size(); ++i) {
            s += " r" + std::to_string(i) + "=" + std::to_string(regs[i]);
        }
        s += " ip=" + std::to_string(ip) + " steps=" + std::to_string(steps) + "\n";
        return s;
    }
    /// Observable termination is the trap *kind and code*, never ip/addr,
    /// which ASLR legitimately randomizes for identical behaviour.
    [[nodiscard]] Observed behaviour() const {
        return {out, vm::trap_name(trap.kind) + " code=" + std::to_string(trap.code)};
    }
};

void add_dispatch(FuzzReport& stats, const vm::DispatchStats& d) {
    stats.tier2_entries += d.tier2_entries;
    stats.fast_steps += d.fast_steps;
    stats.superinsns_retired += d.superinsns_retired;
    stats.deopts += d.deopts();
}

/// One execution of `image` under `profile` (profiler detached, `tracer`
/// attached when given), counted into `stats` when given.  A traced run's
/// instructions are the tracer's retired events; an untraced run's are its
/// steps.
ObservedArch run(const std::shared_ptr<const objfmt::Image>& image,
                 const os::SecurityProfile& profile, std::uint64_t seed,
                 std::uint64_t max_steps, FuzzReport* stats, trace::Tracer* tracer = nullptr) {
    os::SecurityProfile p = profile;
    p.tracer = tracer;
    p.profiler = nullptr;
    os::Process proc(image, p, seed);
    const vm::RunResult r = proc.run(max_steps);
    ObservedArch a;
    for (std::size_t i = 0; i < a.regs.size(); ++i) {
        a.regs[i] = proc.machine().reg(static_cast<isa::Reg>(i));
    }
    a.ip = proc.machine().ip();
    a.steps = r.steps;
    a.trap = r.trap;
    a.out = proc.output();
    if (stats != nullptr) {
        ++stats->runs;
        if (tracer != nullptr) {
            add_counters(stats->counters, tracer->counters());
        } else {
            stats->counters.instructions += r.steps;
            ++stats->counters.traps;
        }
        add_dispatch(*stats, proc.machine().dispatch_stats());
    }
    return a;
}

/// What first_trace_mismatch returns for two traces that agree, and for two
/// whose retained events and totals agree but whose evicted events differ.
constexpr std::ptrdiff_t kTracesAgree = -1;
constexpr std::ptrdiff_t kEvictedEventsDiffer = -2;

/// Event-for-event trace equality (the byte-identical-JSONL oracle without
/// the string building), read in place from both rings, plus the eviction
/// digests of the events a long run pushed out of them.  On mismatch
/// returns the first differing retained index, or kEvictedEventsDiffer.
std::ptrdiff_t first_trace_mismatch(const trace::Tracer& x, const trace::Tracer& y) {
    const std::size_t n = std::min(x.size(), y.size());
    for (std::size_t i = 0; i < n; ++i) {
        const trace::TraceEvent& a = x.event(i);
        const trace::TraceEvent& b = y.event(i);
        if (a.kind != b.kind || a.step != b.step || a.pc != b.pc || a.module != b.module ||
            a.kernel != b.kernel || a.origin != b.origin || a.code != b.code || a.a != b.a ||
            a.b != b.b || a.detail != b.detail) {
            return static_cast<std::ptrdiff_t>(i);
        }
    }
    if (x.size() != y.size() || x.total_recorded() != y.total_recorded()) {
        return static_cast<std::ptrdiff_t>(n);
    }
    if (x.evicted_digest() != y.evicted_digest()) {
        return kEvictedEventsDiffer;
    }
    return kTracesAgree;
}

/// The divergence note for one side of a trace mismatch: the JSON of the
/// ring's event at `mismatch` ("<missing>" past its end), or the count and
/// digest of the events it evicted.
std::string trace_mismatch_note(const trace::Tracer& t, std::ptrdiff_t mismatch) {
    if (mismatch == kEvictedEventsDiffer) {
        return "[trace evicted] " + std::to_string(t.dropped()) + " events, digest " +
               std::to_string(t.evicted_digest()) + "\n";
    }
    const auto i = static_cast<std::size_t>(mismatch);
    return "[trace #" + std::to_string(i) + "] " +
           (i < t.size() ? t.event(i).to_json() : std::string("<missing>")) + "\n";
}

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size())) {
        ++n;
    }
    return n;
}

// ---- repro escaping -----------------------------------------------------

std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\\':
            out += "\\\\";
            break;
        default:
            out.push_back(c);
        }
    }
    return out;
}

std::string unescape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\' || i + 1 >= s.size()) {
            out.push_back(s[i]);
            continue;
        }
        ++i;
        switch (s[i]) {
        case 'n':
            out.push_back('\n');
            break;
        case 'r':
            out.push_back('\r');
            break;
        case 't':
            out.push_back('\t');
            break;
        default:
            out.push_back(s[i]);
        }
    }
    return out;
}

} // namespace

const char* oracle_name(Oracle o) noexcept {
    switch (o) {
    case Oracle::Defense:
        return "defense";
    case Oracle::Engine:
        return "engine";
    case Oracle::ConstFold:
        return "const-fold";
    }
    return "?";
}

bool oracle_from_name(const std::string& name, Oracle& out) noexcept {
    if (name == "defense") {
        out = Oracle::Defense;
    } else if (name == "engine") {
        out = Oracle::Engine;
    } else if (name == "const-fold") {
        out = Oracle::ConstFold;
    } else {
        return false;
    }
    return true;
}

std::vector<Divergence> check_program(const std::string& source, std::uint64_t seed,
                                      std::uint64_t max_steps, FuzzReport* stats) {
    std::vector<Divergence> divs;
    const auto& defenses = core::standard_defenses();
    CompileMemo memo(source);

    const auto report = [&](Oracle oracle, const std::string& a, const std::string& b,
                            std::string out_a, std::string out_b) {
        divs.push_back(Divergence{seed, oracle, a, b, std::move(out_a), std::move(out_b), source});
    };

    // The engine oracle's configurations: "sanitize" rides along, because
    // its compiled shadow checks are ordinary instructions, so tier 2 and
    // the decode cache must be transparent through them exactly as for
    // uninstrumented code.
    const auto engine_checked = [&](const core::Defense& d) {
        return d.name == defenses[0].name || d.name == "all-mitigations" || d.name == "sanitize";
    };

    // ---- oracles 1 and 2: every benign defense preserves behaviour, and
    // the execution engine's fast paths are invisible ----------------------
    // Every standard defense runs once as is: tier 2 (the fused loop) with
    // the decode cache on.  An engine-checked defense runs that run traced,
    // and once more, traced, with the decode cache off: the observed loop
    // fetching every instruction through Machine::fetch, the reference for
    // both the cache and tier 2.  The two must agree on behaviour, on the
    // event trace (the byte-identical-JSONL property, read event for event
    // plus the eviction digests) and on the full end state: registers, ip,
    // the exact step count, the trap (kind/ip/addr/detail) and output.  The
    // two runs share one seed and one profile, so one layout, and any
    // difference is an engine bug (cache, fusion, page-change or budget
    // handling), not ASLR.
    Observed baseline;
    trace::Tracer on_trace(kTraceCapacity, trace::Tracer::kEvictionDigest);
    trace::Tracer off_trace(kTraceCapacity, trace::Tracer::kEvictionDigest);
    for (std::size_t i = 0; i < defenses.size(); ++i) {
        const core::Defense& d = defenses[i];
        std::shared_ptr<const objfmt::Image> image;
        try {
            image = memo.get(d.copts);
        } catch (const Error& e) {
            report(Oracle::Defense, "<compile>", d.name, e.what(), "");
            continue;
        }
        const bool checked = engine_checked(d);
        on_trace.clear();
        const ObservedArch tier2 =
            run(image, d.profile, seed, max_steps, stats, checked ? &on_trace : nullptr);
        const Observed obs = tier2.behaviour();
        if (i == 0) {
            baseline = obs;
        } else if (!obs.same(baseline)) {
            report(Oracle::Defense, defenses[0].name, d.name, baseline.describe(), obs.describe());
        }
        if (!checked) {
            continue;
        }
        off_trace.clear();
        os::SecurityProfile off_profile = d.profile;
        off_profile.decode_cache = false;
        const ObservedArch ref = run(image, off_profile, seed, max_steps, stats, &off_trace);
        const Observed off = ref.behaviour();
        const std::ptrdiff_t mismatch = first_trace_mismatch(on_trace, off_trace);
        if (!obs.same(off) || mismatch != kTracesAgree) {
            std::string out_a = obs.describe();
            std::string out_b = off.describe();
            if (mismatch != kTracesAgree) {
                out_a += trace_mismatch_note(on_trace, mismatch);
                out_b += trace_mismatch_note(off_trace, mismatch);
            }
            report(Oracle::Engine, d.name + "+dcache", d.name + "-dcache", std::move(out_a),
                   std::move(out_b));
        }
        if (!tier2.same(ref)) {
            report(Oracle::Engine, d.name + "+tier2", d.name + "+tier1", tier2.describe(),
                   ref.describe());
        }
    }

    // ---- oracle 3: compile-time folding agrees with run-time -------------
    // The program self-checks each folded global against the identical
    // expression recomputed through the VM's ALU and prints a marker (plus
    // both values) on disagreement.
    if (stats != nullptr) {
        stats->const_checks += count_occurrences(source, kFoldMismatchMarker);
    }
    if (baseline.out.find(kFoldMismatchMarker) != std::string::npos) {
        report(Oracle::ConstFold, "fold", "runtime", baseline.describe(), "");
    }

    return divs;
}

profile::CoverageBitmap program_coverage(const std::string& source, std::uint64_t seed,
                                         std::uint64_t max_steps) {
    profile::CoverageBitmap bmp;
    const core::Defense baseline = core::Defense::none();
    const auto image = core::cached_compile(source, baseline.copts);
    profile::Profiler prof;
    prof.set_sample_interval(0); // coverage only: no stack samples needed
    os::SecurityProfile p = baseline.profile;
    p.profiler = &prof;
    os::Process proc(image, p, seed);
    prof.set_coverage(&bmp, proc.layout().text_base, proc.layout().text_size);
    (void)proc.run(max_steps);
    return bmp;
}

namespace {

/// Bucket indices set in `seed_bmp` but not yet in `cumulative`.
std::vector<std::uint32_t> fresh_buckets(const profile::CoverageBitmap& seed_bmp,
                                         const profile::CoverageBitmap& cumulative) {
    std::vector<std::uint32_t> out;
    const auto& sw = seed_bmp.words();
    const auto& cw = cumulative.words();
    for (std::size_t w = 0; w < sw.size(); ++w) {
        std::uint64_t fresh = sw[w] & ~cw[w];
        while (fresh != 0) {
            const auto bit = static_cast<std::uint32_t>(std::countr_zero(fresh));
            out.push_back(static_cast<std::uint32_t>(w) * 64 + bit);
            fresh &= fresh - 1;
        }
    }
    return out;
}

/// Greedy chunk prioritization: drop every chunk whose removal keeps at
/// least one of `targets` covered, returning the indices that survive —
/// the part of the program that actually reaches the new edges.
std::vector<std::size_t> prioritize_chunks(const GenProgram& prog, std::uint64_t seed,
                                           std::uint64_t max_steps,
                                           const std::vector<std::uint32_t>& targets) {
    const auto hits_target = [&](const std::string& source) {
        const profile::CoverageBitmap bmp = program_coverage(source, seed, max_steps);
        for (const std::uint32_t b : targets) {
            if (bmp.test(b)) {
                return true;
            }
        }
        return false;
    };
    std::vector<bool> keep(prog.chunks.size(), true);
    for (std::size_t i = 0; i < keep.size(); ++i) {
        keep[i] = false;
        if (!hits_target(prog.render_subset(keep))) {
            keep[i] = true;
        }
    }
    std::vector<std::size_t> kept;
    for (std::size_t i = 0; i < keep.size(); ++i) {
        if (keep[i]) {
            kept.push_back(i);
        }
    }
    return kept;
}

} // namespace

FuzzReport run_fuzz(const FuzzOptions& opts) {
    struct SeedResult {
        std::vector<Divergence> divs;
        FuzzReport stats;
        std::unique_ptr<profile::CoverageBitmap> bitmap;
    };
    const auto n = static_cast<std::size_t>(opts.seeds < 0 ? 0 : opts.seeds);
    std::vector<SeedResult> results(n);

    core::parallel_for(n, opts.jobs, [&](std::size_t i) {
        const std::uint64_t seed = opts.seed_base + i;
        const GenProgram prog = generate_program(seed);
        SeedResult& r = results[i];
        r.divs = check_program(prog.render(), seed, opts.max_steps, &r.stats);
        if (opts.coverage) {
            r.bitmap = std::make_unique<profile::CoverageBitmap>(
                program_coverage(prog.render(), seed, opts.max_steps));
        }
        if (opts.minimize) {
            for (Divergence& d : r.divs) {
                const Divergence target = d;
                std::uint64_t rounds = 0;
                const GenProgram small = minimize(prog, [&](const std::string& candidate) {
                    for (const Divergence& x :
                         check_program(candidate, seed, opts.max_steps, nullptr)) {
                        if (x.oracle == target.oracle && x.config_a == target.config_a &&
                            x.config_b == target.config_b) {
                            return true;
                        }
                    }
                    return false;
                }, &rounds);
                d.source = small.render();
                r.stats.minimizer_rounds.push_back(rounds);
            }
        }
    });

    // Index-ordered merge: byte-identical for any jobs value.
    FuzzReport report;
    report.programs = static_cast<int>(n);
    for (SeedResult& r : results) {
        report.runs += r.stats.runs;
        report.const_checks += r.stats.const_checks;
        add_counters(report.counters, r.stats.counters);
        report.tier2_entries += r.stats.tier2_entries;
        report.fast_steps += r.stats.fast_steps;
        report.superinsns_retired += r.stats.superinsns_retired;
        report.deopts += r.stats.deopts;
        report.seed_runs.push_back(r.stats.runs);
        report.minimizer_rounds.insert(report.minimizer_rounds.end(),
                                       r.stats.minimizer_rounds.begin(),
                                       r.stats.minimizer_rounds.end());
        for (Divergence& d : r.divs) {
            report.divergences.push_back(std::move(d));
        }
    }

    // Cumulative coverage: per-seed bitmaps were computed share-nothing in
    // the parallel phase; the merge (and the chunk prioritization of the
    // few interesting seeds) runs serially in seed order, so the curve —
    // monotone by construction — is identical for any jobs value.
    if (opts.coverage) {
        report.coverage.enabled = true;
        profile::CoverageBitmap cumulative;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t seed = opts.seed_base + i;
            const std::vector<std::uint32_t> fresh = fresh_buckets(*results[i].bitmap, cumulative);
            const std::uint32_t grew = cumulative.merge_new(*results[i].bitmap);
            report.coverage.new_edges.push_back(grew);
            report.coverage.cumulative.push_back(cumulative.popcount());
            if (!fresh.empty()) {
                CoverageReport::InterestingSeed is;
                is.seed = seed;
                is.new_buckets = grew;
                is.chunks = prioritize_chunks(generate_program(seed), seed, opts.max_steps, fresh);
                report.coverage.interesting.push_back(std::move(is));
            }
        }
        report.coverage.total_edges = cumulative.popcount();
    }
    return report;
}

profile::Registry fuzz_metrics(const FuzzReport& report) {
    profile::Registry reg;
    const profile::Labels base = {{"harness", "fuzz"}};
    reg.counter_add("fuzz_programs_total", base, static_cast<std::uint64_t>(report.programs));
    reg.counter_add("fuzz_runs_total", base, report.runs);
    reg.counter_add("fuzz_const_checks_total", base, report.const_checks);
    reg.counter_add("fuzz_divergences_total", base, report.divergences.size());
    reg.counter_add("victim_instructions_total", base, report.counters.instructions);
    reg.counter_add("dcache_hits_total", base, report.counters.dcache_hits);
    reg.counter_add("dcache_misses_total", base, report.counters.dcache_misses);
    reg.counter_add("syscalls_total", base, report.counters.syscalls);
    reg.counter_add("heap_allocs_total", base, report.counters.heap_allocs);
    reg.counter_add("heap_frees_total", base, report.counters.heap_frees);
    // vm.dispatch.*: which execution tier did the work (DESIGN.md §13).
    reg.counter_add("vm_dispatch_tier2_entries_total", base, report.tier2_entries);
    reg.counter_add("vm_dispatch_fast_steps_total", base, report.fast_steps);
    reg.counter_add("vm_dispatch_superinsns_retired_total", base, report.superinsns_retired);
    reg.counter_add("vm_dispatch_deopts_total", base, report.deopts);
    if (report.coverage.enabled) {
        reg.gauge_set("coverage_edges", base, static_cast<double>(report.coverage.total_edges));
        reg.counter_add("coverage_interesting_seeds_total", base,
                        report.coverage.interesting.size());
    }
    // Distributions the totals above flatten: how many differential
    // executions each seed cost (extra re-runs mean a divergence path) and
    // how many fixpoint passes each minimization took.
    for (const std::uint64_t runs : report.seed_runs) {
        reg.histogram_observe("fuzz_seed_runs", base, runs);
    }
    for (const std::uint64_t rounds : report.minimizer_rounds) {
        reg.histogram_observe("fuzz_minimizer_rounds", base, rounds);
    }
    reg.set_help("dcache_misses_total",
                 "Traced steps whose instruction the decode cache did not serve (cache-off "
                 "runs fetch every step)");
    reg.set_help("fuzz_seed_runs", "Differential process executions per fuzzed seed");
    reg.set_help("fuzz_minimizer_rounds",
                 "Greedy minimizer fixpoint passes per minimized divergence");
    return reg;
}

std::string CoverageReport::curve_csv(std::uint64_t seed_base) const {
    std::string s = "index,seed,new_edges,cumulative\n";
    for (std::size_t i = 0; i < cumulative.size(); ++i) {
        s += std::to_string(i) + "," + std::to_string(seed_base + i) + "," +
             std::to_string(new_edges[i]) + "," + std::to_string(cumulative[i]) + "\n";
    }
    return s;
}

std::string FuzzReport::summary() const {
    std::string s = "fuzz: programs=" + std::to_string(programs) +
                    " runs=" + std::to_string(runs) +
                    " instructions=" + std::to_string(counters.instructions) +
                    " const-checks=" + std::to_string(const_checks) +
                    " divergences=" + std::to_string(divergences.size()) + "\n";
    if (coverage.enabled) {
        s += "coverage: edges=" + std::to_string(coverage.total_edges) + "/" +
             std::to_string(profile::CoverageBitmap::kBuckets) +
             " interesting-seeds=" + std::to_string(coverage.interesting.size()) + "\n";
        for (std::size_t i = 0; i < coverage.cumulative.size(); i += kCoverageBatch) {
            const std::size_t last = i + kCoverageBatch < coverage.cumulative.size()
                                         ? i + kCoverageBatch - 1
                                         : coverage.cumulative.size() - 1;
            std::uint64_t fresh = 0;
            for (std::size_t j = i; j <= last; ++j) {
                fresh += coverage.new_edges[j];
            }
            s += "coverage-batch seeds[" + std::to_string(i) + ".." + std::to_string(last) +
                 "]: cumulative=" + std::to_string(coverage.cumulative[last]) + " (+" +
                 std::to_string(fresh) + ")\n";
        }
    }
    for (const Divergence& d : divergences) {
        s += "divergence: seed=" + std::to_string(d.seed) + " oracle=" + oracle_name(d.oracle) +
             " configs='" + d.config_a + "' vs '" + d.config_b + "'\n";
    }
    return s;
}

GenProgram minimize(const GenProgram& prog,
                    const std::function<bool(const std::string&)>& still_diverges,
                    std::uint64_t* rounds_out) {
    std::vector<bool> keep(prog.chunks.size(), true);
    std::uint64_t rounds = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        ++rounds;
        for (std::size_t i = 0; i < keep.size(); ++i) {
            if (!keep[i]) {
                continue;
            }
            keep[i] = false;
            if (still_diverges(prog.render_subset(keep))) {
                changed = true;
            } else {
                keep[i] = true;
            }
        }
    }
    if (rounds_out != nullptr) {
        *rounds_out = rounds;
    }
    GenProgram out;
    out.seed = prog.seed;
    out.globals = prog.globals;
    out.helpers = prog.helpers;
    for (std::size_t i = 0; i < prog.chunks.size(); ++i) {
        if (keep[i]) {
            out.chunks.push_back(prog.chunks[i]);
        }
    }
    return out;
}

// ---- repro records ------------------------------------------------------

std::string to_repro(const Divergence& d) {
    std::string s = "repro-v1\n";
    s += "seed " + std::to_string(d.seed) + "\n";
    s += "oracle " + std::string(oracle_name(d.oracle)) + "\n";
    s += "config-a " + escape(d.config_a) + "\n";
    s += "config-b " + escape(d.config_b) + "\n";
    s += "output-a " + escape(d.output_a) + "\n";
    s += "output-b " + escape(d.output_b) + "\n";
    s += "source " + escape(d.source) + "\n";
    s += "end\n";
    return s;
}

std::string to_repro_file(const std::vector<Divergence>& ds) {
    std::string s;
    for (const Divergence& d : ds) {
        s += to_repro(d);
    }
    return s;
}

namespace {

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::string cur;
    for (const char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty()) {
        lines.push_back(cur);
    }
    return lines;
}

/// "key value..." -> value for a required field; throws otherwise.
std::string field(const std::string& line, const std::string& key) {
    if (line.size() < key.size() + 1 || line.compare(0, key.size(), key) != 0 ||
        line[key.size()] != ' ') {
        throw Error("malformed repro record: expected '" + key + "', got '" + line + "'");
    }
    return line.substr(key.size() + 1);
}

Divergence parse_record(const std::vector<std::string>& lines, std::size_t& i) {
    if (i >= lines.size() || lines[i] != "repro-v1") {
        throw Error("malformed repro record: missing 'repro-v1' header");
    }
    if (i + 8 > lines.size()) {
        throw Error("malformed repro record: truncated");
    }
    Divergence d;
    const std::string seed = field(lines[i + 1], "seed");
    const char* const end = seed.data() + seed.size();
    const auto [ptr, ec] = std::from_chars(seed.data(), end, d.seed);
    if (ec != std::errc{} || ptr != end) {
        throw Error("malformed repro record: seed '" + seed + "' is not a 64-bit unsigned number");
    }
    const std::string oracle = field(lines[i + 2], "oracle");
    if (!oracle_from_name(oracle, d.oracle)) {
        throw Error("malformed repro record: unknown oracle '" + oracle + "'");
    }
    d.config_a = unescape(field(lines[i + 3], "config-a"));
    d.config_b = unescape(field(lines[i + 4], "config-b"));
    d.output_a = unescape(field(lines[i + 5], "output-a"));
    d.output_b = unescape(field(lines[i + 6], "output-b"));
    d.source = unescape(field(lines[i + 7], "source"));
    if (i + 8 >= lines.size() || lines[i + 8] != "end") {
        throw Error("malformed repro record: missing 'end'");
    }
    i += 9;
    return d;
}

} // namespace

Divergence parse_repro(const std::string& text) {
    const std::vector<std::string> lines = split_lines(text);
    std::size_t i = 0;
    while (i < lines.size() && lines[i].empty()) {
        ++i;
    }
    return parse_record(lines, i);
}

std::vector<Divergence> parse_repro_file(const std::string& text) {
    const std::vector<std::string> lines = split_lines(text);
    std::vector<Divergence> out;
    std::size_t i = 0;
    while (i < lines.size()) {
        if (lines[i].empty() || lines[i][0] == '#') {
            ++i;
            continue;
        }
        out.push_back(parse_record(lines, i));
    }
    return out;
}

std::vector<Divergence> replay_repros(const std::vector<Divergence>& records,
                                      std::uint64_t max_steps, FuzzReport* stats) {
    std::vector<Divergence> out;
    for (const Divergence& r : records) {
        for (Divergence& d : check_program(r.source, r.seed, max_steps, stats)) {
            out.push_back(std::move(d));
        }
        if (stats != nullptr) {
            ++stats->programs;
        }
    }
    return out;
}

} // namespace swsec::fuzz
