#include "fuzz/evolve.hpp"

#include <map>
#include <memory>
#include <utility>

#include "cc/compiler.hpp"
#include "common/error.hpp"
#include "common/escape.hpp"
#include "common/rng.hpp"
#include "core/parallel.hpp"
#include "os/process.hpp"
#include "profile/profiler.hpp"
#include "profile/symbolize.hpp"

namespace swsec::fuzz {

RunConfig resolve_config(const std::string& name) {
    const auto& defenses = core::standard_defenses();
    RunConfig rc;
    if (name == "<compile>") {
        return rc;
    }
    std::string base = name;
    const auto strip = [&](const std::string& sfx) {
        if (base.size() > sfx.size() &&
            base.compare(base.size() - sfx.size(), sfx.size(), sfx) == 0) {
            base.resize(base.size() - sfx.size());
            return true;
        }
        return false;
    };
    // check_program's engine pairs name a defense's own run (tier 2, decode
    // cache on) "+dcache" or "+tier2", and its reference run, with the
    // decode cache off, "-dcache" or "+tier1".
    const bool reference = strip("-dcache") || strip("+tier1");
    if (!reference && !strip("+dcache")) {
        strip("+tier2");
    }
    if (base == "fold" || base == "runtime") {
        base = defenses[0].name; // the ConstFold probe runs on the baseline
    }
    for (const core::Defense& d : defenses) {
        if (d.name == base) {
            rc.runnable = true;
            rc.defense = d;
            rc.defense.profile.decode_cache = !reference;
            return rc;
        }
    }
    return rc;
}

namespace {

/// Corpus entry: the model plus the new-bucket yield it was admitted with.
/// Yield is the scheduling weight — seeds that opened more of the program
/// space breed proportionally more children.
struct CorpusEntry {
    ProgramModel model;
    std::uint64_t yield = 1;
};

std::size_t pick_weighted(const std::vector<CorpusEntry>& corpus, Rng& rng) {
    std::uint64_t total = 0;
    for (const CorpusEntry& e : corpus) {
        total += e.yield;
    }
    std::uint64_t r = rng.next_u64() % total;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        if (r < corpus[i].yield) {
            return i;
        }
        r -= corpus[i].yield;
    }
    return corpus.size() - 1;
}

} // namespace

TriageResult triage_divergence(const Divergence& d, std::uint64_t max_steps) {
    TriageResult t;
    // Re-run the *deviating* side: for Defense/Engine that is config_b (the
    // baseline or reference engine is config_a); ConstFold's pair names the
    // probe, which lives in the baseline run either way.
    const RunConfig rc = resolve_config(d.config_b.empty() ? d.config_a : d.config_b);
    if (!rc.runnable) {
        t.trap = "unrunnable";
        t.key = std::string(oracle_name(d.oracle)) + "|" + d.config_a + "|" + d.config_b +
                "|unrunnable";
        return t;
    }
    try {
        const auto image = std::make_shared<const objfmt::Image>(
            cc::compile_program({d.source}, rc.defense.copts));
        profile::Profiler prof;
        prof.set_sample_interval(0); // shadow stack only; no samples needed
        os::SecurityProfile p = rc.defense.profile;
        p.tracer = nullptr;
        p.profiler = &prof;
        os::Process proc(image, p, d.seed);
        const vm::RunResult r = proc.run(max_steps);
        const profile::Symbolizer sym(proc.image(), proc.layout().text_base);
        for (const std::uint32_t pc : prof.shadow_stack()) {
            t.frames.push_back(sym.pretty(pc));
        }
        t.frames.push_back(sym.pretty(r.trap.ip));
        t.trap = std::string(vm::trap_name(r.trap.kind)) + "/" +
                 trace::check_origin_name(r.trap.origin);
    } catch (const Error& e) {
        t.trap = "compile-error";
        t.frames.push_back(e.what());
    }
    std::string stack;
    for (const std::string& f : t.frames) {
        if (!stack.empty()) {
            stack += ";";
        }
        stack += f;
    }
    t.key = std::string(oracle_name(d.oracle)) + "|" + d.config_b + "|" + t.trap + "|" + stack;
    return t;
}

EvolveReport run_evolve(const EvolveOptions& opts) {
    EvolveReport report;
    report.seed = opts.seed;
    const int budget = opts.execs < 1 ? 1 : opts.execs;
    const int batch = opts.batch < 1 ? 1 : opts.batch;
    const int init_n = opts.init_programs < 1 ? 1 : opts.init_programs;

    std::vector<CorpusEntry> corpus;
    trace::CoverageBitmap cumulative;
    std::map<std::string, std::size_t> crash_index; // key -> index in report.crashes

    struct Candidate {
        ProgramModel model;
        std::uint64_t eval_seed = 0;
    };
    struct EvalResult {
        trace::CoverageBitmap bitmap;
        std::vector<Divergence> divs;
        FuzzReport stats;
    };

    int executed = 0;
    int round = 0;
    while (executed < budget) {
        // ---- breed this round's candidates (serial, deterministic) --------
        std::vector<Candidate> cands;
        if (round == 0) {
            const int n = init_n < budget ? init_n : budget;
            for (int i = 0; i < n; ++i) {
                Candidate c;
                c.eval_seed = mix64(opts.seed, static_cast<std::uint64_t>(i));
                c.model = generate_model(opts.seed + static_cast<std::uint64_t>(i));
                c.model.seed = c.eval_seed;
                cands.push_back(std::move(c));
            }
        } else {
            Rng rng(mix64(opts.seed, 0xB00B5000ULL + static_cast<std::uint64_t>(round)));
            const int remaining = budget - executed;
            const int n = batch < remaining ? batch : remaining;
            for (int i = 0; i < n; ++i) {
                Candidate c;
                c.eval_seed = mix64(opts.seed, (static_cast<std::uint64_t>(round) << 20) +
                                                   static_cast<std::uint64_t>(i));
                const std::size_t pa = pick_weighted(corpus, rng);
                if (corpus.size() >= 2 && rng.below(10) < 3) {
                    // AFL-style: splice two parents, then havoc the child.
                    std::size_t pb = pick_weighted(corpus, rng);
                    if (pb == pa) {
                        pb = (pb + 1) % corpus.size();
                    }
                    c.model = havoc(splice(corpus[pa].model, corpus[pb].model, rng), rng);
                } else {
                    c.model = havoc(corpus[pa].model, rng);
                }
                c.model.seed = c.eval_seed;
                cands.push_back(std::move(c));
            }
        }

        // ---- evaluate share-nothing in parallel ---------------------------
        std::vector<EvalResult> results(cands.size());
        core::parallel_for(cands.size(), opts.jobs, [&](std::size_t i) {
            const std::string source = cands[i].model.render().render();
            EvalResult& r = results[i];
            r.divs = check_program(source, cands[i].eval_seed, kMaxSteps, &r.stats, &r.bitmap);
        });

        // ---- merge serially in slot order (jobs-independent) --------------
        for (std::size_t i = 0; i < cands.size(); ++i) {
            EvalResult& r = results[i];
            ++executed;
            ++report.execs;
            report.runs += r.stats.runs;
            const std::uint32_t fresh = cumulative.merge_new(r.bitmap);
            report.curve.push_back(cumulative.popcount());
            if (fresh > 0 && corpus.size() < opts.max_corpus) {
                corpus.push_back(CorpusEntry{cands[i].model, fresh});
            }
            report.divergences_total += r.divs.size();
            for (Divergence& d : r.divs) {
                const TriageResult t = triage_divergence(d, kMaxSteps);
                const auto it = crash_index.find(t.key);
                if (it == crash_index.end()) {
                    crash_index.emplace(t.key, report.crashes.size());
                    CrashRecord rec;
                    rec.div = std::move(d);
                    rec.key = t.key;
                    rec.frames = t.frames;
                    report.crashes.push_back(std::move(rec));
                } else {
                    ++report.crashes[it->second].hits;
                }
            }
        }
        ++round;

        // Defensive: an empty corpus cannot breed — reseed from the first
        // init model.  (Unreachable in practice: every program lights at
        // least its own entry edges in an empty cumulative map.)
        if (corpus.empty()) {
            corpus.push_back(CorpusEntry{generate_model(opts.seed), 1});
        }
    }

    report.rounds = round;
    report.corpus_size = static_cast<int>(corpus.size());
    report.total_buckets = cumulative.popcount();
    return report;
}

std::string EvolveReport::summary() const {
    std::string s = "evolve: seed=" + std::to_string(seed) + " execs=" + std::to_string(execs) +
                    " rounds=" + std::to_string(rounds) + " runs=" + std::to_string(runs) +
                    " corpus=" + std::to_string(corpus_size) +
                    " buckets=" + std::to_string(total_buckets) +
                    " divergences=" + std::to_string(divergences_total) +
                    " unique-crashes=" + std::to_string(crashes.size()) + "\n";
    for (const CrashRecord& c : crashes) {
        s += "crash: hits=" + std::to_string(c.hits) + " key=" + c.key + "\n";
    }
    return s;
}

std::string EvolveReport::to_json() const {
    std::string s = "{\"schema\":\"swsec-evolve-v1\",\"seed\":" + std::to_string(seed) +
                    ",\"execs\":" + std::to_string(execs) +
                    ",\"rounds\":" + std::to_string(rounds) + ",\"runs\":" + std::to_string(runs) +
                    ",\"corpus\":" + std::to_string(corpus_size) +
                    ",\"buckets\":" + std::to_string(total_buckets) +
                    ",\"divergences\":" + std::to_string(divergences_total) +
                    ",\"unique_crashes\":" + std::to_string(crashes.size()) + ",\"curve\":[";
    // Thin the per-exec curve to <= 32 evenly spaced points, always ending
    // on the final value, so campaign payloads stay bounded at any budget.
    const std::size_t n = curve.size();
    const std::size_t points = n < 32 ? n : 32;
    for (std::size_t k = 0; k < points; ++k) {
        const std::size_t idx = points == 1 ? n - 1 : (k * (n - 1)) / (points - 1);
        if (k != 0) {
            s += ",";
        }
        s += std::to_string(curve[idx]);
    }
    s += "],\"crashes\":[";
    for (std::size_t i = 0; i < crashes.size(); ++i) {
        if (i != 0) {
            s += ",";
        }
        s += "{\"key\":\"" + json_escape(crashes[i].key) +
             "\",\"hits\":" + std::to_string(crashes[i].hits) +
             ",\"seed\":" + std::to_string(crashes[i].div.seed) + ",\"oracle\":\"" +
             json_escape(oracle_name(crashes[i].div.oracle)) + "\"}";
    }
    s += "]}";
    return s;
}

std::string EvolveReport::curve_csv() const {
    std::string s = "exec,cumulative\n";
    for (std::size_t i = 0; i < curve.size(); ++i) {
        s += std::to_string(i) + "," + std::to_string(curve[i]) + "\n";
    }
    return s;
}

profile::Registry evolve_metrics(const EvolveReport& report) {
    profile::Registry reg;
    const profile::Labels base = {{"harness", "evolve"}};
    reg.counter_add("evolve_execs_total", base, static_cast<std::uint64_t>(report.execs));
    reg.counter_add("evolve_rounds_total", base, static_cast<std::uint64_t>(report.rounds));
    reg.counter_add("evolve_runs_total", base, report.runs);
    reg.counter_add("evolve_divergences_total", base, report.divergences_total);
    reg.counter_add("evolve_unique_crashes_total", base, report.crashes.size());
    reg.gauge_set("evolve_corpus_size", base, static_cast<double>(report.corpus_size));
    reg.gauge_set("coverage_edges", base, static_cast<double>(report.total_buckets));
    return reg;
}

} // namespace swsec::fuzz
