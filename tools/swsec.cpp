// swsec — command-line driver for the toolchain and the experiment suite.
//
//   swsec run <file.mc> [options]      compile and run a MiniC program
//   swsec asm <file.mc> [options]      show the generated assembly
//   swsec disasm <file.mc> [options]   show the linked machine code
//   swsec lint <file.mc>               static memory-safety analysis
//   swsec gadgets <file.mc>            ROP-gadget census of the binary
//   swsec fig1                         regenerate the paper's Fig. 1
//   swsec matrix [--jobs N]            the attack/defense matrix
//                                      (--trace-out FILE: per-cell trap
//                                       provenance as JSONL)
//   swsec fault-sweep [options]        fail-closed fault-injection sweep
//                                      (--fault-seed N, --windows N, --jobs N,
//                                       --trace-out FILE for the baseline
//                                       cells' provenance;
//                                       exit 0 iff the invariant holds)
//   swsec trace <scenario>             run one observability scenario and
//                                      emit its event trace as JSONL on
//                                      stdout (the victim's counts go to
//                                      stderr);
//                                      --trace-out FILE, --no-decode-cache
//   swsec fuzz [options]               differential semantics-preservation
//                                      fuzzing: seeded benign MiniC programs
//                                      checked under every defense config,
//                                      decode-cache on/off, and compile-vs-
//                                      run constant folding (--seeds N,
//                                      --seed-base B, --jobs N, --minimize,
//                                      --replay FILE, --out FILE,
//                                      --coverage [--coverage-out FILE];
//                                      exit 0 iff zero divergences)
//   swsec evolve [options]             coverage-guided evolutionary fuzzing:
//                                      corpus seeds bred by model-level havoc
//                                      and splice, scheduled by new-coverage
//                                      yield, divergences auto-triaged and
//                                      deduped by symbolized trap stack
//                                      (--seed N, --execs N, --init N,
//                                      --batch N, --jobs N, --out FILE,
//                                      --json-out FILE, --curve-out FILE;
//                                      exit 0 iff zero unique crashes)
//   swsec curves [options]             Monte-Carlo probabilistic defense
//                                      curves: attack-success probability
//                                      with Wilson CIs across ASLR entropy
//                                      levels and canary-guess budgets
//                                      (--trials N, --jobs N, --out FILE)
//   swsec campaign run|resume|status   crash-safe campaign engine: the
//                                      matrix, the fault sweep or the fuzzer
//                                      run as a checkpointed cell lattice in
//                                      --dir.  Every finished cell lands in a
//                                      CRC-framed write-ahead log; kill -9 the
//                                      process and `campaign resume --dir D`
//                                      re-runs only the missing cells, ending
//                                      with a byte-identical report.jsonl.
//                                      Cells that time out or crash twice are
//                                      quarantined with repro coordinates
//                                      (quarantine.jsonl) instead of failing
//                                      the campaign.
//   swsec profile <scenario|file.mc>   source-level profile of a victim run:
//                                      hot blocks, per-line heat, annotated
//                                      disassembly, flamegraph-folded stacks
//                                      (--out report.json, --folded out.txt,
//                                       --annotate, --sample-interval N)
//
// matrix, fault-sweep and fuzz also accept --metrics-out FILE: the unified
// metrics registry (decode-cache hit rates, heap high-water, fault/retry
// tallies, verdict counts) as deterministic JSON — byte-identical for any
// --jobs value.  --prom-out FILE writes the same registry in Prometheus
// text exposition format, equally deterministic; the campaign variant also
// refreshes it at every heartbeat (see --heartbeat-ms).
//
// Both sweeps are deterministic for any --jobs value: cells are handed out
// by index and merged by index, so parallel output — including --trace-out
// provenance JSONL — is byte-identical to serial.  --jobs 0 means one
// worker per hardware thread.  Traces are likewise byte-identical with the
// decode cache on or off.
//
// Hardening options (run/asm/disasm):
//   --canary --bounds --fortify --memcheck     compiler passes
//   --sanitize                                 shadow-memory red zones (compiler+kernel)
//   --dep --aslr --shadow-stack --cfi          platform configuration
//   --seed N                                   deterministic randomness
//   --input STR                                bytes fed to fd 0
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "attacks/gadgets.hpp"
#include "cc/analyzer.hpp"
#include "cc/compiler.hpp"
#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/hexdump.hpp"
#include "core/campaign/campaign.hpp"
#include "core/fault_sweep.hpp"
#include "core/fig1.hpp"
#include "core/matrix.hpp"
#include "core/curves.hpp"
#include "core/profile_scenarios.hpp"
#include "core/trace_scenarios.hpp"
#include "fuzz/evolve.hpp"
#include "fuzz/fuzz.hpp"
#include "isa/disasm.hpp"
#include "os/process.hpp"
#include "profile/metrics.hpp"
#include "profile/report.hpp"

namespace {

using namespace swsec;

struct Options {
    cc::CompilerOptions copts;
    os::SecurityProfile profile;
    std::optional<std::uint64_t> seed; // --seed; each command has its own default
    std::string input;
    std::string file;
};

/// " a b c": a name list for usage and error text.
std::string joined(const std::vector<std::string>& names) {
    std::string out;
    for (const auto& n : names) {
        out += " " + n;
    }
    return out;
}

int usage() {
    std::fputs(
        "usage: swsec "
        "<run|asm|disasm|lint|gadgets|fig1|matrix|fault-sweep|trace|fuzz|evolve|curves|"
        "profile|campaign> [file.mc|scenario] [options]\n"
        "options: --canary --bounds --fortify --memcheck --sanitize --dep --aslr\n"
        "         --shadow-stack --cfi --seed N --input STR\n"
        "matrix options: --jobs N --trace-out FILE --metrics-out FILE --prom-out FILE\n"
        "fault-sweep options: --fault-seed N --windows N --jobs N --trace-out FILE\n"
        "                     --metrics-out FILE --prom-out FILE\n",
        stderr);
    std::fprintf(stderr, "trace scenarios:%s\n", joined(core::trace_scenario_names()).c_str());
    std::fputs(
        "trace options: --trace-out FILE --no-decode-cache --seed N --attacker-seed N\n"
        "fuzz options: --seeds N --seed-base B --jobs N --minimize --replay FILE --out FILE\n"
        "              --coverage --coverage-out FILE --metrics-out FILE --prom-out FILE\n"
        "evolve options: --seed N --execs N --init N --batch N --jobs N --max-corpus N\n"
        "                --out FILE --json-out FILE --curve-out FILE --metrics-out FILE\n"
        "curves options: --trials N --jobs N --aslr-bits LIST --budgets LIST\n"
        "                --canary-bits N --seed N --out FILE --metrics-out FILE\n",
        stderr);
    std::fprintf(stderr, "profile scenarios:%s\n",
                 joined(core::profile_scenario_names()).c_str());
    std::fputs(
        "profile options: --out FILE --folded FILE --annotate --sample-interval N\n"
        "                 --seed N --attacker-seed N (+ hardening options for file.mc)\n"
        "campaign: swsec campaign run --kind matrix|fault-sweep|fuzz|fuzz-evolve --dir DIR\n"
        "          (--fuzz-evolve = --kind fuzz-evolve)\n"
        "          swsec campaign resume --dir DIR\n"
        "          swsec campaign status --dir DIR [--follow]\n"
        "campaign spec options: --draws N --seeds N --seed-base B --windows N\n"
        "          --victim-seed N --attacker-seed N --fault-seed N\n"
        "          --evolve-execs N --evolve-init N (fuzz-evolve island budget)\n"
        "          --hang-cell N --crash-cell N --crash-times N (sabotage, for tests)\n"
        "campaign exec options: --jobs N --cell-timeout-ms N --retries N --backoff-ms N\n"
        "          --fsync-every N --max-cells N --metrics-out FILE --prom-out FILE\n"
        "          --heartbeat-ms N (progress.jsonl heartbeat cadence; 0 = off)\n",
        stderr);
    return 2;
}

/// Write `text` to `path`, or to stdout when path is "-" / empty.  File
/// writes are atomic (temp + fsync + rename): a killed run leaves either
/// the old artifact or the complete new one, never a torn prefix.
void write_out(const std::string& path, const std::string& text) {
    if (path.empty() || path == "-") {
        std::fputs(text.c_str(), stdout);
        return;
    }
    write_file_atomic(path, text);
}

/// --metrics-out / --prom-out: write the registry `make` builds (only when
/// one of them is asked for) as JSON and as Prometheus text.
template <class MakeRegistry>
void write_metrics(const std::string& metrics_out, const std::string& prom_out,
                   const MakeRegistry& make) {
    if (metrics_out.empty() && prom_out.empty()) {
        return;
    }
    const profile::Registry reg = make();
    if (!metrics_out.empty()) {
        write_out(metrics_out, reg.to_json());
    }
    if (!prom_out.empty()) {
        write_out(prom_out, reg.to_prometheus());
    }
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw Error("cannot open '" + path + "'");
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// A numeric flag whose value is not a number of the flag's type: main
/// prints it with the usage text and exits 2.
class BadNumber : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Parse `flag`'s value `text` into `out`.  The whole of `text` must be one
/// integer in strtol's base-0 syntax (decimal, 0x hex or 0 octal) that fits
/// T; otherwise this throws BadNumber.  A value that fits T but lies outside
/// the field's domain (a negative count, say) is stored, and the command's
/// own validation decides what it means.
template <class T>
void parse_number(const std::string& flag, const char* text, T& out) {
    static_assert(std::is_integral_v<T>);
    const std::string s = text;
    char* end = nullptr;
    errno = 0;
    bool ok = !s.empty() && std::isspace(static_cast<unsigned char>(s[0])) == 0;
    if constexpr (std::is_signed_v<T>) {
        const long long v = std::strtoll(s.c_str(), &end, 0);
        ok = ok && v >= std::numeric_limits<T>::min() && v <= std::numeric_limits<T>::max();
        out = static_cast<T>(v);
    } else {
        const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
        ok = ok && s[0] != '-' && v <= std::numeric_limits<T>::max();
        out = static_cast<T>(v);
    }
    if (!ok || errno != 0 || *end != '\0') {
        throw BadNumber(flag + ": '" + s + "' is not a number from " +
                        std::to_string(std::numeric_limits<T>::min()) + " to " +
                        std::to_string(std::numeric_limits<T>::max()));
    }
}

/// Parse the hardening, --seed and --input flags and one positional
/// argument.  `extra` may claim a command's own flags: it returns true when
/// it took `arg`, advancing `i` past any value it consumed.
bool parse_options(int argc, char** argv, int start, Options& out,
                   const std::function<bool(const std::string& arg, int& i)>& extra = {}) {
    for (int i = start; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--canary") {
            out.copts.stack_canaries = true;
        } else if (arg == "--bounds") {
            out.copts.bounds_checks = true;
        } else if (arg == "--fortify") {
            out.copts.fortify_reads = true;
        } else if (arg == "--memcheck") {
            out.copts.memcheck = true;
            out.profile.memcheck = true;
        } else if (arg == "--sanitize") {
            out.copts.sanitize_address = true;
            out.profile.sanitize_address = true;
        } else if (arg == "--dep") {
            out.profile.dep = true;
        } else if (arg == "--aslr") {
            out.profile.aslr = true;
        } else if (arg == "--shadow-stack") {
            out.profile.shadow_stack = true;
        } else if (arg == "--cfi") {
            out.profile.coarse_cfi = true;
        } else if (arg == "--seed" && i + 1 < argc) {
            parse_number(arg, argv[++i], out.seed.emplace());
        } else if (arg == "--input" && i + 1 < argc) {
            out.input = argv[++i];
        } else if (!arg.empty() && arg[0] != '-' && out.file.empty()) {
            out.file = arg;
        } else if (!extra || !extra(arg, i)) {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return false;
        }
    }
    return true;
}

int cmd_run(const Options& opt) {
    const auto img = cc::compile_program({read_file(opt.file)}, opt.copts);
    os::Process p(img, opt.profile, opt.seed.value_or(1));
    if (!opt.input.empty()) {
        p.feed_input(opt.input);
    }
    const auto r = p.run(100'000'000);
    std::fputs(p.output().c_str(), stdout);
    std::fprintf(stderr, "[%s after %llu instructions]\n", r.trap.to_string().c_str(),
                 static_cast<unsigned long long>(r.steps));
    return r.trap.kind == vm::TrapKind::Exit ? (r.trap.code & 0xff) : 100;
}

int cmd_asm(const Options& opt) {
    std::fputs(cc::compile_to_asm(read_file(opt.file), opt.copts, "cli").c_str(), stdout);
    return 0;
}

int cmd_disasm(const Options& opt) {
    const auto img = cc::compile_program({read_file(opt.file)}, opt.copts);
    std::printf("; text: %zu bytes, data: %llu bytes\n", img.text.size(),
                static_cast<unsigned long long>(img.data_total_size()));
    // Annotate function starts with their symbol names.
    std::vector<std::pair<std::uint32_t, std::string>> funcs;
    for (const auto& [name, sym] : img.symbols) {
        if (sym.is_func && sym.section == objfmt::SectionKind::Text) {
            funcs.emplace_back(sym.offset, name);
        }
    }
    const auto lines = isa::disassemble(img.text, os::kDefaultTextBase);
    for (const auto& line : lines) {
        for (const auto& [off, name] : funcs) {
            if (os::kDefaultTextBase + off == line.addr) {
                std::printf("\n%s:\n", name.c_str());
            }
        }
        std::string bytes = line.bytes_hex;
        bytes.resize(20, ' ');
        std::printf("%s:  %s %s\n", hex32(line.addr).c_str(), bytes.c_str(), line.text.c_str());
    }
    return 0;
}

int cmd_lint(const Options& opt) {
    const auto findings = cc::analyze_source(read_file(opt.file));
    std::fputs(cc::format_findings(findings).c_str(), stdout);
    return findings.empty() ? 0 : 1;
}

int cmd_gadgets(const Options& opt) {
    const auto img = cc::compile_program({read_file(opt.file)}, opt.copts);
    attacks::GadgetScanner scanner(img.text, os::kDefaultTextBase);
    std::printf("%zu gadgets (%zu unintended) in %zu bytes of text\n", scanner.gadgets().size(),
                scanner.unintended_count(), img.text.size());
    for (const auto& g : scanner.gadgets()) {
        std::printf("  %s\n", g.to_string().c_str());
    }
    return 0;
}

int cmd_matrix(int argc, char** argv) {
    int jobs = 1;
    std::string trace_out;
    std::string metrics_out;
    std::string prom_out;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs" && i + 1 < argc) {
            parse_number(arg, argv[++i], jobs);
        } else if (arg == "--trace-out" && i + 1 < argc) {
            trace_out = argv[++i];
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
        } else if (arg == "--prom-out" && i + 1 < argc) {
            prom_out = argv[++i];
        } else {
            std::fprintf(stderr, "unknown matrix option '%s'\n", arg.c_str());
            return 2;
        }
    }
    const auto cells = core::run_matrix(1001, 2002, jobs);
    std::fputs(core::format_matrix(cells).c_str(), stdout);
    if (!trace_out.empty()) {
        write_out(trace_out, core::matrix_cells_jsonl(cells));
    }
    write_metrics(metrics_out, prom_out, [&] { return core::matrix_metrics(cells); });
    return 0;
}

int cmd_profile(int argc, char** argv) {
    std::string out_path;
    std::string folded_path;
    bool annotate = false;
    Options opt; // hardening options apply in file mode only
    core::ProfileScenarioOptions sopts;
    const bool parsed = parse_options(argc, argv, 2, opt, [&](const std::string& arg, int& i) {
        const bool has_value = i + 1 < argc;
        if (arg == "--out" && has_value) {
            out_path = argv[++i];
        } else if (arg == "--folded" && has_value) {
            folded_path = argv[++i];
        } else if (arg == "--annotate") {
            annotate = true;
        } else if (arg == "--sample-interval" && has_value) {
            parse_number(arg, argv[++i], sopts.sample_interval);
        } else if (arg == "--attacker-seed" && has_value) {
            parse_number(arg, argv[++i], sopts.attacker_seed);
        } else {
            return false;
        }
        return true;
    });
    if (!parsed) {
        return 2;
    }
    const std::string& target = opt.file;
    if (target.empty()) {
        std::fprintf(stderr, "profile scenarios:%s  (or a file.mc)\n",
                     joined(core::profile_scenario_names()).c_str());
        return 2;
    }

    profile::ProfileReport report;
    std::string label;
    const auto& names = core::profile_scenario_names();
    const bool is_scenario =
        std::find(names.begin(), names.end(), target) != names.end();
    if (is_scenario) {
        sopts.victim_seed = opt.seed.value_or(sopts.victim_seed);
        const auto run = core::run_profile_scenario(target, sopts);
        report = run.report;
        label = run.scenario;
        std::fprintf(stderr, "[%s] %s\n", label.c_str(), run.outcome.verdict().c_str());
        if (!run.outcome.trap_sym.empty()) {
            std::fprintf(stderr, "[%s] trap at %s\n", label.c_str(),
                         run.outcome.trap_sym.c_str());
        }
    } else {
        // File mode: compile and run the program under the requested
        // hardening profile, traced, with the profiler folding the stream.
        const auto img = cc::compile_program({read_file(target)}, opt.copts);
        profile::Profiler prof;
        prof.set_sample_interval(sopts.sample_interval);
        trace::Tracer tracer(1); // the fold's carrier: its ring is never read
        tracer.set_fold(&prof);
        opt.profile.tracer = &tracer;
        os::Process proc(img, opt.profile, opt.seed.value_or(1));
        if (!opt.input.empty()) {
            proc.feed_input(opt.input);
        }
        const auto r = proc.run(100'000'000);
        label = target;
        std::fprintf(stderr, "[%s after %llu instructions]\n", r.trap.to_string().c_str(),
                     static_cast<unsigned long long>(r.steps));
        report = profile::build_report(prof, img, proc.layout().text_base);
    }

    std::fputs(report.summary().c_str(), stdout);
    if (annotate) {
        std::fputs(report.annotated_disasm.c_str(), stdout);
    }
    if (!out_path.empty()) {
        write_out(out_path, report.to_json());
    }
    if (!folded_path.empty()) {
        write_out(folded_path, report.folded_text());
    }
    return 0;
}

int cmd_trace(int argc, char** argv) {
    std::string scenario;
    std::string trace_out;
    core::TraceScenarioOptions opts;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--no-decode-cache") {
            opts.decode_cache = false;
        } else if (arg == "--trace-out" && i + 1 < argc) {
            trace_out = argv[++i];
        } else if (arg == "--seed" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.victim_seed);
        } else if (arg == "--attacker-seed" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.attacker_seed);
        } else if (!arg.empty() && arg[0] != '-' && scenario.empty()) {
            scenario = arg;
        } else {
            std::fprintf(stderr, "unknown trace option '%s'\n", arg.c_str());
            return 2;
        }
    }
    if (scenario.empty()) {
        std::fprintf(stderr, "trace scenarios:%s\n", joined(core::trace_scenario_names()).c_str());
        return 2;
    }
    const auto run = core::run_trace_scenario(scenario, opts);
    write_out(trace_out, run.events_jsonl);
    std::fprintf(stderr, "[%s] %s\n", run.scenario.c_str(), run.outcome.verdict().c_str());
    std::fprintf(stderr, "[%s] %s\n", run.scenario.c_str(),
                 run.outcome.trap.provenance().c_str());
    std::fprintf(stderr, "[%s] %s\n", run.scenario.c_str(),
                 run.outcome.stats.summary().c_str());
    return 0;
}

int cmd_fuzz(int argc, char** argv) {
    fuzz::FuzzOptions opts;
    std::string replay_path;
    std::string out_path;
    std::string coverage_out;
    std::string metrics_out;
    std::string prom_out;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--seeds" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.seeds);
        } else if (arg == "--seed-base" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.seed_base);
        } else if (arg == "--jobs" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.jobs);
        } else if (arg == "--minimize") {
            opts.minimize = true;
        } else if (arg == "--coverage") {
            opts.coverage = true;
        } else if (arg == "--coverage-out" && i + 1 < argc) {
            coverage_out = argv[++i];
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
        } else if (arg == "--prom-out" && i + 1 < argc) {
            prom_out = argv[++i];
        } else if (arg == "--replay" && i + 1 < argc) {
            replay_path = argv[++i];
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "unknown fuzz option '%s'\n", arg.c_str());
            return 2;
        }
    }

    fuzz::FuzzReport report;
    if (!replay_path.empty()) {
        const auto records = fuzz::parse_repro_file(read_file(replay_path));
        report.divergences = fuzz::replay_repros(records, fuzz::kMaxSteps, &report);
    } else {
        report = fuzz::run_fuzz(opts);
    }
    std::fputs(report.summary().c_str(), stdout);
    if (!out_path.empty()) {
        write_out(out_path, fuzz::to_repro_file(report.divergences));
    }
    if (!coverage_out.empty()) {
        write_out(coverage_out, report.coverage.curve_csv(opts.seed_base));
    }
    write_metrics(metrics_out, prom_out, [&] { return fuzz::fuzz_metrics(report); });
    if (!report.clean()) {
        std::fputs(fuzz::to_repro_file(report.divergences).c_str(), stderr);
    }
    return report.clean() ? 0 : 1;
}

int cmd_evolve(int argc, char** argv) {
    fuzz::EvolveOptions opts;
    std::string out_path;
    std::string json_out;
    std::string curve_out;
    std::string metrics_out;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--seed" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.seed);
        } else if (arg == "--execs" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.execs);
        } else if (arg == "--init" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.init_programs);
        } else if (arg == "--batch" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.batch);
        } else if (arg == "--jobs" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.jobs);
        } else if (arg == "--max-corpus" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.max_corpus);
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--json-out" && i + 1 < argc) {
            json_out = argv[++i];
        } else if (arg == "--curve-out" && i + 1 < argc) {
            curve_out = argv[++i];
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
        } else {
            std::fprintf(stderr, "unknown evolve option '%s'\n", arg.c_str());
            return 2;
        }
    }
    const fuzz::EvolveReport report = fuzz::run_evolve(opts);
    std::fputs(report.summary().c_str(), stdout);
    if (!out_path.empty()) {
        // Unique crashes as repro-v1 records; the triage key rides along as
        // a comment line (the parser skips '#' lines).
        std::string repros;
        for (const fuzz::CrashRecord& c : report.crashes) {
            repros += "# triage hits=" + std::to_string(c.hits) + " key=" + c.key + "\n";
            repros += fuzz::to_repro(c.div);
        }
        write_out(out_path, repros);
    }
    if (!json_out.empty()) {
        write_out(json_out, report.to_json() + "\n");
    }
    if (!curve_out.empty()) {
        write_out(curve_out, report.curve_csv());
    }
    write_metrics(metrics_out, "", [&] { return fuzz::evolve_metrics(report); });
    if (!report.crashes.empty()) {
        for (const fuzz::CrashRecord& c : report.crashes) {
            std::fputs(fuzz::to_repro(c.div).c_str(), stderr);
        }
    }
    return report.crashes.empty() ? 0 : 1;
}

/// "a,b,c" -> {a,b,c}; each non-empty element is a number, as parse_number
/// reads one.
std::vector<std::uint32_t> parse_u32_list(const std::string& flag, const std::string& s) {
    std::vector<std::uint32_t> out;
    std::string cur;
    for (const char c : s + ",") {
        if (c == ',') {
            if (!cur.empty()) {
                parse_number(flag, cur.c_str(), out.emplace_back());
                cur.clear();
            }
        } else {
            cur.push_back(c);
        }
    }
    return out;
}

int cmd_curves(int argc, char** argv) {
    core::CurveOptions opts;
    std::string out_path;
    std::string metrics_out;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--trials" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.trials);
        } else if (arg == "--jobs" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.jobs);
        } else if (arg == "--seed" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.seed);
        } else if (arg == "--aslr-bits" && i + 1 < argc) {
            opts.aslr_bits = parse_u32_list(arg, argv[++i]);
        } else if (arg == "--budgets" && i + 1 < argc) {
            opts.canary_budgets = parse_u32_list(arg, argv[++i]);
        } else if (arg == "--canary-bits" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.canary_bits);
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
        } else {
            std::fprintf(stderr, "unknown curves option '%s'\n", arg.c_str());
            return 2;
        }
    }
    const core::CurveReport report = core::run_curves(opts);
    std::fputs(report.summary().c_str(), stdout);
    if (!out_path.empty()) {
        write_out(out_path, report.to_jsonl());
    }
    write_metrics(metrics_out, "", [&] { return core::curve_metrics(report); });
    return 0;
}

int cmd_fault_sweep(int argc, char** argv) {
    core::FaultSweepOptions opts;
    std::string trace_out;
    std::string metrics_out;
    std::string prom_out;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--fault-seed" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.fault_seed);
        } else if (arg == "--windows" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.windows_per_class);
        } else if (arg == "--jobs" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.jobs);
        } else if (arg == "--trace-out" && i + 1 < argc) {
            trace_out = argv[++i];
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
        } else if (arg == "--prom-out" && i + 1 < argc) {
            prom_out = argv[++i];
        } else {
            std::fprintf(stderr, "unknown fault-sweep option '%s'\n", arg.c_str());
            return 2;
        }
    }
    const auto report = core::run_fault_sweep(opts);
    std::fputs(report.summary().c_str(), stdout);
    if (!trace_out.empty()) {
        write_out(trace_out, report.cells_jsonl());
    }
    write_metrics(metrics_out, prom_out, [&] { return core::fault_sweep_metrics(report); });
    return report.fail_closed() ? 0 : 1;
}

int cmd_campaign(int argc, char** argv) {
    if (argc < 3) {
        return usage();
    }
    const std::string verb = argv[2];
    campaign::Spec spec;
    campaign::Options opts;
    std::string dir;
    std::string metrics_out;
    std::string kind_arg;
    bool follow = false;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--kind" && i + 1 < argc) {
            kind_arg = argv[++i];
        } else if (arg == "--fuzz-evolve") {
            kind_arg = "fuzz-evolve"; // shorthand for --kind fuzz-evolve
        } else if (arg == "--dir" && i + 1 < argc) {
            dir = argv[++i];
        } else if (arg == "--draws" && i + 1 < argc) {
            parse_number(arg, argv[++i], spec.draws);
        } else if (arg == "--seeds" && i + 1 < argc) {
            parse_number(arg, argv[++i], spec.seeds);
        } else if (arg == "--seed-base" && i + 1 < argc) {
            parse_number(arg, argv[++i], spec.seed_base);
        } else if (arg == "--windows" && i + 1 < argc) {
            parse_number(arg, argv[++i], spec.windows_per_class);
        } else if (arg == "--evolve-execs" && i + 1 < argc) {
            parse_number(arg, argv[++i], spec.evolve_execs);
        } else if (arg == "--evolve-init" && i + 1 < argc) {
            parse_number(arg, argv[++i], spec.evolve_init);
        } else if (arg == "--victim-seed" && i + 1 < argc) {
            parse_number(arg, argv[++i], spec.victim_seed);
        } else if (arg == "--attacker-seed" && i + 1 < argc) {
            parse_number(arg, argv[++i], spec.attacker_seed);
        } else if (arg == "--fault-seed" && i + 1 < argc) {
            parse_number(arg, argv[++i], spec.fault_seed);
        } else if (arg == "--hang-cell" && i + 1 < argc) {
            parse_number(arg, argv[++i], spec.sabotage.hang_cell);
        } else if (arg == "--crash-cell" && i + 1 < argc) {
            parse_number(arg, argv[++i], spec.sabotage.crash_cell);
        } else if (arg == "--crash-times" && i + 1 < argc) {
            parse_number(arg, argv[++i], spec.sabotage.crash_times);
        } else if (arg == "--jobs" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.jobs);
        } else if (arg == "--cell-timeout-ms" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.cell_timeout_ms);
        } else if (arg == "--retries" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.max_attempts);
        } else if (arg == "--backoff-ms" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.retry_backoff_ms);
        } else if (arg == "--fsync-every" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.fsync_every);
        } else if (arg == "--max-cells" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.max_cells);
        } else if (arg == "--heartbeat-ms" && i + 1 < argc) {
            parse_number(arg, argv[++i], opts.heartbeat_ms);
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
        } else if (arg == "--prom-out" && i + 1 < argc) {
            opts.prom_out = argv[++i];
        } else if (arg == "--follow") {
            follow = true;
        } else {
            std::fprintf(stderr, "unknown campaign option '%s'\n", arg.c_str());
            return 2;
        }
    }
    if (dir.empty()) {
        std::fputs("campaign: --dir is required\n", stderr);
        return 2;
    }
    if (verb == "status") {
        campaign::Status st = campaign::campaign_status(dir);
        std::fputs(st.to_string().c_str(), stdout);
        if (follow) {
            // Tail the heartbeat: re-probe until the campaign accounts for
            // every cell, reprinting whenever a new heartbeat (or more
            // finished cells) shows up.  The probe is read-only, so polling
            // never disturbs the running campaign.
            std::uint64_t last_seq = st.hb_seq;
            std::uint64_t last_accounted = st.cells_completed + st.cells_quarantined;
            while (st.exists && !st.complete()) {
                std::this_thread::sleep_for(std::chrono::milliseconds(200));
                st = campaign::campaign_status(dir);
                const std::uint64_t accounted = st.cells_completed + st.cells_quarantined;
                if (st.hb_seq != last_seq || accounted != last_accounted) {
                    last_seq = st.hb_seq;
                    last_accounted = accounted;
                    std::fputs(st.to_string().c_str(), stdout);
                    std::fflush(stdout);
                }
            }
        }
        if (!st.exists) {
            return 2;
        }
        return st.complete() ? 0 : 3;
    }
    campaign::Report report;
    if (verb == "run") {
        if (!campaign::kind_from_name(kind_arg, spec.kind)) {
            std::fputs("campaign run: --kind must be matrix, fault-sweep, fuzz or fuzz-evolve\n",
                       stderr);
            return 2;
        }
        report = campaign::run_campaign(spec, dir, opts);
    } else if (verb == "resume") {
        report = campaign::resume_campaign(dir, opts);
    } else {
        return usage();
    }
    // stdout stays deterministic (diffable across serial/parallel/resumed
    // runs); throughput and scheduler stats go to stderr for humans.
    std::fputs(report.summary().c_str(), stdout);
    std::fprintf(stderr,
                 "campaign: ran %llu cells in %.2fs (%.1f cells/s), %llu retries, "
                 "%llu timeouts, %llu chunks, %llu steals, %llu resumed, "
                 "%llu damaged wal lines dropped\n",
                 static_cast<unsigned long long>(report.cells_run), report.elapsed_sec,
                 report.elapsed_sec > 0.0
                     ? static_cast<double>(report.cells_run) / report.elapsed_sec
                     : 0.0,
                 static_cast<unsigned long long>(report.retries),
                 static_cast<unsigned long long>(report.timeouts),
                 static_cast<unsigned long long>(report.sched.chunks),
                 static_cast<unsigned long long>(report.sched.steals),
                 static_cast<unsigned long long>(report.cells_resumed),
                 static_cast<unsigned long long>(report.wal_lines_dropped));
    if (!metrics_out.empty() || !opts.prom_out.empty()) {
        // include_volatile: the campaign export is for post-mortems, and
        // cells/sec + steal counts are the point; CI byte-diffs report.jsonl
        // and summary.txt, never this file.
        const profile::Registry reg = campaign::campaign_metrics(report);
        if (!metrics_out.empty()) {
            write_out(metrics_out, reg.to_json(true));
        }
        if (!opts.prom_out.empty()) {
            // Final snapshot supersedes the heartbeat-time ones: same path,
            // now with the merged post-run registry.
            write_out(opts.prom_out, reg.to_prometheus(true));
        }
    }
    // Quarantines degrade the campaign but do not fail it; only an
    // incomplete lattice (e.g. a --max-cells test interruption) is nonzero.
    return report.complete() ? 0 : 3;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        return usage();
    }
    const std::string cmd = argv[1];
    try {
        if (cmd == "fig1") {
            std::fputs(core::make_fig1_snapshot().full_report.c_str(), stdout);
            return 0;
        }
        if (cmd == "matrix") {
            return cmd_matrix(argc, argv);
        }
        if (cmd == "fault-sweep") {
            return cmd_fault_sweep(argc, argv);
        }
        if (cmd == "trace") {
            return cmd_trace(argc, argv);
        }
        if (cmd == "fuzz") {
            return cmd_fuzz(argc, argv);
        }
        if (cmd == "evolve") {
            return cmd_evolve(argc, argv);
        }
        if (cmd == "curves") {
            return cmd_curves(argc, argv);
        }
        if (cmd == "profile") {
            return cmd_profile(argc, argv);
        }
        if (cmd == "campaign") {
            return cmd_campaign(argc, argv);
        }
        Options opt;
        if (!parse_options(argc, argv, 2, opt)) {
            return usage();
        }
        if (opt.file.empty()) {
            return usage();
        }
        if (cmd == "run") {
            return cmd_run(opt);
        }
        if (cmd == "asm") {
            return cmd_asm(opt);
        }
        if (cmd == "disasm") {
            return cmd_disasm(opt);
        }
        if (cmd == "lint") {
            return cmd_lint(opt);
        }
        if (cmd == "gadgets") {
            return cmd_gadgets(opt);
        }
        return usage();
    } catch (const BadNumber& e) {
        std::fprintf(stderr, "swsec: %s\n", e.what());
        return usage();
    } catch (const Error& e) {
        std::fprintf(stderr, "swsec: %s\n", e.what());
        return 1;
    }
}
