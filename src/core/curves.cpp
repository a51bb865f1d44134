#include "core/curves.hpp"

#include <cstdint>
#include <cmath>
#include <cstdio>
#include <set>

#include "attacks/payload.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/defense.hpp"
#include "core/image_cache.hpp"
#include "core/parallel.hpp"
#include "core/scenarios.hpp"
#include "os/process.hpp"

namespace swsec::core {

namespace {

constexpr std::uint64_t kMaxSteps = 2'000'000;

/// Fixed "%.6f" rendering: printf of a finite double in [0,1] is exact and
/// locale-independent here, so serialized floats are byte-stable.
std::string fmt6(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

bool contains(const std::string& haystack, const std::string& needle) {
    return haystack.find(needle) != std::string::npos;
}

/// The ret2libc tail shared by both families: forged saved bp, then
/// grant_shell -> exit chain (the attack lab's payload shape).
void append_chain(attacks::PayloadBuilder& pb, std::uint32_t grant, std::uint32_t exit_fn) {
    pb.word(0xdeadbeef); // forged saved bp
    pb.word(grant).word(exit_fn).word(0xcafef00d).word(0);
}

CurveCell finish_cell(std::string family, std::uint64_t param, double model,
                      const std::vector<std::uint8_t>& success,
                      const std::vector<std::uint32_t>& runs) {
    CurveCell cell;
    cell.family = std::move(family);
    cell.param = param;
    cell.trials = success.size();
    for (std::size_t i = 0; i < success.size(); ++i) {
        cell.successes += success[i];
        cell.runs += runs[i];
    }
    cell.p_hat =
        cell.trials == 0 ? 0.0 : static_cast<double>(cell.successes) / static_cast<double>(cell.trials);
    const Wilson w = wilson95(cell.successes, cell.trials);
    cell.wilson_lo = w.lo;
    cell.wilson_hi = w.hi;
    cell.model = model;
    return cell;
}

/// One measured point of the ASLR family: ret2libc against rop_server under
/// k bits of address entropy.  The attacker probes one layout draw of its
/// own copy (fixed per-cell attacker seed), derives the payload, and replays
/// it against `trials` independent victim draws.
CurveCell run_aslr_cell(const CurveOptions& opts, std::uint32_t bits) {
    const Defense d = Defense::aslr(bits);
    const auto image = cached_compile(scenarios::rop_server(), d.copts);
    const std::uint64_t cell_tag = (1ULL << 40) | bits;
    const std::uint64_t cell_seed = mix64(opts.seed, cell_tag);

    os::Process probe(image, d.profile, cell_seed);
    attacks::PayloadBuilder pb;
    pb.fill(16); // Defense::aslr has no canary: filler straight to saved bp
    append_chain(pb, probe.addr_of("grant_shell"), probe.addr_of("exit"));
    const std::vector<std::uint8_t> payload = pb.bytes();

    const auto n = static_cast<std::size_t>(opts.trials);
    std::vector<std::uint8_t> success(n, 0);
    std::vector<std::uint32_t> runs(n, 0);
    parallel_for(n, opts.jobs, [&](std::size_t t) {
        os::Process victim(image, d.profile, mix64(cell_seed, t + 1));
        victim.feed_input(payload);
        (void)victim.run(kMaxSteps);
        success[t] = contains(victim.output(), "root shell granted") ? 1 : 0;
        runs[t] = 1;
    });
    return finish_cell("aslr", bits, std::ldexp(1.0, -static_cast<int>(bits)), success, runs);
}

/// One measured point of the canary family: a partial-information attacker
/// who knows all but the low `j` canary bits spends up to `budget` guesses,
/// each on a fresh victim run of the same process seed (same canary).  No
/// ASLR is deployed, so only the canary stands between the attacker and the
/// ret2libc chain.
CurveCell run_canary_cell(const CurveOptions& opts, std::uint32_t budget) {
    const Defense d = Defense::canary();
    const auto image = cached_compile(scenarios::rop_server(), d.copts);
    const std::uint64_t cell_tag = (2ULL << 40) | budget;
    const std::uint64_t cell_seed = mix64(opts.seed, cell_tag);

    os::Process probe(image, d.profile, cell_seed);
    const std::uint32_t grant = probe.addr_of("grant_shell");
    const std::uint32_t exit_fn = probe.addr_of("exit");
    const std::uint32_t guard_addr = probe.addr_of("__stack_chk_guard");
    const std::uint32_t j = opts.canary_bits;
    const std::uint32_t mask = j >= 32 ? 0xffffffffu : (1u << j) - 1;

    const auto n = static_cast<std::size_t>(opts.trials);
    std::vector<std::uint8_t> success(n, 0);
    std::vector<std::uint32_t> runs(n, 0);
    parallel_for(n, opts.jobs, [&](std::size_t t) {
        const std::uint64_t vseed = mix64(cell_seed, t + 1);
        // The partial leak: observe this victim's canary (crt0 initialises
        // it from getrandom, so it is a function of the process seed) and
        // grant the attacker everything but the low j bits.
        os::Process scout(image, d.profile, vseed);
        (void)scout.run(kMaxSteps); // no input: the server returns benignly
        std::uint32_t canary = 0;
        (void)scout.machine().kernel_read32(guard_addr, canary);
        const std::uint32_t known = canary & ~mask;

        Rng guesses(mix64(vseed, 0xCA11A57ULL));
        for (std::uint32_t b = 0; b < budget; ++b) {
            const std::uint32_t guess = known | (guesses.next_u32() & mask);
            attacks::PayloadBuilder pb;
            pb.fill(16);
            pb.word(guess);
            append_chain(pb, grant, exit_fn);
            os::Process victim(image, d.profile, vseed);
            victim.feed_input(pb.bytes());
            (void)victim.run(kMaxSteps);
            ++runs[t];
            if (contains(victim.output(), "root shell granted")) {
                success[t] = 1;
                break; // the attacker stops on the first shell
            }
        }
    });
    const double per_guess = std::ldexp(1.0, -static_cast<int>(j));
    const double model = 1.0 - std::pow(1.0 - per_guess, static_cast<double>(budget));
    return finish_cell("canary", budget, model, success, runs);
}

} // namespace

Wilson wilson95(std::uint64_t successes, std::uint64_t trials) {
    Wilson w;
    if (trials == 0) {
        return w;
    }
    constexpr double z = 1.96;
    const double nd = static_cast<double>(trials);
    const double p = static_cast<double>(successes) / nd;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / nd;
    const double center = (p + z2 / (2.0 * nd)) / denom;
    const double half = z * std::sqrt(p * (1.0 - p) / nd + z2 / (4.0 * nd * nd)) / denom;
    w.lo = center - half < 0.0 ? 0.0 : center - half;
    w.hi = center + half > 1.0 ? 1.0 : center + half;
    return w;
}

std::string CurveCell::to_json(std::uint32_t canary_bits) const {
    std::string s = "{\"schema\":\"swsec-curve-v1\",\"family\":\"" + family +
                    "\",\"param\":" + std::to_string(param);
    if (family == "canary") {
        s += ",\"canary_bits\":" + std::to_string(canary_bits);
    }
    s += ",\"trials\":" + std::to_string(trials) + ",\"successes\":" + std::to_string(successes) +
         ",\"runs\":" + std::to_string(runs) + ",\"p_hat\":" + fmt6(p_hat) +
         ",\"wilson_lo\":" + fmt6(wilson_lo) + ",\"wilson_hi\":" + fmt6(wilson_hi) +
         ",\"model\":" + fmt6(model) + "}";
    return s;
}

std::uint64_t CurveReport::total_trials() const {
    std::uint64_t n = 0;
    for (const CurveCell& c : cells) {
        n += c.trials;
    }
    return n;
}

std::uint64_t CurveReport::total_runs() const {
    std::uint64_t n = 0;
    for (const CurveCell& c : cells) {
        n += c.runs;
    }
    return n;
}

std::string CurveReport::to_jsonl() const {
    std::string s;
    for (const CurveCell& c : cells) {
        s += c.to_json(canary_bits) + "\n";
    }
    return s;
}

std::string CurveReport::summary() const {
    std::string s = "curves: seed=" + std::to_string(seed) +
                    " trials-per-cell=" + std::to_string(trials_per_cell) +
                    " cells=" + std::to_string(cells.size()) +
                    " total-trials=" + std::to_string(total_trials()) +
                    " total-runs=" + std::to_string(total_runs()) + "\n";
    for (const CurveCell& c : cells) {
        s += c.family + " " + (c.family == "aslr" ? "bits=" : "budget=") +
             std::to_string(c.param) + ": p=" + fmt6(c.p_hat) + " ci=[" + fmt6(c.wilson_lo) +
             "," + fmt6(c.wilson_hi) + "] model=" + fmt6(c.model) + " (" +
             std::to_string(c.successes) + "/" + std::to_string(c.trials) + ")\n";
    }
    return s;
}

CurveReport run_curves(const CurveOptions& opts) {
    const auto check_list = [](const std::vector<std::uint32_t>& values, const std::string& what,
                               std::uint32_t lo, std::uint32_t hi) {
        std::set<std::uint32_t> seen;
        for (const std::uint32_t v : values) {
            if (v < lo || v > hi) {
                throw Error("curves: " + what + " " + std::to_string(v) + " is outside [" +
                            std::to_string(lo) + ", " + std::to_string(hi) + "]");
            }
            if (!seen.insert(v).second) {
                throw Error("curves: " + what + " " + std::to_string(v) + " is listed twice");
            }
        }
    };
    check_list(opts.aslr_bits, "ASLR level", 0, os::kMaxAslrEntropyBits);
    check_list(opts.canary_budgets, "guess budget", 1, UINT32_MAX);
    if (opts.canary_bits > 32) {
        throw Error("curves: " + std::to_string(opts.canary_bits) +
                    " unknown canary bits exceed the canary's 32");
    }
    CurveReport report;
    report.seed = opts.seed;
    report.trials_per_cell = opts.trials;
    report.canary_bits = opts.canary_bits;
    for (const std::uint32_t bits : opts.aslr_bits) {
        report.cells.push_back(run_aslr_cell(opts, bits));
    }
    for (const std::uint32_t budget : opts.canary_budgets) {
        report.cells.push_back(run_canary_cell(opts, budget));
    }
    return report;
}

profile::Registry curve_metrics(const CurveReport& report) {
    profile::Registry reg;
    const profile::Labels base = {{"harness", "curves"}};
    reg.counter_add("curve_cells_total", base, report.cells.size());
    reg.counter_add("curve_trials_total", base, report.total_trials());
    reg.counter_add("curve_runs_total", base, report.total_runs());
    for (const CurveCell& c : report.cells) {
        const profile::Labels labels = {{"family", c.family}, {"param", std::to_string(c.param)}};
        reg.counter_add("curve_cell_trials_total", labels, c.trials);
        reg.counter_add("curve_cell_successes_total", labels, c.successes);
        reg.gauge_set("curve_p_hat", labels, c.p_hat);
        reg.gauge_set("curve_wilson_lo", labels, c.wilson_lo);
        reg.gauge_set("curve_wilson_hi", labels, c.wilson_hi);
        reg.gauge_set("curve_model_p", labels, c.model);
    }
    return reg;
}

} // namespace swsec::core
