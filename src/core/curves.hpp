// Monte-Carlo probabilistic defense curves (Ochoa et al.'s framing).
//
// The paper presents ASLR and stack canaries as *probabilistic* defenses:
// they do not remove the vulnerability, they lower the attacker's per-try
// success probability — 2^-k for k bits of address entropy, 2^-j per guess
// against j unknown canary bits.  The attack/defense matrix reports one
// deterministic verdict per cell; this runner measures the probability
// itself, by running the real exploit end to end many times and counting.
//
// Two curve families:
//
//  * aslr — the ret2libc exploit from the attack lab against rop_server
//    under Defense::aslr(k) for each entropy level k.  The attacker probes
//    its own copy once per cell (one layout draw, fixed attacker seed) and
//    replays the derived payload against per-trial victim layout draws;
//    success requires the victim's text draw to coincide with the probe's.
//    Analytic model: p = 2^-k.
//
//  * canary — a partial-information canary-guessing attacker against
//    rop_server under Defense::canary() (no ASLR, so addresses are known
//    and only the canary stands).  The attacker is granted all but the low
//    `canary_bits` j of the canary (emulating a partial byte-leak) and a
//    budget of B uniform guesses over the unknown bits, each spent on a
//    fresh victim run of the same process (same seed, same canary).
//    Analytic model: p = 1 - (1 - 2^-j)^B.
//
// Estimates carry Wilson 95% confidence intervals (z = 1.96) — the interval
// stays honest at p near 0 or 1, exactly where these curves live.
//
// Determinism: every trial's victim seed and every guess are pure functions
// of (master seed, family, cell parameter, trial index).  Trials are
// evaluated share-nothing in parallel and reduced by order-independent
// sums, so summary, curves.jsonl and metrics are byte-identical for any
// --jobs value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "profile/metrics.hpp"

namespace swsec::core {

struct CurveOptions {
    /// ASLR entropy levels to sweep, each at most os::kMaxAslrEntropyBits.
    std::vector<std::uint32_t> aslr_bits = {0, 2, 4, 6, 8, 10, 12, 14};
    /// Canary guess budgets to sweep, each at least 1.
    std::vector<std::uint32_t> canary_budgets = {1, 4, 16, 64};
    std::uint32_t canary_bits = 8; // unknown low canary bits (the partial leak), <= 32
    std::uint64_t trials = 1000;   // Monte-Carlo trials per cell
    std::uint64_t seed = 1;        // master seed
    int jobs = 1;                  // core/parallel workers; 0 = hardware threads
};

/// One measured point on a curve.
struct CurveCell {
    std::string family;      // "aslr" | "canary"
    std::uint64_t param = 0; // entropy bits | guess budget
    std::uint64_t trials = 0;
    std::uint64_t successes = 0;
    std::uint64_t runs = 0;  // victim executions spent (canary trials may use several)
    double p_hat = 0.0;
    double wilson_lo = 0.0;
    double wilson_hi = 0.0;
    double model = 0.0; // analytic prediction for this cell

    /// One deterministic JSON line (a curves.jsonl row).
    [[nodiscard]] std::string to_json(std::uint32_t canary_bits) const;
};

struct CurveReport {
    std::uint64_t seed = 0;
    std::uint64_t trials_per_cell = 0;
    std::uint32_t canary_bits = 0;
    std::vector<CurveCell> cells; // aslr cells (by bits), then canary (by budget)

    [[nodiscard]] std::uint64_t total_trials() const;
    [[nodiscard]] std::uint64_t total_runs() const;
    /// The curves.jsonl artifact: one line per cell, fixed cell order,
    /// fixed "%.6f" float rendering — byte-identical for any jobs value.
    [[nodiscard]] std::string to_jsonl() const;
    [[nodiscard]] std::string summary() const;
};

/// Wilson 95% score interval for `successes` out of `trials` (z = 1.96).
struct Wilson {
    double lo = 0.0;
    double hi = 1.0;
};
[[nodiscard]] Wilson wilson95(std::uint64_t successes, std::uint64_t trials);

/// Run every cell of `opts`.  Throws swsec::Error, running nothing, for an
/// ASLR level above os::kMaxAslrEntropyBits, a guess budget of 0, more than
/// 32 canary bits, or a level or budget listed twice: each cell measures
/// the parameter its label names.
[[nodiscard]] CurveReport run_curves(const CurveOptions& opts);

/// swsec-metrics-v1 export of a curve report.
[[nodiscard]] profile::Registry curve_metrics(const CurveReport& report);

} // namespace swsec::core
