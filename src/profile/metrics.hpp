// Process-wide metrics registry: labelled counters, gauges and log2-bucket
// histograms with deterministic JSON and Prometheus text-exposition exports.
//
// Unifies the stats that previous PRs scattered across DecodeCache,
// KernelFaultStats, the image cache and the sweep harnesses.  Three rules
// keep the exports trustworthy:
//
//  * Deterministic by default.  `to_json()` and `to_prometheus()` emit
//    metrics sorted by (name, labels) so two registries holding the same
//    values serialize byte-identically — serial vs `--jobs N` sweeps must
//    produce the same `--metrics-out` / `--prom-out` file.
//  * Volatile metrics are quarantined.  Wall-clock throughput and anything
//    schedule-dependent (the shared image cache's hit count races across
//    worker threads; per-cell wall times) is registered with
//    `Volatile::Yes` and excluded from both exports unless explicitly
//    requested; they are for humans and live telemetry, never for files
//    that CI diffs.
//  * Histogram bounds are fixed.  Every histogram uses the same log2
//    bucket ladder (upper bounds 1, 2, 4, ..., 2^26, +Inf), so merging two
//    registries is bucket-wise integer addition — order-independent, hence
//    byte-identical across any work-stealing schedule.  Observations are
//    integers (steps, milliseconds, counts); sums stay exact uint64 adds.
//
// The registry is thread-safe (one mutex; metrics are coarse-grained sums,
// not hot-path counters) and mergeable: per-shard registries from a parallel
// sweep fold into one with counter/histogram addition and gauge max, all of
// which are order-independent, so the merged result is schedule-invariant.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace swsec::profile {

using Labels = std::vector<std::pair<std::string, std::string>>;

enum class Volatile : std::uint8_t { No, Yes };

/// Finite histogram bucket count: upper bounds 2^0 .. 2^(kHistogramBuckets-1),
/// plus the implicit +Inf bucket.  2^26 = 67,108,864 covers every unit the
/// harnesses observe (steps under the 2e7 watchdog, wall milliseconds,
/// retry/steal counts) with 27 + 1 buckets per series.
inline constexpr std::size_t kHistogramBuckets = 27;

/// Bucket index for an observation: the smallest i with value <= 2^i, or
/// kHistogramBuckets for the +Inf bucket.  (0 lands in the `le="1"` bucket.)
[[nodiscard]] std::size_t histogram_bucket_index(std::uint64_t value) noexcept;

/// The ladder of finite upper bounds, as exposition-format strings
/// ("1", "2", ..., "67108864").
[[nodiscard]] const std::array<std::string, kHistogramBuckets>& histogram_bounds();

class Registry {
public:
    Registry() = default;
    Registry(const Registry& other);
    Registry& operator=(const Registry& other);

    /// Add `delta` to a monotone counter (created at zero on first use).
    void counter_add(const std::string& name, const Labels& labels, std::uint64_t delta = 1,
                     Volatile vol = Volatile::No);

    /// Overwrite a gauge.
    void gauge_set(const std::string& name, const Labels& labels, double value,
                   Volatile vol = Volatile::No);

    /// Raise a gauge to `value` if larger (high-water marks).
    void gauge_max(const std::string& name, const Labels& labels, double value,
                   Volatile vol = Volatile::No);

    /// Record one observation into a log2-bucket histogram (created empty on
    /// first use).  Count, sum and per-bucket tallies all accumulate.
    void histogram_observe(const std::string& name, const Labels& labels, std::uint64_t value,
                           Volatile vol = Volatile::No);

    /// Attach a `# HELP` line to a metric family (by name).  Optional; the
    /// Prometheus writer falls back to a generic help string.
    void set_help(const std::string& name, const std::string& help);

    /// Fold `other` into this registry: counters add, gauges take the max,
    /// histograms add bucket-wise (count/sum/buckets) — all order-independent.
    void merge(const Registry& other);

    [[nodiscard]] std::uint64_t counter(const std::string& name, const Labels& labels = {}) const;
    [[nodiscard]] double gauge(const std::string& name, const Labels& labels = {}) const;
    [[nodiscard]] std::uint64_t histogram_count(const std::string& name,
                                                const Labels& labels = {}) const;
    [[nodiscard]] std::uint64_t histogram_sum(const std::string& name,
                                              const Labels& labels = {}) const;
    /// Per-bucket (non-cumulative) tallies, kHistogramBuckets + 1 entries
    /// (the last is the +Inf bucket).  Empty vector if the series is absent.
    [[nodiscard]] std::vector<std::uint64_t> histogram_buckets(const std::string& name,
                                                               const Labels& labels = {}) const;

    /// Deterministic JSON document: `{"schema":"swsec-metrics-v1","metrics":[...]}`
    /// sorted by (name, labels).  Volatile metrics appear only when asked.
    [[nodiscard]] std::string to_json(bool include_volatile = false) const;

    /// Deterministic Prometheus text exposition format: families sorted by
    /// name, one `# HELP` and `# TYPE` line per family, series sorted by
    /// labels, label values escaped, histograms as cumulative `_bucket`
    /// series plus `_sum`/`_count`.  Volatile metrics appear only when asked.
    [[nodiscard]] std::string to_prometheus(bool include_volatile = false) const;

private:
    enum class Kind : std::uint8_t { Counter, Gauge, Histogram };
    struct Metric {
        std::string name;
        Labels labels; // sorted by key
        Kind kind = Kind::Counter;
        std::uint64_t count = 0;  // Counter value; Histogram observation count
        double value = 0.0;       // Gauge value
        std::uint64_t sum = 0;    // Histogram sum of observations
        std::vector<std::uint64_t> buckets; // Histogram only: finite + +Inf
        Volatile vol = Volatile::No;
    };

    [[nodiscard]] static std::string key_of(const std::string& name, const Labels& labels);
    Metric& slot(const std::string& name, const Labels& labels, Kind kind, Volatile vol);

    mutable std::mutex mu_;
    std::map<std::string, Metric> metrics_; // key_of(...) -> metric
    std::map<std::string, std::string> help_; // family name -> # HELP text
};

} // namespace swsec::profile
