#include "profile/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "common/escape.hpp"

namespace swsec::profile {

namespace {

Labels sorted(Labels labels) {
    std::sort(labels.begin(), labels.end());
    return labels;
}

std::string format_double(double v) {
    // %.17g round-trips but prints noise; metrics values are counts, ratios
    // and byte sizes, for which %.6g is stable and readable.
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

} // namespace

std::size_t histogram_bucket_index(std::uint64_t value) noexcept {
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        if (value <= (std::uint64_t{1} << i)) {
            return i;
        }
    }
    return kHistogramBuckets; // +Inf
}

const std::array<std::string, kHistogramBuckets>& histogram_bounds() {
    static const auto bounds = [] {
        std::array<std::string, kHistogramBuckets> b;
        for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
            b[i] = std::to_string(std::uint64_t{1} << i);
        }
        return b;
    }();
    return bounds;
}

Registry::Registry(const Registry& other) {
    std::scoped_lock lk(other.mu_);
    metrics_ = other.metrics_;
    help_ = other.help_;
}

Registry& Registry::operator=(const Registry& other) {
    if (this != &other) {
        std::scoped_lock lk(mu_, other.mu_);
        metrics_ = other.metrics_;
        help_ = other.help_;
    }
    return *this;
}

std::string Registry::key_of(const std::string& name, const Labels& labels) {
    std::string key = name;
    for (const auto& [k, v] : labels) {
        key += '\x1f';
        key += k;
        key += '\x1e';
        key += v;
    }
    return key;
}

Registry::Metric& Registry::slot(const std::string& name, const Labels& labels, Kind kind,
                                 Volatile vol) {
    Labels ls = sorted(labels);
    const std::string key = key_of(name, ls);
    auto it = metrics_.find(key);
    if (it == metrics_.end()) {
        Metric m;
        m.name = name;
        m.labels = std::move(ls);
        m.kind = kind;
        m.vol = vol;
        if (kind == Kind::Histogram) {
            m.buckets.assign(kHistogramBuckets + 1, 0);
        }
        it = metrics_.emplace(key, std::move(m)).first;
    }
    return it->second;
}

void Registry::counter_add(const std::string& name, const Labels& labels, std::uint64_t delta,
                           Volatile vol) {
    std::scoped_lock lk(mu_);
    slot(name, labels, Kind::Counter, vol).count += delta;
}

void Registry::gauge_set(const std::string& name, const Labels& labels, double value,
                         Volatile vol) {
    std::scoped_lock lk(mu_);
    slot(name, labels, Kind::Gauge, vol).value = value;
}

void Registry::gauge_max(const std::string& name, const Labels& labels, double value,
                         Volatile vol) {
    std::scoped_lock lk(mu_);
    Metric& m = slot(name, labels, Kind::Gauge, vol);
    m.value = std::max(m.value, value);
}

void Registry::histogram_observe(const std::string& name, const Labels& labels,
                                 std::uint64_t value, Volatile vol) {
    std::scoped_lock lk(mu_);
    Metric& m = slot(name, labels, Kind::Histogram, vol);
    ++m.count;
    m.sum += value;
    ++m.buckets[histogram_bucket_index(value)];
}

void Registry::set_help(const std::string& name, const std::string& help) {
    std::scoped_lock lk(mu_);
    help_[name] = help;
}

void Registry::merge(const Registry& other) {
    // Copy first so self-merge and lock ordering are non-issues.
    const Registry snapshot(other);
    std::scoped_lock lk(mu_);
    for (const auto& [key, m] : snapshot.metrics_) {
        auto it = metrics_.find(key);
        if (it == metrics_.end()) {
            metrics_.emplace(key, m);
        } else if (m.kind == Kind::Counter) {
            it->second.count += m.count;
        } else if (m.kind == Kind::Gauge) {
            it->second.value = std::max(it->second.value, m.value);
        } else {
            Metric& dst = it->second;
            dst.count += m.count;
            dst.sum += m.sum;
            for (std::size_t i = 0; i < dst.buckets.size() && i < m.buckets.size(); ++i) {
                dst.buckets[i] += m.buckets[i];
            }
        }
    }
    for (const auto& [name, help] : snapshot.help_) {
        help_.emplace(name, help); // first registration wins
    }
}

std::uint64_t Registry::counter(const std::string& name, const Labels& labels) const {
    std::scoped_lock lk(mu_);
    const auto it = metrics_.find(key_of(name, sorted(labels)));
    return it == metrics_.end() ? 0 : it->second.count;
}

double Registry::gauge(const std::string& name, const Labels& labels) const {
    std::scoped_lock lk(mu_);
    const auto it = metrics_.find(key_of(name, sorted(labels)));
    return it == metrics_.end() ? 0.0 : it->second.value;
}

std::uint64_t Registry::histogram_count(const std::string& name, const Labels& labels) const {
    std::scoped_lock lk(mu_);
    const auto it = metrics_.find(key_of(name, sorted(labels)));
    return it == metrics_.end() ? 0 : it->second.count;
}

std::uint64_t Registry::histogram_sum(const std::string& name, const Labels& labels) const {
    std::scoped_lock lk(mu_);
    const auto it = metrics_.find(key_of(name, sorted(labels)));
    return it == metrics_.end() ? 0 : it->second.sum;
}

std::vector<std::uint64_t> Registry::histogram_buckets(const std::string& name,
                                                       const Labels& labels) const {
    std::scoped_lock lk(mu_);
    const auto it = metrics_.find(key_of(name, sorted(labels)));
    return it == metrics_.end() ? std::vector<std::uint64_t>{} : it->second.buckets;
}

std::string Registry::to_json(bool include_volatile) const {
    std::scoped_lock lk(mu_);
    std::string out = "{\"schema\":\"swsec-metrics-v1\",\"metrics\":[";
    bool first = true;
    // metrics_ is a std::map keyed by (name, sorted labels): iteration order
    // is already the deterministic export order.
    for (const auto& [key, m] : metrics_) {
        if (m.vol == Volatile::Yes && !include_volatile) {
            continue;
        }
        if (!first) {
            out += ',';
        }
        first = false;
        out += "{\"name\":\"" + swsec::json_escape(m.name) + "\",\"labels\":{";
        for (std::size_t i = 0; i < m.labels.size(); ++i) {
            if (i != 0) {
                out += ',';
            }
            out += '"' + swsec::json_escape(m.labels[i].first) + "\":\"" +
                   swsec::json_escape(m.labels[i].second) + '"';
        }
        out += "},\"type\":\"";
        switch (m.kind) {
        case Kind::Counter:
            out += "counter\",\"value\":" + std::to_string(m.count);
            break;
        case Kind::Gauge:
            out += "gauge\",\"value\":" + format_double(m.value);
            break;
        case Kind::Histogram:
            out += "histogram\",\"count\":" + std::to_string(m.count) +
                   ",\"sum\":" + std::to_string(m.sum) + ",\"buckets\":[";
            for (std::size_t i = 0; i < m.buckets.size(); ++i) {
                if (i != 0) {
                    out += ',';
                }
                out += std::to_string(m.buckets[i]);
            }
            out += ']';
            break;
        }
        out += '}';
    }
    out += "]}";
    return out;
}

std::string Registry::to_prometheus(bool include_volatile) const {
    std::scoped_lock lk(mu_);
    // Group series into families keyed by the sanitized exposition name, so
    // the output is sorted by what the scraper actually sees.  Within a
    // family the metrics_ map order (name, then sorted labels) already
    // yields the deterministic series order.
    struct Family {
        Kind kind = Kind::Counter;
        std::string raw_name;
        std::vector<const Metric*> series;
    };
    std::map<std::string, Family> families;
    for (const auto& [key, m] : metrics_) {
        if (m.vol == Volatile::Yes && !include_volatile) {
            continue;
        }
        Family& f = families[prom_sanitize_name(m.name)];
        if (f.series.empty()) {
            f.kind = m.kind;
            f.raw_name = m.name;
        }
        f.series.push_back(&m);
    }

    const auto label_block = [](const Labels& labels, const char* extra_key = nullptr,
                                const std::string& extra_value = {}) {
        if (labels.empty() && extra_key == nullptr) {
            return std::string{};
        }
        std::string out = "{";
        bool first = true;
        for (const auto& [k, v] : labels) {
            if (!first) {
                out += ',';
            }
            first = false;
            out += prom_sanitize_name(k) + "=\"" + prom_escape_label(v) + '"';
        }
        if (extra_key != nullptr) {
            if (!first) {
                out += ',';
            }
            out += std::string(extra_key) + "=\"" + extra_value + '"';
        }
        out += '}';
        return out;
    };

    std::string out;
    for (const auto& [fam_name, fam] : families) {
        const auto help_it = help_.find(fam.raw_name);
        out += "# HELP " + fam_name + ' ' +
               prom_escape_help(help_it != help_.end() ? help_it->second
                                                       : "swsec " + fam.raw_name) +
               '\n';
        out += "# TYPE " + fam_name + ' ';
        switch (fam.kind) {
        case Kind::Counter: out += "counter"; break;
        case Kind::Gauge: out += "gauge"; break;
        case Kind::Histogram: out += "histogram"; break;
        }
        out += '\n';
        for (const Metric* m : fam.series) {
            switch (m->kind) {
            case Kind::Counter:
                out += fam_name + label_block(m->labels) + ' ' + std::to_string(m->count) + '\n';
                break;
            case Kind::Gauge:
                out += fam_name + label_block(m->labels) + ' ' + format_double(m->value) + '\n';
                break;
            case Kind::Histogram: {
                // Exposition buckets are cumulative; the +Inf bucket equals
                // the observation count by construction.
                std::uint64_t cum = 0;
                for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
                    cum += i < m->buckets.size() ? m->buckets[i] : 0;
                    out += fam_name + "_bucket" +
                           label_block(m->labels, "le", histogram_bounds()[i]) + ' ' +
                           std::to_string(cum) + '\n';
                }
                out += fam_name + "_bucket" + label_block(m->labels, "le", "+Inf") + ' ' +
                       std::to_string(m->count) + '\n';
                out += fam_name + "_sum" + label_block(m->labels) + ' ' +
                       std::to_string(m->sum) + '\n';
                out += fam_name + "_count" + label_block(m->labels) + ' ' +
                       std::to_string(m->count) + '\n';
                break;
            }
            }
        }
    }
    return out;
}

} // namespace swsec::profile
