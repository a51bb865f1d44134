// Exact PC / basic-block / edge profiler and AFL-style edge-coverage bitmap.
//
// The Profiler is attached to a vm::Machine through the same null-guarded,
// non-owning pointer discipline as trace::Tracer and fault::FaultInjector:
// a detached profiler costs nothing on the memory fast paths (the only hook
// sites are the VM engine's observed retire, call and ret), and
// an attached one observes the *architectural* event stream — retired
// instructions and taken control transfers — so its counts are exact, not
// sampled, and identical across decode-cache on/off and `--jobs N`.
//
// The shadow call stack mirrors the machine's call/ret pairing (it is an
// observer, not the security mechanism — that one lives in vm::Machine as
// `hardware_shadow_stack`).  Every `sample_interval` retires the profiler
// snapshots the shadow stack, which folds into flamegraph stacks at report
// time.  The interval counter is instruction-based, so samples are as
// deterministic as the run itself.
//
// This header depends only on common/ so the VM can link it without pulling
// in the object format; symbolization and report rendering live in
// symbolize.hpp / report.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace swsec::profile {

/// Fixed-size edge-coverage bitmap (2^16 buckets, AFL-style).  Buckets are a
/// deterministic hash of the (from, to) edge, so the same run always lights
/// the same bits; `merge_new` supports the fuzzer's cumulative coverage
/// curve with an exact "newly covered" count.
class CoverageBitmap {
public:
    static constexpr std::uint32_t kBuckets = 1u << 16;

    [[nodiscard]] static std::uint32_t bucket(std::uint32_t from, std::uint32_t to) noexcept {
        // Deterministic avalanche mix of both endpoints (splitmix-style).
        std::uint32_t h = from * 0x9e3779b1u;
        h ^= to + 0x7f4a7c15u + (h << 6) + (h >> 2);
        h *= 0x85ebca6bu;
        h ^= h >> 13;
        return h & (kBuckets - 1);
    }

    void add(std::uint32_t from, std::uint32_t to) noexcept {
        const std::uint32_t b = bucket(from, to);
        words_[b >> 6] |= 1ull << (b & 63);
    }

    [[nodiscard]] bool test(std::uint32_t b) const noexcept {
        return (words_[b >> 6] >> (b & 63)) & 1u;
    }

    /// Number of distinct covered buckets.
    [[nodiscard]] std::uint32_t popcount() const noexcept;

    /// OR `other` into this bitmap; returns how many buckets became newly set.
    std::uint32_t merge_new(const CoverageBitmap& other) noexcept;

    void clear() noexcept { words_.fill(0); }

    [[nodiscard]] const std::array<std::uint64_t, kBuckets / 64>& words() const noexcept {
        return words_;
    }

private:
    std::array<std::uint64_t, kBuckets / 64> words_{};
};

/// One recorded call-stack sample: the shadow stack (function entry PCs,
/// outermost first) with the sampled PC appended.
using StackSample = std::vector<std::uint32_t>;

class Profiler {
public:
    // ---- hooks called by vm::Machine (null-guarded at the call site) ------
    void on_retire(std::uint32_t pc) noexcept {
        ++retired_;
        ++pc_counts_[pc];
        if (sample_interval_ != 0 && retired_ % sample_interval_ == 0) {
            take_sample(pc);
        }
    }

    /// A taken or fall-through edge of a control-transfer instruction
    /// (jumps, calls, returns, indirect forms).  `to` is the architectural
    /// successor IP after execution.
    void on_edge(std::uint32_t from, std::uint32_t to) noexcept {
        ++edge_counts_[edge_key(from, to)];
        if (coverage_ != nullptr && in_window(from) && in_window(to)) {
            coverage_->add(from - window_base_, to - window_base_);
        }
    }

    void on_call(std::uint32_t target) { shadow_stack_.push_back(target); }

    void on_ret() noexcept {
        if (!shadow_stack_.empty()) {
            shadow_stack_.pop_back();
        }
    }

    // ---- configuration ----------------------------------------------------
    /// Sample the shadow stack every `n` retired instructions (0 disables the
    /// sampler).  97 is prime so loops do not alias the sample grid.
    void set_sample_interval(std::uint64_t n) noexcept { sample_interval_ = n; }

    /// Record coverage edges into `bmp` (non-owning; nullptr detaches).
    /// Edges are recorded relative to `base` and only when both endpoints
    /// fall inside [base, base+size): text-relative coverage is what makes
    /// bitmaps comparable across ASLR draws, and it excludes stack-injected
    /// shellcode, which is not program coverage.
    void set_coverage(CoverageBitmap* bmp, std::uint32_t base = 0,
                      std::uint32_t size = 0xffffffffu) noexcept {
        coverage_ = bmp;
        window_base_ = base;
        window_size_ = size;
    }

    void reset() noexcept {
        retired_ = 0;
        pc_counts_.clear();
        edge_counts_.clear();
        shadow_stack_.clear();
        samples_.clear();
    }

    // ---- results ----------------------------------------------------------
    [[nodiscard]] std::uint64_t retired() const noexcept { return retired_; }
    [[nodiscard]] const std::unordered_map<std::uint32_t, std::uint64_t>& pc_counts()
        const noexcept {
        return pc_counts_;
    }
    [[nodiscard]] const std::unordered_map<std::uint64_t, std::uint64_t>& edge_counts()
        const noexcept {
        return edge_counts_;
    }
    [[nodiscard]] const std::map<StackSample, std::uint64_t>& samples() const noexcept {
        return samples_;
    }
    [[nodiscard]] const std::vector<std::uint32_t>& shadow_stack() const noexcept {
        return shadow_stack_;
    }

    [[nodiscard]] static constexpr std::uint64_t edge_key(std::uint32_t from,
                                                          std::uint32_t to) noexcept {
        return (static_cast<std::uint64_t>(from) << 32) | to;
    }
    static constexpr std::uint32_t edge_from(std::uint64_t key) noexcept {
        return static_cast<std::uint32_t>(key >> 32);
    }
    static constexpr std::uint32_t edge_to(std::uint64_t key) noexcept {
        return static_cast<std::uint32_t>(key & 0xffffffffu);
    }

private:
    [[nodiscard]] bool in_window(std::uint32_t pc) const noexcept {
        return pc - window_base_ < window_size_;
    }

    void take_sample(std::uint32_t pc) {
        StackSample s = shadow_stack_;
        s.push_back(pc);
        ++samples_[std::move(s)];
    }

    std::uint64_t retired_ = 0;
    std::uint64_t sample_interval_ = 97;
    std::unordered_map<std::uint32_t, std::uint64_t> pc_counts_;
    std::unordered_map<std::uint64_t, std::uint64_t> edge_counts_;
    std::vector<std::uint32_t> shadow_stack_;
    std::map<StackSample, std::uint64_t> samples_;

    CoverageBitmap* coverage_ = nullptr;
    std::uint32_t window_base_ = 0;
    std::uint32_t window_size_ = 0xffffffffu;
};

} // namespace swsec::profile
