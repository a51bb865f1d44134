// Exact PC / basic-block / edge profiler.
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
// An attached profiler keeps the machine on the observed loop, so it serves
// `swsec profile`, fuzz triage's shadow stack and BM_VmExecuteProfiled.  The
// fuzzers' edge coverage does not come from here: the tracer folds it from
// the traced baseline run the engine oracle already makes
// (trace::Tracer::set_coverage), and tests/test_profile.cpp checks that
// fold against this profiler's edge_counts().
//
// This header depends only on common/ so the VM can link it without pulling
// in the object format; symbolization and report rendering live in
// symbolize.hpp / report.hpp.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace swsec::profile {

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
};

} // namespace swsec::profile
