// Exact PC / basic-block / edge profiler.
//
// The Profiler is a fold over the retired stream (trace::RetireFold)
// attached to a tracer (trace::Tracer::set_fold), which both engine loops
// feed: a profiled run executes traced tier 2 wherever a traced run does,
// and its counts are exact, not sampled, and identical across decode-cache
// on/off and `--jobs N`.  A profile alone rides on a trace::Tracer(1).
//
// The shadow call stack mirrors the machine's call/ret pairing (it is an
// observer, not the security mechanism — that one lives in vm::Machine as
// `hardware_shadow_stack`); a call's push and a ret's pop land before that
// retirement's sample.  Every `sample_interval` retires the profiler
// snapshots the shadow stack, which folds into flamegraph stacks at report
// time.  The interval counter is instruction-based, so samples are as
// deterministic as the run itself.
//
// It serves `swsec profile`, fuzz triage's shadow stack and
// BM_VmExecuteProfiled.  The fuzzers' edge coverage is the tracer's own
// fold (trace::Tracer::set_coverage); tests/test_profile.cpp checks it
// against this profiler's edge_counts().  Symbolization and report
// rendering live in symbolize.hpp / report.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "isa/isa.hpp"
#include "trace/trace.hpp"

namespace swsec::profile {

/// One recorded call-stack sample: the shadow stack (function entry PCs,
/// outermost first) with the sampled PC appended.
using StackSample = std::vector<std::uint32_t>;

class Profiler final : public trace::RetireFold {
public:
    Profiler() = default;
    Profiler(Profiler&&) = default; // no copies: memo_ points into pc_counts_,
    Profiler& operator=(Profiler&&) = default; // whose nodes a move keeps

    // ---- the fold (called by trace::Tracer) --------------------------------
    void retire(std::uint32_t pc, std::uint8_t opcode) override {
        ++retired_;
        ++pc_count(pc);
        // A countdown, not a division per retirement; interval 0 never fires.
        const bool due = --until_sample_ == 0;
        if (due) {
            until_sample_ = sample_interval_;
        }
        if (opcode == static_cast<std::uint8_t>(isa::Op::Call) ||
            opcode == static_cast<std::uint8_t>(isa::Op::CallR)) {
            // The push needs the target, which the call's edge brings next.
            call_pending_ = true;
            call_sample_due_ = due;
            return;
        }
        if (opcode == static_cast<std::uint8_t>(isa::Op::Ret) && !shadow_stack_.empty()) {
            shadow_stack_.pop_back();
        }
        if (due) {
            take_sample(pc);
        }
    }

    /// A taken or fall-through edge of a control-transfer instruction
    /// (jumps, calls, returns, indirect forms).  `to` is the architectural
    /// successor IP after execution.
    void edge(std::uint32_t from, std::uint32_t to) override {
        ++edge_counts_[edge_key(from, to)];
        if (call_pending_) {
            call_pending_ = false;
            shadow_stack_.push_back(to);
            if (call_sample_due_) {
                take_sample(from);
            }
        }
    }

    // ---- configuration ----------------------------------------------------
    /// Sample the shadow stack every `n` retired instructions (0 disables the
    /// sampler).  97 is prime so loops do not alias the sample grid.
    void set_sample_interval(std::uint64_t n) noexcept {
        sample_interval_ = n;
        until_sample_ = n;
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
    /// pc_counts_[pc] through a direct-mapped memo of its entries, which
    /// never move: the map's own lookup was the fold's largest cost.
    std::uint64_t& pc_count(std::uint32_t pc) {
        auto& [memo_pc, count] = memo_[pc % memo_.size()];
        if (count == nullptr || memo_pc != pc) {
            memo_pc = pc;
            count = &pc_counts_[pc];
        }
        return *count;
    }

    void take_sample(std::uint32_t pc) {
        StackSample s = shadow_stack_;
        s.push_back(pc);
        ++samples_[std::move(s)];
    }

    std::uint64_t retired_ = 0;
    std::uint64_t sample_interval_ = 97;
    std::uint64_t until_sample_ = 97; // retirements left until the next sample
    bool call_pending_ = false;    // a call retired; its edge pushes the target
    bool call_sample_due_ = false; // ... and then takes that retirement's sample
    std::array<std::pair<std::uint32_t, std::uint64_t*>, 1024> memo_{};
    std::unordered_map<std::uint32_t, std::uint64_t> pc_counts_;
    std::unordered_map<std::uint64_t, std::uint64_t> edge_counts_;
    std::vector<std::uint32_t> shadow_stack_;
    std::map<StackSample, std::uint64_t> samples_;
};

} // namespace swsec::profile
