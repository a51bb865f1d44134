#include "os/process.hpp"

#include <algorithm>
#include <utility>

namespace swsec::os {

Process::Process(std::shared_ptr<const objfmt::Image> image, const SecurityProfile& profile,
                 std::uint64_t seed, const std::string& entry_symbol)
    : image_(std::move(image)), rng_(seed), kernel_(seed ^ 0x6b65726e656cULL) {
    machine_.options().hardware_shadow_stack = profile.shadow_stack;
    machine_.options().coarse_cfi = profile.coarse_cfi;
    machine_.options().memcheck = profile.memcheck;
    machine_.options().sanitize_address = profile.sanitize_address;
    machine_.options().decode_cache = profile.decode_cache;

    if (profile.fault_injector != nullptr) {
        machine_.set_fault_injector(profile.fault_injector);
        kernel_.set_fault_injector(profile.fault_injector);
        kernel_.set_retry_policy(profile.syscall_retry);
    }
    if (profile.tracer != nullptr) {
        machine_.set_tracer(profile.tracer);
    }

    LoadOptions lo;
    lo.dep = profile.dep;
    lo.aslr = profile.aslr;
    lo.aslr_entropy_bits = profile.aslr_entropy_bits;
    lo.sanitize_address = profile.sanitize_address;
    layout_ = load_image(machine_, *image_, lo, rng_, entry_symbol);

    kernel_.attach_layout(&layout_);
    machine_.set_syscall_handler(&kernel_);
}

std::uint32_t Process::addr_of(const std::string& symbol) const {
    return symbol_address(*image_, layout_, symbol);
}

vm::RunResult Process::run(std::uint64_t max_steps) { return machine_.run(max_steps); }

RunStats Process::stats() const noexcept {
    RunStats s = RunStats::of(machine_);
    s.syscalls = kernel_.syscall_trace().size();
    s.faults = kernel_.fault_stats();
    s.heap = kernel_.heap_stats();
    s.asan = kernel_.sanitizer_stats();
    return s;
}

RunStats RunStats::of(const vm::Machine& m) noexcept {
    RunStats s;
    s.instructions = m.steps_executed();
    s.dcache_hits = m.decode_cache().hits();
    s.dcache_decodes = m.decode_cache().decodes();
    s.dispatch = m.dispatch_stats();
    return s;
}

RunStats& RunStats::operator+=(const RunStats& o) noexcept {
    instructions += o.instructions;
    dcache_hits += o.dcache_hits;
    dcache_decodes += o.dcache_decodes;
    syscalls += o.syscalls;
    dispatch.tier2_entries += o.dispatch.tier2_entries;
    dispatch.fast_steps += o.dispatch.fast_steps;
    dispatch.superinsns_retired += o.dispatch.superinsns_retired;
    dispatch.deopt_page_gen += o.dispatch.deopt_page_gen;
    dispatch.deopt_slow_fetch += o.dispatch.deopt_slow_fetch;
    dispatch.deopt_trap += o.dispatch.deopt_trap;
    dispatch.deopt_budget += o.dispatch.deopt_budget;
    dispatch.deopt_syscall += o.dispatch.deopt_syscall;
    dispatch.deopt_observer += o.dispatch.deopt_observer;
    faults.injected_failures += o.faults.injected_failures;
    faults.retries += o.faults.retries;
    faults.backoff_ticks += o.faults.backoff_ticks;
    faults.short_reads += o.faults.short_reads;
    faults.reported_errors += o.faults.reported_errors;
    faults.budget_exhausted += o.faults.budget_exhausted;
    heap.sbrk_calls += o.heap.sbrk_calls;
    heap.grown_bytes += o.heap.grown_bytes;
    heap.shrunk_bytes += o.heap.shrunk_bytes;
    heap.high_water = std::max(heap.high_water, o.heap.high_water);
    asan.shadow_poisons += o.asan.shadow_poisons;
    asan.shadow_unpoisons += o.asan.shadow_unpoisons;
    asan.interceptor_checks += o.asan.interceptor_checks;
    asan.interceptor_traps += o.asan.interceptor_traps;
    return *this;
}

std::string RunStats::summary() const {
    const std::pair<const char*, std::uint64_t> counts[] = {
        {"instructions", instructions},
        {"dcache_hits", dcache_hits},
        {"dcache_decodes", dcache_decodes},
        {"syscalls", syscalls},
        {"syscall_retries", faults.retries},
        {"io_faults_injected", faults.injected_failures},
        {"sbrk_calls", heap.sbrk_calls},
        {"heap_high_water", heap.high_water},
        {"tier2_entries", dispatch.tier2_entries},
        {"fast_steps", dispatch.fast_steps},
        {"superinsns_retired", dispatch.superinsns_retired},
        {"deopts", dispatch.deopts()},
        {"asan_shadow_poisons", asan.shadow_poisons},
        {"asan_shadow_unpoisons", asan.shadow_unpoisons},
        {"asan_interceptor_checks", asan.interceptor_checks},
        {"asan_interceptor_traps", asan.interceptor_traps},
    };
    std::string out;
    for (const auto& [name, value] : counts) {
        out += (out.empty() ? "" : " ") + std::string(name) + "=" + std::to_string(value);
    }
    return out;
}

} // namespace swsec::os
