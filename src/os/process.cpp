#include "os/process.hpp"

namespace swsec::os {

Process::Process(std::shared_ptr<const objfmt::Image> image, const SecurityProfile& profile,
                 std::uint64_t seed, const std::string& entry_symbol)
    : image_(std::move(image)), rng_(seed), kernel_(seed ^ 0x6b65726e656cULL) {
    machine_.options().hardware_shadow_stack = profile.shadow_stack;
    machine_.options().coarse_cfi = profile.coarse_cfi;
    machine_.options().memcheck = profile.memcheck;
    machine_.options().sanitize_address = profile.sanitize_address;
    machine_.options().decode_cache = profile.decode_cache;
    machine_.options().fast_engine = profile.fast_engine;

    if (profile.fault_injector != nullptr) {
        machine_.set_fault_injector(profile.fault_injector);
        kernel_.set_fault_injector(profile.fault_injector);
        kernel_.set_retry_policy(profile.syscall_retry);
    }
    if (profile.tracer != nullptr) {
        machine_.set_tracer(profile.tracer);
    }
    if (profile.profiler != nullptr) {
        machine_.set_profiler(profile.profiler);
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

} // namespace swsec::os
