// A loaded process: machine + kernel + image, wired together.
//
// This is the main convenience entry point for examples, tests, benches and
// attack harnesses: build an Image (assembler/linker or MiniC compiler),
// construct a Process with the desired security profile, feed attacker
// input, run, observe output and the final trap.
//
// A Process shares its Image read-only (std::shared_ptr<const Image>): the
// harnesses birth a probe and a victim per cell from one cached compile,
// and copying the image into each was a measurable share of birth.  The
// guest's memory is always the Process's own — the loader copies the
// image's bytes into demand-zero pages, so processes built from one image
// never see each other's stores.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "assembler/object.hpp"
#include "os/kernel.hpp"
#include "os/loader.hpp"
#include "vm/machine.hpp"

namespace swsec::os {

/// Per-process security configuration: the hardware/OS/loader knobs that
/// correspond to the deployed countermeasures of Section III-C1.
struct SecurityProfile {
    bool dep = false;
    bool aslr = false;
    std::uint32_t aslr_entropy_bits = 12;
    bool shadow_stack = false; // hardware return-address protection
    bool coarse_cfi = false;   // indirect-branch target restriction
    bool memcheck = false;     // ASan-style run-time checker (testing mode)
    bool sanitize_address = false; // deployable shadow-memory sanitizer: the
                               // loader maps the shadow region and the kernel
                               // maintains it; pair with
                               // CompilerOptions::sanitize_address so the
                               // image carries the compiled checks
    bool decode_cache = true;  // per-page predecode cache (perf only; the
                               // fuzz engine oracle and the regression tests
                               // flip this off to prove trap-for-trap
                               // equivalence: every step then runs the
                               // observed loop through Machine::fetch)

    /// The platform's fault environment (non-owning; may be null).  When
    /// set, the machine's step loop and the kernel's I/O syscalls probe
    /// this injector, so the deployed process runs on glitching hardware.
    /// The injector must outlive the Process.
    fault::FaultInjector* fault_injector = nullptr;
    RetryPolicy syscall_retry; // kernel bounded-retry policy under faults

    /// Observability tracer attached to the machine (non-owning; may be
    /// null).  Events flow from every platform layer; a null tracer costs
    /// one guarded branch per hook site; a profile is a fold on it
    /// (trace::Tracer::set_fold).  Must outlive the Process.
    trace::Tracer* tracer = nullptr;

    [[nodiscard]] static SecurityProfile none() noexcept { return {}; }
    [[nodiscard]] static SecurityProfile hardened() noexcept {
        SecurityProfile p;
        p.dep = true;
        p.aslr = true;
        return p;
    }
};

/// What one process did, as the machine and its kernel count it: one
/// deterministic snapshot per run (Process::stats()), summed across runs
/// by `+=`.  Every harness exports these counts through one exporter, so a
/// series means the same thing in each of them.
struct RunStats {
    std::uint64_t instructions = 0;   // Machine::steps_executed()
    std::uint64_t dcache_hits = 0;    // DecodeCache::hits()
    std::uint64_t dcache_decodes = 0; // DecodeCache::decodes()
    std::uint64_t syscalls = 0;       // entries of Kernel::syscall_trace()
    vm::DispatchStats dispatch;       // Machine::dispatch_stats()
    KernelFaultStats faults;          // Kernel::fault_stats()
    KernelHeapStats heap;             // Kernel::heap_stats()
    KernelSanitizerStats asan;        // Kernel::sanitizer_stats()

    /// The machine's counts alone (a bare Machine has no kernel).
    [[nodiscard]] static RunStats of(const vm::Machine& m) noexcept;
    /// Sum `o` into this snapshot; heap.high_water keeps the larger of the two.
    RunStats& operator+=(const RunStats& o) noexcept;
    /// "name=value" for every count, space-separated.
    [[nodiscard]] std::string summary() const;
};

class Process {
public:
    /// Load `image` with the given profile.  `seed` drives every random
    /// choice (ASLR layout, canary value, getrandom) deterministically.
    /// The Process keeps the image alive and never mutates it.
    Process(std::shared_ptr<const objfmt::Image> image, const SecurityProfile& profile,
            std::uint64_t seed, const std::string& entry_symbol = "_start");
    /// Convenience for an image built in place (tests, examples).
    Process(objfmt::Image image, const SecurityProfile& profile, std::uint64_t seed,
            const std::string& entry_symbol = "_start")
        : Process(std::make_shared<const objfmt::Image>(std::move(image)), profile, seed,
                  entry_symbol) {}

    // The kernel holds a pointer to the layout and the machine a pointer to
    // the kernel; the object is pinned in place.  (Factory functions relying
    // on guaranteed copy elision of prvalues still work.)
    Process(const Process&) = delete;
    Process& operator=(const Process&) = delete;
    Process(Process&&) = delete;
    Process& operator=(Process&&) = delete;

    [[nodiscard]] vm::Machine& machine() noexcept { return machine_; }
    [[nodiscard]] const vm::Machine& machine() const noexcept { return machine_; }
    [[nodiscard]] Kernel& kernel() noexcept { return kernel_; }
    [[nodiscard]] const ProcessLayout& layout() const noexcept { return layout_; }
    [[nodiscard]] const objfmt::Image& image() const noexcept { return *image_; }

    /// Absolute run-time address of a linked symbol.
    [[nodiscard]] std::uint32_t addr_of(const std::string& symbol) const;

    // I/O attacker interface (forwarders to the kernel).
    void feed_input(const std::string& text, int fd = 0) { kernel_.feed_input(fd, text); }
    void feed_input(std::span<const std::uint8_t> bytes, int fd = 0) {
        kernel_.feed_input(fd, bytes);
    }
    [[nodiscard]] std::string output(int fd = 1) { return kernel_.output_string(fd); }
    [[nodiscard]] const std::vector<std::uint8_t>& output_bytes(int fd = 1) {
        return kernel_.output(fd);
    }

    /// This process's counts so far.
    [[nodiscard]] RunStats stats() const noexcept;

    /// Run to completion (trap) or until the watchdog fires: a program that
    /// is still running after `max_steps` instructions is killed and the
    /// result reports TrapKind::OutOfGas (RunResult::watchdog_expired()),
    /// distinguishing "hung/runaway" from every other failure mode.
    vm::RunResult run(std::uint64_t max_steps = 10'000'000);

private:
    std::shared_ptr<const objfmt::Image> image_;
    Rng rng_;
    vm::Machine machine_;
    Kernel kernel_;
    ProcessLayout layout_;
};

} // namespace swsec::os
