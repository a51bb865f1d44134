// The OS kernel substrate: syscall handling and I/O channels.
//
// The I/O attacker model of Section III *is* this interface: the attacker
// chooses the bytes queued on the input channels and observes the bytes the
// program writes to the output channels — nothing else.
//
// The kernel implements the base syscalls (exit/read/write/sbrk/getrandom/
// abort/poison); "hardware" extensions (remote attestation, sealed storage,
// monotonic counters) register as a fallback handler so the attestation and
// state-continuity modules can plug in without the kernel knowing them.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "os/layout.hpp"
#include "vm/machine.hpp"
#include "vm/syscalls.hpp"

namespace swsec::os {

/// Bounded-retry policy for transiently failing device operations: the
/// kernel retries a failed I/O syscall up to `max_attempts` total attempts,
/// charging exponentially growing virtual backoff time, before surfacing
/// the error to the program as a -1 return.  This is the OS-driver half of
/// the fault model: a fail-closed platform may *retry* a glitching device,
/// but must eventually report failure rather than fabricate success.
struct RetryPolicy {
    unsigned max_attempts = 4; // total attempts per syscall (first + retries)
    unsigned backoff_base = 8; // virtual ticks charged for the first retry
    /// Total retry budget per process across all syscalls.  The per-call
    /// bound alone lets a persistently glitching device soak unbounded time
    /// in (retries x calls); once the process-wide budget is spent, further
    /// failures are surfaced immediately (still fail-closed — an error
    /// return, never fabricated success) and a FaultInjected trace event
    /// records the exhaustion.
    unsigned max_total_retries = 256;
};

/// Injection/retry accounting, for tests and the sweep harness.
struct KernelFaultStats {
    std::uint64_t injected_failures = 0; // attempts the injector failed
    std::uint64_t retries = 0;           // retry attempts performed
    std::uint64_t backoff_ticks = 0;     // virtual backoff time accumulated
    std::uint64_t short_reads = 0;       // reads capped by injection
    std::uint64_t reported_errors = 0;   // failures surfaced to the program
    std::uint64_t budget_exhausted = 0;  // failures not retried: process-wide
                                         // retry budget already spent
};

/// brk-level heap accounting for the metrics registry.  `high_water` is the
/// most bytes the program break ever sat above heap_base; together with the
/// final break it bounds allocator-level retention (grown-but-released
/// space the in-VM allocator holds on to — a brk-granularity fragmentation
/// proxy; the kernel cannot see individual free-list holes).
struct KernelHeapStats {
    std::uint64_t sbrk_calls = 0;
    std::uint64_t grown_bytes = 0;
    std::uint64_t shrunk_bytes = 0;
    std::uint32_t high_water = 0; // max(brk - heap_base) over the run
};

/// Shadow-memory bookkeeping when the process runs under the deployable
/// address sanitizer (SecurityProfile::sanitize_address).  The kernel is the
/// only writer of the shadow region (compiled code merely *reads* it via the
/// instrumented checks) and pre-checks every syscall buffer range against it
/// — the interceptor role libc shims play in a real ASan runtime.
struct KernelSanitizerStats {
    std::uint64_t shadow_poisons = 0;     // granules poisoned via Sys::Poison
    std::uint64_t shadow_unpoisons = 0;   // granules cleared via Sys::Unpoison
    std::uint64_t interceptor_checks = 0; // syscall buffer ranges pre-checked
    std::uint64_t interceptor_traps = 0;  // redzone hits caught pre-copy
};

/// One byte-stream endpoint pair (what the program reads / what it wrote).
struct Channel {
    std::deque<std::uint8_t> input;
    std::vector<std::uint8_t> output;
};

class Kernel : public vm::SyscallHandler {
public:
    explicit Kernel(std::uint64_t seed) : rng_(seed) {}

    /// The layout is owned by the Process; the kernel needs it for sbrk.
    void attach_layout(ProcessLayout* layout) noexcept { layout_ = layout; }

    /// Chain a hardware extension consulted for syscalls the kernel does not
    /// implement (attestation, sealing, counters).  Non-owning.
    void set_extension(vm::SyscallHandler* ext) noexcept { extension_ = ext; }

    /// Attach a fault injector probed on every I/O syscall attempt (read/
    /// write): injected transient failures are retried per the RetryPolicy,
    /// injected short reads cap the delivered byte count.  Non-owning.
    void set_fault_injector(fault::FaultInjector* inj) noexcept { injector_ = inj; }
    void set_retry_policy(RetryPolicy p) noexcept { retry_ = p; }
    [[nodiscard]] const KernelFaultStats& fault_stats() const noexcept { return fault_stats_; }
    [[nodiscard]] const KernelHeapStats& heap_stats() const noexcept { return heap_stats_; }
    [[nodiscard]] const KernelSanitizerStats& sanitizer_stats() const noexcept {
        return sanitizer_stats_;
    }

    // --- I/O attacker interface ------------------------------------------
    /// Queue bytes the program will see on its next SYS read from `fd`.
    void feed_input(int fd, std::span<const std::uint8_t> bytes);
    void feed_input(int fd, const std::string& text);
    /// Everything the program has written to `fd` so far.
    [[nodiscard]] const std::vector<std::uint8_t>& output(int fd);
    [[nodiscard]] std::string output_string(int fd);

    bool handle_syscall(vm::Machine& m, std::uint8_t number) override;

    [[nodiscard]] Rng& rng() noexcept { return rng_; }

    /// Trace of every syscall (number + r0..r2 at entry).  Attack harnesses
    /// use a probe run's trace to learn run-time addresses (e.g. the buffer
    /// address passed to read()), standing in for the reconnaissance a real
    /// attacker performs on a copy of the target system.
    struct SyscallRecord {
        std::uint8_t number = 0;
        std::array<std::uint32_t, 3> args{};
    };
    [[nodiscard]] const std::vector<SyscallRecord>& syscall_trace() const noexcept {
        return trace_;
    }

private:
    bool sys_read(vm::Machine& m);
    bool sys_write(vm::Machine& m);
    bool sys_sbrk(vm::Machine& m);
    bool sys_getrandom(vm::Machine& m);
    /// Write the shadow bytes for [addr, addr+len): poison rounds *inward*
    /// (only fully covered granules), unpoison rounds *outward* (any granule
    /// touched) — the asymmetry every shadow-memory sanitizer needs so a
    /// partial-granule free never leaves a live neighbour poisoned.
    void shadow_set(vm::Machine& m, std::uint32_t addr, std::uint32_t len, bool poisoned);
    /// Pre-check a syscall buffer range against the shadow before copying.
    /// On a redzone hit sets TrapKind::PoisonedAccess (AddressSanitizer
    /// origin) and returns false; the syscall must then return immediately.
    [[nodiscard]] bool shadow_range_ok(vm::Machine& m, std::uint32_t addr, std::uint32_t len,
                                       const char* what);
    /// Probe the injector for this syscall, running the bounded-retry loop.
    /// The returned decision is the post-retry verdict: if it still says
    /// fail, the kernel reports the error to the program.  Injected failures
    /// are reported to the machine's tracer as FaultInjected events.
    [[nodiscard]] fault::SyscallFault probe_io_fault(vm::Machine& m, std::uint8_t number);

    std::map<int, Channel> channels_;
    std::vector<SyscallRecord> trace_;
    Rng rng_;
    ProcessLayout* layout_ = nullptr;       // non-owning
    vm::SyscallHandler* extension_ = nullptr; // non-owning
    fault::FaultInjector* injector_ = nullptr; // non-owning; may be null
    RetryPolicy retry_;
    KernelFaultStats fault_stats_;
    KernelHeapStats heap_stats_;
    KernelSanitizerStats sanitizer_stats_;
};

} // namespace swsec::os
