#include "os/kernel.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace swsec::os {

using isa::Reg;
using vm::Sys;
using vm::TrapKind;

void Kernel::feed_input(int fd, std::span<const std::uint8_t> bytes) {
    auto& ch = channels_[fd];
    ch.input.insert(ch.input.end(), bytes.begin(), bytes.end());
}

void Kernel::feed_input(int fd, const std::string& text) {
    auto& ch = channels_[fd];
    for (const char c : text) {
        ch.input.push_back(static_cast<std::uint8_t>(c));
    }
}

const std::vector<std::uint8_t>& Kernel::output(int fd) { return channels_[fd].output; }

std::string Kernel::output_string(int fd) {
    const auto& out = channels_[fd].output;
    return std::string(out.begin(), out.end());
}

fault::SyscallFault Kernel::probe_io_fault(vm::Machine& m, std::uint8_t number) {
    fault::SyscallFault f{};
    if (injector_ == nullptr) {
        return f;
    }
    f = injector_->on_syscall(number, 0);
    unsigned attempt = 0;
    while (f.fail) {
        ++fault_stats_.injected_failures;
        if (m.tracer() != nullptr) {
            m.tracer()->record({trace::EventKind::FaultInjected, m.steps_executed(), m.ip(),
                                m.current_module(), true, trace::CheckOrigin::FaultInjector,
                                number, attempt, 0, "syscall failure injected"});
        }
        ++attempt;
        if (attempt >= retry_.max_attempts) {
            ++fault_stats_.reported_errors;
            return f; // per-call attempts exhausted: fail closed, report the error
        }
        if (fault_stats_.retries >= retry_.max_total_retries) {
            // Process-wide budget spent: stop burning (virtual) time on a
            // device that keeps glitching.  Trace once per occurrence so a
            // campaign post-mortem can see the degradation point.
            ++fault_stats_.budget_exhausted;
            ++fault_stats_.reported_errors;
            if (m.tracer() != nullptr) {
                m.tracer()->record({trace::EventKind::FaultInjected, m.steps_executed(), m.ip(),
                                    m.current_module(), true, trace::CheckOrigin::FaultInjector,
                                    number, attempt,
                                    static_cast<std::uint32_t>(retry_.max_total_retries),
                                    "syscall retry budget exhausted"});
            }
            return f;
        }
        ++fault_stats_.retries;
        fault_stats_.backoff_ticks += retry_.backoff_base << (attempt - 1);
        f = injector_->on_syscall(number, attempt);
    }
    return f;
}

void Kernel::shadow_set(vm::Machine& m, std::uint32_t addr, std::uint32_t len, bool poisoned) {
    if (len == 0) {
        return;
    }
    const std::uint32_t granule = vm::kShadowGranule;
    std::uint32_t first = 0;
    std::uint32_t last = 0; // exclusive, in granule-aligned byte addresses
    if (poisoned) {
        first = (addr + granule - 1) & ~(granule - 1);
        last = (addr + len) & ~(granule - 1);
    } else {
        first = addr & ~(granule - 1);
        last = (addr + len + granule - 1) & ~(granule - 1);
    }
    auto& mem = m.memory();
    for (std::uint32_t a = first; a < last; a += granule) {
        const std::uint32_t s = vm::shadow_of(a);
        if (!mem.is_mapped(s)) {
            continue; // address outside every sanitized segment: nothing to track
        }
        mem.raw_write8(s, poisoned ? 1 : 0);
        if (poisoned) {
            ++sanitizer_stats_.shadow_poisons;
        } else {
            ++sanitizer_stats_.shadow_unpoisons;
        }
    }
}

bool Kernel::shadow_range_ok(vm::Machine& m, std::uint32_t addr, std::uint32_t len,
                             const char* what) {
    if (len == 0) {
        return true;
    }
    ++sanitizer_stats_.interceptor_checks;
    const std::uint32_t granule = vm::kShadowGranule;
    const std::uint32_t first = addr & ~(granule - 1);
    auto& mem = m.memory();
    // Every redzone is granule-aligned by construction, so a whole-granule
    // scan over the overlapped granules is exact: a legal buffer never shares
    // a granule with a redzone.
    for (std::uint32_t a = first; a < addr + len; a += granule) {
        const std::uint32_t s = vm::shadow_of(a);
        if (!mem.is_mapped(s) || mem.raw_read8(s) == 0) {
            continue;
        }
        ++sanitizer_stats_.interceptor_traps;
        const std::uint32_t fault_addr = std::max(a, addr);
        m.set_trap(TrapKind::PoisonedAccess, fault_addr,
                   std::string("address sanitizer: ") + what + " buffer touches a redzone",
                   trace::CheckOrigin::AddressSanitizer);
        return false;
    }
    return true;
}

bool Kernel::sys_read(vm::Machine& m) {
    const auto f = probe_io_fault(m, vm::sys_num(Sys::Read));
    if (f.fail) {
        m.set_reg(Reg::R0, 0xffffffff); // EIO after bounded retries
        return true;
    }
    const int fd = static_cast<std::int32_t>(m.reg(Reg::R0));
    const std::uint32_t buf = m.reg(Reg::R1);
    std::uint32_t len = m.reg(Reg::R2);
    if (f.short_read && f.max_bytes < len) {
        ++fault_stats_.short_reads;
        if (m.tracer() != nullptr) {
            m.tracer()->record({trace::EventKind::FaultInjected, m.steps_executed(), m.ip(),
                                m.current_module(), true, trace::CheckOrigin::FaultInjector,
                                vm::sys_num(Sys::Read), len, f.max_bytes,
                                "short read injected"});
        }
        len = f.max_bytes;
    }
    auto& ch = channels_[fd];
    if (m.options().sanitize_address) {
        // ASan libc-interceptor analogue: validate the *delivered* range
        // before the copy starts, so a read() that would straddle a redzone
        // traps without writing a single byte past it.
        const auto avail = static_cast<std::uint32_t>(
            std::min<std::size_t>(len, ch.input.size()));
        if (!shadow_range_ok(m, buf, avail, "read")) {
            return true;
        }
    }
    std::uint32_t n = 0;
    while (n < len && !ch.input.empty()) {
        const std::uint8_t b = ch.input.front();
        // Stores go through the machine's checked path: reads into protected
        // or unmapped memory fault exactly as a kernel copy-to-user would.
        if (!m.store8(buf + n, b)) {
            return true; // trap already set by the machine
        }
        ch.input.pop_front();
        ++n;
    }
    m.set_reg(Reg::R0, n);
    return true;
}

bool Kernel::sys_write(vm::Machine& m) {
    if (probe_io_fault(m, vm::sys_num(Sys::Write)).fail) {
        m.set_reg(Reg::R0, 0xffffffff);
        return true;
    }
    const int fd = static_cast<std::int32_t>(m.reg(Reg::R0));
    const std::uint32_t buf = m.reg(Reg::R1);
    const std::uint32_t len = m.reg(Reg::R2);
    auto& ch = channels_[fd];
    if (m.options().sanitize_address && !shadow_range_ok(m, buf, len, "write")) {
        return true;
    }
    for (std::uint32_t i = 0; i < len; ++i) {
        std::uint8_t b = 0;
        if (!m.load8(buf + i, b)) {
            return true; // trap set (e.g. read past mapped memory)
        }
        ch.output.push_back(b);
    }
    m.set_reg(Reg::R0, len);
    return true;
}

bool Kernel::sys_sbrk(vm::Machine& m) {
    if (layout_ == nullptr) {
        return false;
    }
    // The increment is a signed 32-bit value; its magnitude is taken in
    // unsigned arithmetic so that INT32_MIN needs no negation.
    const std::uint32_t raw = m.reg(Reg::R0);
    const auto delta = static_cast<std::int32_t>(raw);
    const std::uint32_t old_brk = layout_->brk;
    ++heap_stats_.sbrk_calls;
    if (delta > 0) {
        const std::uint32_t new_brk = old_brk + raw;
        if (new_brk > kHeapLimit) {
            m.set_reg(Reg::R0, 0xffffffff); // ENOMEM
            return true;
        }
        m.memory().map(old_brk, raw, vm::Perm::RW);
        if (m.options().sanitize_address) {
            // Materialise the shadow slice for the grown range and clear it:
            // a brk shrink/regrow cycle must not resurrect stale poison.
            const std::uint32_t lo = vm::shadow_of(old_brk);
            const std::uint32_t hi = vm::shadow_of(new_brk - 1) + 1;
            m.memory().map(lo, hi - lo, vm::Perm::RW);
            shadow_set(m, old_brk, raw, /*poisoned=*/false);
        }
        layout_->brk = new_brk;
        heap_stats_.grown_bytes += raw;
        heap_stats_.high_water = std::max(heap_stats_.high_water, new_brk - layout_->heap_base);
        if (m.tracer() != nullptr) {
            m.tracer()->record({trace::EventKind::HeapAlloc, m.steps_executed(), m.ip(),
                                m.current_module(), true, trace::CheckOrigin::None, 0, old_brk,
                                raw, {}});
        }
    } else if (delta < 0) {
        const std::uint32_t shrink = 0U - raw;
        if (shrink > old_brk - layout_->heap_base) {
            // The break never moves below the heap: below it lie the
            // program's own segments, which a regrow would remap RW.
            m.set_reg(Reg::R0, 0xffffffff);
            return true;
        }
        layout_->brk = old_brk - shrink;
        heap_stats_.shrunk_bytes += shrink;
        if (m.tracer() != nullptr) {
            m.tracer()->record({trace::EventKind::HeapFree, m.steps_executed(), m.ip(),
                                m.current_module(), true, trace::CheckOrigin::None, 0,
                                layout_->brk, shrink, {}});
        }
    }
    m.set_reg(Reg::R0, old_brk);
    return true;
}

bool Kernel::sys_getrandom(vm::Machine& m) {
    const std::uint32_t buf = m.reg(Reg::R0);
    const std::uint32_t len = m.reg(Reg::R1);
    if (m.options().sanitize_address && !shadow_range_ok(m, buf, len, "getrandom")) {
        return true;
    }
    for (std::uint32_t i = 0; i < len; ++i) {
        if (!m.store8(buf + i, static_cast<std::uint8_t>(rng_.next_u32() & 0xff))) {
            return true;
        }
    }
    return true;
}

bool Kernel::handle_syscall(vm::Machine& m, std::uint8_t number) {
    trace_.push_back(SyscallRecord{
        number, {m.reg(Reg::R0), m.reg(Reg::R1), m.reg(Reg::R2)}});
    switch (static_cast<Sys>(number)) {
    case Sys::Exit:
        m.set_exit(static_cast<std::int32_t>(m.reg(Reg::R0)));
        return true;
    case Sys::Read:
        return sys_read(m);
    case Sys::Write:
        return sys_write(m);
    case Sys::Sbrk:
        return sys_sbrk(m);
    case Sys::GetRandom:
        return sys_getrandom(m);
    case Sys::Abort:
        // r0 carries the abort reason (vm::AbortReason): compiler-inserted
        // checks all funnel through this one syscall, and without the reason
        // code a canary hit, a bounds hit and a fortify hit are
        // indistinguishable in the trap record.
        switch (static_cast<vm::AbortReason>(m.reg(Reg::R0))) {
        case vm::AbortReason::Canary:
            m.set_trap(TrapKind::Abort, 0, "stack canary check failed (stack smashing detected)",
                       trace::CheckOrigin::Canary);
            break;
        case vm::AbortReason::Bounds:
            m.set_trap(TrapKind::Abort, 0, "array bounds check failed",
                       trace::CheckOrigin::Bounds);
            break;
        case vm::AbortReason::Fortify:
            m.set_trap(TrapKind::Abort, 0, "fortified read exceeded destination capacity",
                       trace::CheckOrigin::Fortify);
            break;
        case vm::AbortReason::PmaGuard:
            m.set_trap(TrapKind::Abort, 0, "module entry-point sanitisation failed",
                       trace::CheckOrigin::Pma);
            break;
        case vm::AbortReason::Asan:
            // The compiled shadow check found a poisoned granule; r1 carries
            // the faulting address.  This is a PoisonedAccess, not an Abort:
            // the sanitizer is the deployable sibling of memcheck and its
            // verdict must be comparable cell-for-cell in the matrix.
            m.set_trap(TrapKind::PoisonedAccess, m.reg(Reg::R1),
                       "address sanitizer: redzone access detected",
                       trace::CheckOrigin::AddressSanitizer);
            break;
        case vm::AbortReason::Generic:
        default:
            m.set_trap(TrapKind::Abort, 0, "program aborted (countermeasure check failed)");
            break;
        }
        return true;
    case Sys::Poison:
        if (m.options().memcheck) {
            m.memory().poison(m.reg(Reg::R0), m.reg(Reg::R1));
        }
        if (m.options().sanitize_address) {
            shadow_set(m, m.reg(Reg::R0), m.reg(Reg::R1), /*poisoned=*/true);
        }
        return true;
    case Sys::Unpoison:
        if (m.options().memcheck) {
            m.memory().unpoison(m.reg(Reg::R0), m.reg(Reg::R1));
        }
        if (m.options().sanitize_address) {
            shadow_set(m, m.reg(Reg::R0), m.reg(Reg::R1), /*poisoned=*/false);
        }
        return true;
    case Sys::MemcheckActive:
        // Either checker counts as "active": the allocator quarantines freed
        // chunks and skips recycling under the sanitizer exactly as under
        // memcheck, so its own metadata walks never read poisoned headers.
        m.set_reg(Reg::R0, (m.options().memcheck || m.options().sanitize_address) ? 1 : 0);
        return true;
    default:
        if (extension_ != nullptr) {
            return extension_->handle_syscall(m, number);
        }
        return false;
    }
}

} // namespace swsec::os
