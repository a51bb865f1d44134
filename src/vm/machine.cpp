#include "vm/machine.hpp"

#include "common/error.hpp"
#include "common/hexdump.hpp"
#include "vm/engine_fast.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace swsec::vm {

using isa::Insn;
using isa::Reg;

void Machine::set_cfi_targets(std::vector<std::uint32_t> targets) {
    cfi_targets_.clear();
    cfi_targets_.insert(targets.begin(), targets.end());
}

int Machine::add_protected_module(ProtectedModule module) {
    modules_.push_back(std::move(module));
    return static_cast<int>(modules_.size()) - 1;
}

int Machine::module_containing(std::uint32_t addr) const noexcept {
    for (std::size_t i = 0; i < modules_.size(); ++i) {
        if (modules_[i].contains(addr)) {
            return static_cast<int>(i);
        }
    }
    return kNoModule;
}

trace::CheckOrigin Machine::default_origin(TrapKind kind) const noexcept {
    switch (kind) {
    case TrapKind::SegvExec:
        // Only a DEP "catch" when NX is actually enforced; a fetch of
        // unmapped memory on the unprotected machine is a plain segfault.
        return opts_.enforce_nx ? trace::CheckOrigin::Dep : trace::CheckOrigin::None;
    case TrapKind::PoisonedAccess:
        return trace::CheckOrigin::Memcheck;
    case TrapKind::PmaViolation:
        return trace::CheckOrigin::Pma;
    case TrapKind::ShadowStackViolation:
        return trace::CheckOrigin::ShadowStack;
    case TrapKind::CfiViolation:
        return trace::CheckOrigin::Cfi;
    case TrapKind::CapViolation:
        return trace::CheckOrigin::Capability;
    case TrapKind::OutOfGas:
        return trace::CheckOrigin::Watchdog;
    case TrapKind::PowerCut:
        return trace::CheckOrigin::FaultInjector;
    default:
        return trace::CheckOrigin::None;
    }
}

void Machine::set_trap(TrapKind kind, std::uint32_t addr, std::string detail,
                       trace::CheckOrigin origin) {
    trap_.kind = kind;
    trap_.ip = ip_;
    trap_.addr = addr;
    trap_.detail = std::move(detail);
    trap_.origin = (origin != trace::CheckOrigin::None) ? origin : default_origin(kind);
    trap_.module = current_module_;
    trap_.kernel = in_kernel_;
    if (tracer_ != nullptr) {
        tracer_->record({trace::EventKind::TrapRaised, steps_, ip_, current_module_, in_kernel_,
                         trap_.origin, static_cast<std::uint8_t>(kind), addr, 0, trap_name(kind)});
    }
}

void Machine::set_exit(std::int32_t code) {
    trap_.kind = TrapKind::Exit;
    trap_.ip = ip_;
    trap_.code = code;
    trap_.origin = trace::CheckOrigin::None;
    trap_.module = current_module_;
    trap_.kernel = in_kernel_;
    if (tracer_ != nullptr) {
        tracer_->record({trace::EventKind::TrapRaised, steps_, ip_, current_module_, in_kernel_,
                         trace::CheckOrigin::None, static_cast<std::uint8_t>(TrapKind::Exit),
                         static_cast<std::uint32_t>(code), 0, "exit"});
    }
}

// ---------------------------------------------------------------------------
// PMA access control (the three rules of Section IV-A)
// ---------------------------------------------------------------------------

bool Machine::pma_allows_data(std::uint32_t addr, bool write) const noexcept {
    (void)write; // reads and writes are treated alike by the model
    const int owner = module_containing(addr);
    if (owner == kNoModule) {
        return true; // unprotected memory: ordinary page permissions apply
    }
    // Rule 1: from outside the module (or from another module) no access.
    if (current_module_ != owner) {
        return false;
    }
    // Rule 2: inside the module, only the data section is read/writable —
    // code is execute-only even for the module itself.
    return modules_[static_cast<std::size_t>(owner)].in_data(addr);
}

bool Machine::pma_allows_fetch(std::uint32_t addr) const noexcept {
    const int owner = module_containing(addr);
    if (owner == kNoModule) {
        return true; // leaving a module is always permitted
    }
    const auto& m = modules_[static_cast<std::size_t>(owner)];
    if (!m.in_code(addr)) {
        return false; // executing a module's data section is never allowed
    }
    if (current_module_ == owner) {
        return true; // sequential / internal control flow
    }
    // Rule 3: entering from outside only via a designated entry point.
    return m.is_entry(addr);
}

// ---------------------------------------------------------------------------
// Checked memory access
// ---------------------------------------------------------------------------

bool Machine::load8(std::uint32_t addr, std::uint8_t& out) {
    if (!pma_allows_data(addr, /*write=*/false)) {
        set_trap(TrapKind::PmaViolation, addr, "read of protected module memory");
        return false;
    }
    switch (mem_.check(addr, 1, Perm::R, opts_.memcheck)) {
    case AccessFault::None:
        break;
    case AccessFault::Poisoned:
        set_trap(TrapKind::PoisonedAccess, addr, "read of poisoned memory");
        return false;
    default:
        set_trap(TrapKind::SegvRead, addr);
        return false;
    }
    out = mem_.read8(addr);
    return true;
}

bool Machine::store8(std::uint32_t addr, std::uint8_t v) {
    if (!pma_allows_data(addr, /*write=*/true)) {
        set_trap(TrapKind::PmaViolation, addr, "write of protected module memory");
        return false;
    }
    switch (mem_.check(addr, 1, Perm::W, opts_.memcheck)) {
    case AccessFault::None:
        break;
    case AccessFault::Poisoned:
        set_trap(TrapKind::PoisonedAccess, addr, "write of poisoned memory");
        return false;
    default:
        set_trap(TrapKind::SegvWrite, addr);
        return false;
    }
    mem_.write8(addr, v);
    return true;
}

// ---------------------------------------------------------------------------
// Kernel-privilege access: page permissions do not bind the kernel, but the
// PMA hardware does (with "outside every module" semantics).
// ---------------------------------------------------------------------------

bool Machine::kernel_read32(std::uint32_t addr, std::uint32_t& out) const noexcept {
    if (!kernel_word_allowed(addr)) {
        if (tracer_ != nullptr && module_containing(addr) != kNoModule) {
            tracer_->record({trace::EventKind::MemFault, steps_, ip_, module_containing(addr),
                             true, trace::CheckOrigin::Pma, 0, addr, 4,
                             "pma denied kernel read"});
        }
        return false;
    }
    out = mem_.read32(addr);
    return true;
}

bool Machine::kernel_word_allowed(std::uint32_t addr) const noexcept {
    // Validate the whole word up front: each byte must be mapped and lie
    // outside every protected module.  Within one page a single is_mapped
    // check covers all four bytes; a module boundary can still cut through
    // the word, so the PMA test stays per byte (and is skipped entirely in
    // the common moduleless configuration).
    if (!modules_.empty()) {
        for (std::uint32_t i = 0; i < 4; ++i) {
            if (module_containing(addr + i) != kNoModule) {
                return false;
            }
        }
    }
    if ((addr & (kPageSize - 1)) <= kPageSize - 4) {
        return mem_.is_mapped(addr);
    }
    return mem_.is_mapped(addr) && mem_.is_mapped(addr + 3);
}

bool Machine::kernel_write32(std::uint32_t addr, std::uint32_t v) {
    // All-or-nothing: validate every byte before mutating any.  The old
    // byte-at-a-time loop could fail on byte 2 with bytes 0-1 already
    // written — a torn kernel write the fault sweeps would misattribute.
    if (!kernel_word_allowed(addr)) {
        if (tracer_ != nullptr && module_containing(addr) != kNoModule) {
            tracer_->record({trace::EventKind::MemFault, steps_, ip_, module_containing(addr),
                             true, trace::CheckOrigin::Pma, 0, addr, 4,
                             "pma denied kernel write"});
        }
        return false;
    }
    mem_.write32(addr, v);
    return true;
}

// ---------------------------------------------------------------------------
// Fetch, syscalls and fault injection (engine_fast.cpp executes instructions)
// ---------------------------------------------------------------------------

bool Machine::fetch(Insn& out) {
    // Read up to the longest encoding, a page at a time: one permission test
    // covers every byte the window takes from a page, so it touches at most
    // two.  The span is cut short at the first unmapped or unfetchable page,
    // and the address wraps past 2^32 as the per-byte walk it replaces did.
    // (The engine already ran the PMA fetch check.)
    std::array<std::uint8_t, isa::kMaxInsnLength> buf{};
    std::size_t have = 0;
    const auto need = static_cast<std::uint8_t>(opts_.enforce_nx ? (Perm::R | Perm::X) : Perm::R);
    while (have < buf.size()) {
        const std::uint32_t a = ip_ + static_cast<std::uint32_t>(have);
        const PageView page = mem_.page_view(a);
        if (!page || (static_cast<std::uint8_t>(page.perms) & need) != need) {
            break;
        }
        const std::uint32_t off = a & (kPageSize - 1);
        const std::size_t n = std::min<std::size_t>(buf.size() - have, kPageSize - off);
        std::memcpy(buf.data() + have, page.data + off, n);
        have += n;
    }
    if (have == 0) {
        set_trap(TrapKind::SegvExec, ip_,
                 opts_.enforce_nx ? "fetch from non-executable memory (DEP)" : "fetch fault");
        return false;
    }
    const auto insn = isa::decode(std::span<const std::uint8_t>(buf.data(), have));
    if (!insn) {
        // Distinguish "bytes do not decode" from "instruction straddles a
        // non-executable boundary": both matter for DEP experiments.
        if (have < buf.size() && isa::op_info(buf[0]) != nullptr &&
            isa::op_info(buf[0])->length > have) {
            set_trap(TrapKind::SegvExec, ip_ + static_cast<std::uint32_t>(have),
                     "instruction crosses fetch-protected boundary");
        } else {
            set_trap(TrapKind::InvalidInstruction, ip_, "byte " + hex8(buf[0]));
        }
        return false;
    }
    out = *insn;
    return true;
}

void Machine::do_sys(std::uint8_t number) {
    if (tracer_ != nullptr) {
        tracer_->record({trace::EventKind::SyscallEnter, steps_, ip_, current_module_, false,
                         trace::CheckOrigin::None, number, reg(Reg::R0), reg(Reg::R1), {}});
    }
    in_kernel_ = true;
    const bool handled = syscalls_ != nullptr && syscalls_->handle_syscall(*this, number);
    in_kernel_ = false;
    if (!handled) {
        set_trap(TrapKind::BadSyscall, number, "unhandled syscall");
    }
    if (tracer_ != nullptr) {
        tracer_->record({trace::EventKind::SyscallExit, steps_, ip_, current_module_, false,
                         trace::CheckOrigin::None, number, reg(Reg::R0), 0, {}});
    }
}

void Machine::apply_step_fault(const fault::StepFault& f) {
    switch (f.kind) {
    case fault::StepFault::Kind::None:
        break;
    case fault::StepFault::Kind::PowerCut:
        if (tracer_ != nullptr) {
            tracer_->record({trace::EventKind::FaultInjected, steps_, ip_, current_module_,
                             false, trace::CheckOrigin::FaultInjector,
                             static_cast<std::uint8_t>(f.kind), 0, 0, "power cut"});
        }
        set_trap(TrapKind::PowerCut, 0, "power lost at instruction boundary (injected)");
        break;
    case fault::StepFault::Kind::RegBitFlip:
        if (tracer_ != nullptr) {
            tracer_->record({trace::EventKind::FaultInjected, steps_, ip_, current_module_,
                             false, trace::CheckOrigin::FaultInjector,
                             static_cast<std::uint8_t>(f.kind), f.a, f.b, "reg bit flip"});
        }
        regs_[f.a % regs_.size()] ^= (1u << (f.b & 31));
        break;
    case fault::StepFault::Kind::MemBitFlip:
        // A hardware upset is not subject to page permissions — it can hit
        // code, a canary, a saved return address, anything mapped.  Flips
        // aimed at unmapped space dissipate harmlessly.
        if (tracer_ != nullptr) {
            tracer_->record({trace::EventKind::FaultInjected, steps_, ip_, current_module_,
                             false, trace::CheckOrigin::FaultInjector,
                             static_cast<std::uint8_t>(f.kind), f.a, f.b, "mem bit flip"});
        }
        if (mem_.is_mapped(f.a)) {
            mem_.write8(f.a, static_cast<std::uint8_t>(mem_.read8(f.a) ^ (1u << (f.b & 7))));
        }
        break;
    }
}

void Machine::step() {
    if (!trap_.is_set()) {
        (void)FastEngine::run<Policy::Observed>(*this, steps_ + 1);
    }
}

RunResult Machine::run(std::uint64_t max_steps) {
    // Per-call budget: `max_steps` further instructions from here, however
    // many a previous run() already retired.  (The old check compared the
    // machine's absolute step counter against the budget, so a resumed run
    // was shortchanged by everything executed before it.)
    const std::uint64_t end =
        (max_steps > std::numeric_limits<std::uint64_t>::max() - steps_)
            ? std::numeric_limits<std::uint64_t>::max()
            : steps_ + max_steps;
    // One engine, two tiers (DESIGN.md §13): prefer tier 2 whenever nothing
    // observable distinguishes it from the observed loop, and its traced
    // instantiation when a tracer is attached.  Eligibility and the tracer
    // are re-evaluated every iteration, and both loops hand every syscall
    // back here, so a syscall that attaches a tracer mid-run is observed
    // from the very next instruction.
    bool was_fast = false;
    while (!trap_.is_set()) {
        if (steps_ >= end) {
            // Trap provenance names where the budget died: ip_ is the
            // address of the first instruction the watchdog refused to run.
            set_trap(TrapKind::OutOfGas, ip_,
                     "watchdog: step budget of " + std::to_string(max_steps) +
                         " instructions exhausted at ip=" + swsec::hex32(ip_));
            break;
        }
        if (fast_eligible()) {
            was_fast = true;
            const FastExit exit = tracer_ != nullptr
                                      ? FastEngine::run<Policy::Traced>(*this, end)
                                      : FastEngine::run<Policy::Unobserved>(*this, end);
            if (exit == FastExit::NeedSlowStep && !trap_.is_set() && steps_ < end) {
                step(); // exactly one observed step: progress guarantee
            }
            continue;
        }
        if (was_fast) {
            was_fast = false;
            ++dispatch_.deopt_observer;
        }
        (void)FastEngine::run<Policy::Observed>(*this, end);
    }
    return RunResult{trap_, steps_};
}

void Machine::set_capability(int index, const Capability& cap) {
    SWSEC_ASSERT(index >= 0 && index < kNumCaps, "capability index out of range");
    caps_[static_cast<std::size_t>(index)] = cap;
}

const Capability& Machine::capability(int index) const {
    SWSEC_ASSERT(index >= 0 && index < kNumCaps, "capability index out of range");
    return caps_[static_cast<std::size_t>(index)];
}

} // namespace swsec::vm
