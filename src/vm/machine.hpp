// The swsec virtual machine.
//
// A 32-bit little-endian von Neumann machine: ten registers (r0-r7, sp, bp),
// an instruction pointer, three comparison flags, and a sparse paged memory
// in which code and data coexist (Fig. 1).  The machine is deliberately
// configurable along every axis the paper's countermeasures need:
//
//  * MachineOptions::enforce_nx      — DEP / W^X (fetch requires X pages)
//  * MachineOptions::hardware_shadow_stack — return-address protection
//  * MachineOptions::coarse_cfi     — indirect branches restricted to the
//                                      approved target set
//  * MachineOptions::memcheck        — poison-map checking on data access
//  * protected modules               — the PMA of Section IV (pma_model.hpp)
//
// All of these default to *off*: the base machine is exactly the unprotected
// platform the classic attacks of Section III assume.
//
// run() executes through the engine of vm/engine_fast.hpp: tier 2, the
// fused loop, whenever no profiler, fault plan or protected module could
// tell it from the observed loop (with an attached tracer it runs its
// traced instantiation, whose events and counters equal the observed
// loop's), and the observed loop otherwise.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "fault/fault.hpp"
#include "isa/isa.hpp"
#include "trace/trace.hpp"
#include "vm/decode_cache.hpp"
#include "vm/memory.hpp"
#include "vm/pma_model.hpp"
#include "vm/trap.hpp"

namespace swsec::profile {
class Profiler;
}

namespace swsec::vm {

class Machine;

/// Interface the machine calls on SYS instructions.  Implemented by the OS
/// kernel substrate (os::Kernel) and extended by the attestation and
/// state-continuity "hardware".
class SyscallHandler {
public:
    virtual ~SyscallHandler() = default;
    /// Handle syscall `number`; may read/write registers and memory and may
    /// set a trap (e.g. Exit).  Return false for unknown numbers, which the
    /// machine converts into TrapKind::BadSyscall.
    virtual bool handle_syscall(Machine& m, std::uint8_t number) = 0;
};

/// Hardware configuration switches (countermeasure substrate).
struct MachineOptions {
    bool enforce_nx = false;          // DEP: fetch requires X permission
    bool hardware_shadow_stack = false;
    bool coarse_cfi = false;          // indirect branch target checking
    bool memcheck = false;            // honour the poison map on data access
    bool sanitize_address = false;    // shadow-memory sanitizer deployed: the
                                      // kernel maintains the shadow region and
                                      // pre-checks syscall buffers; the machine
                                      // itself never consults the shadow (all
                                      // in-program checks are compiled code)
    bool capability_mode = false;     // enable the CHERI-style cap opcodes
    bool pure_capability = false;     // pure-cap mode: plain memory ops trap
                                      // (integers can never act as pointers)
    bool decode_cache = true;         // per-page predecode cache (perf only:
                                      // trap-for-trap identical when off)
    bool fast_engine = true;          // tier 2, the engine loop with fused
                                      // superinstructions (perf only: off runs
                                      // the observed loop throughout, the
                                      // engine-A/B oracle's second side;
                                      // never used while a profiler or fault
                                      // plan is attached, traced while a
                                      // tracer is)
};

/// Dispatch statistics of tier 2, the fused loop, traced or not (exported
/// as vm.dispatch.* metrics).  The deopt_* counters name why it handed control
/// back to Machine::run(); their sum over a run explains every transition.
struct DispatchStats {
    std::uint64_t tier2_entries = 0;      // times run() entered tier 2
    std::uint64_t fast_steps = 0;         // instructions retired by it
    std::uint64_t superinsns_retired = 0; // fused dispatches (≥2 insns each)
    std::uint64_t deopt_page_gen = 0;     // executing page's generation bumped
    std::uint64_t deopt_slow_fetch = 0;   // page tail / no decode / cap op
    std::uint64_t deopt_trap = 0;         // trap raised inside the loop
    std::uint64_t deopt_budget = 0;       // watchdog slice end reached
    std::uint64_t deopt_syscall = 0;      // Sys runs as an observed step
    std::uint64_t deopt_observer = 0;     // profiler/faults attached mid-run
                                          // (fast_eligible went false)

    /// Sum over all deopt reasons.
    [[nodiscard]] std::uint64_t deopts() const noexcept {
        return deopt_page_gen + deopt_slow_fetch + deopt_trap + deopt_budget + deopt_syscall +
               deopt_observer;
    }
};

/// A CHERI-style capability (Section IV-A, [21]): an unforgeable pointer to
/// a memory segment with permissions.  Machine code can only use and shrink
/// the capabilities it was granted — it cannot mint new ones.
struct Capability {
    std::uint32_t base = 0;
    std::uint32_t length = 0;
    Perm perms = Perm::None;
    bool tag = false; // valid (set only by the privileged grantor)

    [[nodiscard]] bool covers(std::uint32_t offset, std::uint32_t size) const noexcept {
        return tag && offset <= length && length - offset >= size;
    }
};

/// Result of Machine::run().
struct RunResult {
    Trap trap;
    std::uint64_t steps = 0;

    [[nodiscard]] bool exited(std::int32_t code) const noexcept {
        return trap.kind == TrapKind::Exit && trap.code == code;
    }
    /// The watchdog killed a runaway program (step budget exhausted).
    [[nodiscard]] bool watchdog_expired() const noexcept {
        return trap.kind == TrapKind::OutOfGas;
    }
};

class Machine {
public:
    explicit Machine(MachineOptions opts = {}) : opts_(opts) {}

    // --- configuration ---------------------------------------------------
    [[nodiscard]] MachineOptions& options() noexcept { return opts_; }
    [[nodiscard]] const MachineOptions& options() const noexcept { return opts_; }

    [[nodiscard]] Memory& memory() noexcept { return mem_; }
    [[nodiscard]] const Memory& memory() const noexcept { return mem_; }

    /// Register the approved indirect-branch targets for coarse CFI
    /// (normally every function entry in the loaded image).
    void set_cfi_targets(std::vector<std::uint32_t> targets);
    void add_cfi_target(std::uint32_t target) { cfi_targets_.insert(target); }

    /// Install a protected module descriptor (PMA "hardware" register).
    /// Returns the module index.
    int add_protected_module(ProtectedModule module);
    [[nodiscard]] const std::vector<ProtectedModule>& protected_modules() const noexcept {
        return modules_;
    }
    /// Index of the module whose code or data contains `addr`, or kNoModule.
    [[nodiscard]] int module_containing(std::uint32_t addr) const noexcept;
    /// Index of the module currently executing (derived from the IP), or kNoModule.
    [[nodiscard]] int current_module() const noexcept { return current_module_; }

    // --- register file -----------------------------------------------------
    [[nodiscard]] std::uint32_t reg(isa::Reg r) const noexcept {
        return regs_[static_cast<std::size_t>(r)];
    }
    void set_reg(isa::Reg r, std::uint32_t v) noexcept { regs_[static_cast<std::size_t>(r)] = v; }
    [[nodiscard]] std::uint32_t ip() const noexcept { return ip_; }
    void set_ip(std::uint32_t ip) noexcept { ip_ = ip; }
    [[nodiscard]] std::uint32_t sp() const noexcept { return reg(isa::Reg::Sp); }
    void set_sp(std::uint32_t v) noexcept { set_reg(isa::Reg::Sp, v); }

    /// Wipe registers, flags, trap, shadow stack and module state (memory is
    /// left intact; the loader owns memory contents).
    void reset();

    // --- capability registers (capability machine extension) ---------------
    static constexpr int kNumCaps = 8;
    /// Grant a capability (privileged: only the host/loader mints tags).
    void set_capability(int index, const Capability& cap);
    [[nodiscard]] const Capability& capability(int index) const;

    // --- execution ---------------------------------------------------------
    /// Execute one instruction through the observed loop.  On a fault the
    /// trap record is set and the machine stops making progress.
    void step();

    /// Run until trap or until `max_steps` further instructions executed.
    /// The budget is per call: a resumed run (clear_trap + run) gets a fresh
    /// allowance of `max_steps`, so budget N always retires exactly N
    /// instructions before the watchdog fires.
    RunResult run(std::uint64_t max_steps = 10'000'000);

    [[nodiscard]] const Trap& trap() const noexcept { return trap_; }
    /// Record a trap.  `origin` names the check that fired; when left at
    /// None the machine derives it from the trap kind (DEP, PMA, shadow
    /// stack, ... are unambiguous) — callers that know better (the kernel's
    /// abort handler) pass it explicitly.
    void set_trap(TrapKind kind, std::uint32_t addr = 0, std::string detail = {},
                  trace::CheckOrigin origin = trace::CheckOrigin::None);
    void set_exit(std::int32_t code);
    void clear_trap() noexcept { trap_ = Trap{}; }

    void set_syscall_handler(SyscallHandler* handler) noexcept { syscalls_ = handler; }

    /// Attach an observability tracer (trace::Tracer).  Non-owning; pass
    /// nullptr to detach.  run() picks tier 2's traced or untraced
    /// instantiation by this pointer, so an untraced run executes no tracer
    /// code in the engine; every other hook (traps, syscalls, the observed
    /// loop) is guarded by it, one predictable branch per site.
    void set_tracer(trace::Tracer* t) noexcept { tracer_ = t; }
    [[nodiscard]] trace::Tracer* tracer() const noexcept { return tracer_; }
    /// True while the machine is servicing a syscall (kernel mode).  Traps
    /// and events raised inside a syscall handler are attributed to the
    /// kernel — e.g. a read() faulting while copying to a bad user buffer.
    [[nodiscard]] bool in_kernel() const noexcept { return in_kernel_; }

    /// Attach a fault injector probed at every instruction boundary: power
    /// cuts stop the machine with TrapKind::PowerCut; register/memory
    /// bit flips are applied silently (a glitch the program never sees —
    /// until a countermeasure does, or does not, catch the corruption).
    /// Non-owning; pass nullptr to detach.
    void set_fault_injector(fault::FaultInjector* inj) noexcept { faults_ = inj; }

    /// Attach an exact PC/edge profiler (profile::Profiler).  Non-owning;
    /// pass nullptr to detach.  Hook sites are the observed loop's
    /// retirement, call and ret only — the memory paths carry no profiler
    /// branches, so a detached profiler is free there.
    void set_profiler(profile::Profiler* p) noexcept { profiler_ = p; }
    [[nodiscard]] profile::Profiler* profiler() const noexcept { return profiler_; }

    // --- machine-level byte access (the kernel substrate's buffer copies) --
    // These honour page permissions, poison (when memcheck) and the PMA
    // rules relative to the *currently executing* module, and set the trap
    // on failure (returning false).
    [[nodiscard]] bool load8(std::uint32_t addr, std::uint8_t& out);
    [[nodiscard]] bool store8(std::uint32_t addr, std::uint8_t v);

    // --- kernel-privilege access (machine-code attacker in the OS) --------
    // Bypasses page permissions (the kernel can map anything) but is still
    // subject to the PMA rules with "IP outside every module" semantics:
    // this is precisely the protection the paper claims PMAs give against
    // kernel-level malware.  Returns false (no trap) when PMA-denied.
    [[nodiscard]] bool kernel_read8(std::uint32_t addr, std::uint8_t& out) const noexcept;
    [[nodiscard]] bool kernel_read32(std::uint32_t addr, std::uint32_t& out) const noexcept;
    [[nodiscard]] bool kernel_write8(std::uint32_t addr, std::uint8_t v);
    [[nodiscard]] bool kernel_write32(std::uint32_t addr, std::uint32_t v);

    // --- statistics --------------------------------------------------------
    [[nodiscard]] std::uint64_t steps_executed() const noexcept { return steps_; }
    /// Shadow stack depth (tests use this to validate call/return pairing).
    [[nodiscard]] std::size_t shadow_stack_depth() const noexcept { return shadow_stack_.size(); }
    /// Decode-cache counters (tests assert invalidation behaviour; benches
    /// report hit rates).
    [[nodiscard]] const DecodeCache& decode_cache() const noexcept { return dcache_; }
    /// Tier-2 dispatch counters (vm.dispatch.* metrics).
    [[nodiscard]] const DispatchStats& dispatch_stats() const noexcept { return dispatch_; }

private:
    // The engine executes every instruction, with direct access to the
    // register file, flags, trap plumbing and security state.
    friend class FastEngine;
    struct Flags {
        bool z = false;  // equal
        bool lt = false; // signed less-than
        bool b = false;  // unsigned below
    };

    /// Slow-path fetch: a page-wise checked copy of the instruction window
    /// (one permission test per page it touches) + decode.  The reference
    /// decoder and single source of truth for fetch trap kinds; the decode
    /// cache only serves instructions this path would fetch identically.
    [[nodiscard]] bool fetch(isa::Insn& out);
    void apply_step_fault(const fault::StepFault& f);
    void do_sys(std::uint8_t number);

    /// Provenance implied by a trap kind alone (None when ambiguous).
    [[nodiscard]] trace::CheckOrigin default_origin(TrapKind kind) const noexcept;

    /// True when the kernel may touch the whole word at [addr, addr+4):
    /// every byte mapped and outside every protected module.
    [[nodiscard]] bool kernel_word_allowed(std::uint32_t addr) const noexcept;
    /// PMA access-control decision for a data access from the current module.
    [[nodiscard]] bool pma_allows_data(std::uint32_t addr, bool write) const noexcept;
    /// PMA decision for executing at `addr` given the previously executing
    /// module; also reports whether this is a legal entry-point transition.
    [[nodiscard]] bool pma_allows_fetch(std::uint32_t addr) const noexcept;

    /// Whether run() may use tier 2, re-evaluated on every run() iteration:
    /// only when nothing observable distinguishes it from the observed loop.
    /// An attached tracer does not: tier 2 then runs traced.
    [[nodiscard]] bool fast_eligible() const noexcept {
        return opts_.fast_engine && opts_.decode_cache && !opts_.pure_capability &&
               profiler_ == nullptr && faults_ == nullptr && modules_.empty();
    }

    Memory mem_;
    DecodeCache dcache_;
    std::array<std::uint32_t, isa::kNumRegs> regs_{};
    std::uint32_t ip_ = 0;
    Flags flags_;
    Trap trap_;
    MachineOptions opts_;
    SyscallHandler* syscalls_ = nullptr;      // non-owning; must outlive run()
    fault::FaultInjector* faults_ = nullptr;  // non-owning; may be null
    trace::Tracer* tracer_ = nullptr;         // non-owning; may be null
    profile::Profiler* profiler_ = nullptr;   // non-owning; may be null
    bool in_kernel_ = false;                  // inside a syscall handler

    std::array<Capability, kNumCaps> caps_{};
    std::vector<std::uint32_t> shadow_stack_;
    std::unordered_set<std::uint32_t> cfi_targets_;
    std::vector<ProtectedModule> modules_;
    int current_module_ = kNoModule;

    std::uint64_t steps_ = 0;
    DispatchStats dispatch_;
};

} // namespace swsec::vm
