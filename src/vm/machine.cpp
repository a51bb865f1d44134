#include "vm/machine.hpp"

#include "common/error.hpp"
#include "common/hexdump.hpp"
#include "profile/profiler.hpp"
#include "vm/engine_fast.hpp"

#include <limits>

namespace swsec::vm {

using isa::Insn;
using isa::Op;
using isa::Reg;

namespace {

/// Control-transfer instructions define basic-block edges.  Both outcomes of
/// a conditional count (the fall-through is an edge too), so the profiler's
/// edge set partitions execution into blocks exactly.
bool is_control_flow(Op op) noexcept {
    switch (op) {
    case Op::Jmp:
    case Op::Jz:
    case Op::Jnz:
    case Op::Jl:
    case Op::Jge:
    case Op::Jg:
    case Op::Jle:
    case Op::Jb:
    case Op::Jae:
    case Op::Call:
    case Op::CallR:
    case Op::JmpR:
    case Op::Ret:
    case Op::CJmp:
        return true;
    default:
        return false;
    }
}

} // namespace

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

void Machine::reset() {
    regs_.fill(0);
    ip_ = 0;
    flags_ = Flags{};
    trap_ = Trap{};
    shadow_stack_.clear();
    current_module_ = kNoModule;
    in_kernel_ = false;
    steps_ = 0;
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

bool Machine::load32(std::uint32_t addr, std::uint32_t& out) {
    if (!pma_allows_data(addr, /*write=*/false)) {
        set_trap(TrapKind::PmaViolation, addr, "read of protected module memory");
        return false;
    }
    switch (mem_.check(addr, 4, Perm::R, opts_.memcheck)) {
    case AccessFault::None:
        break;
    case AccessFault::Poisoned:
        set_trap(TrapKind::PoisonedAccess, addr, "read of poisoned memory");
        return false;
    default:
        set_trap(TrapKind::SegvRead, addr);
        return false;
    }
    out = mem_.read32(addr);
    return true;
}

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

bool Machine::store32(std::uint32_t addr, std::uint32_t v) {
    if (!pma_allows_data(addr, /*write=*/true)) {
        set_trap(TrapKind::PmaViolation, addr, "write of protected module memory");
        return false;
    }
    switch (mem_.check(addr, 4, Perm::W, opts_.memcheck)) {
    case AccessFault::None:
        break;
    case AccessFault::Poisoned:
        set_trap(TrapKind::PoisonedAccess, addr, "write of poisoned memory");
        return false;
    default:
        set_trap(TrapKind::SegvWrite, addr);
        return false;
    }
    mem_.write32(addr, v);
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

bool Machine::kernel_read8(std::uint32_t addr, std::uint8_t& out) const noexcept {
    if (module_containing(addr) != kNoModule) {
        if (tracer_ != nullptr) {
            tracer_->record({trace::EventKind::MemFault, steps_, ip_, module_containing(addr),
                             true, trace::CheckOrigin::Pma, 0, addr, 1,
                             "pma denied kernel read"});
        }
        return false;
    }
    if (!mem_.is_mapped(addr)) {
        return false;
    }
    out = mem_.read8(addr);
    return true;
}

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

bool Machine::kernel_write8(std::uint32_t addr, std::uint8_t v) {
    if (module_containing(addr) != kNoModule) {
        if (tracer_ != nullptr) {
            tracer_->record({trace::EventKind::MemFault, steps_, ip_, module_containing(addr),
                             true, trace::CheckOrigin::Pma, 0, addr, 1,
                             "pma denied kernel write"});
        }
        return false;
    }
    if (!mem_.is_mapped(addr)) {
        return false;
    }
    mem_.write8(addr, v);
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
// Fetch / execute
// ---------------------------------------------------------------------------

bool Machine::fetch(Insn& out) {
    // Read up to the longest encoding; the span may be cut short by the end
    // of mapped memory.  (The PMA fetch check already ran in step().)
    std::array<std::uint8_t, isa::kMaxInsnLength> buf{};
    std::size_t have = 0;
    const Perm need = opts_.enforce_nx ? (Perm::R | Perm::X) : Perm::R;
    for (; have < buf.size(); ++have) {
        const std::uint32_t a = ip_ + static_cast<std::uint32_t>(have);
        if (mem_.check(a, 1, need, /*honour_poison=*/false) != AccessFault::None) {
            break;
        }
        buf[have] = mem_.read8(a);
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

bool Machine::push32(std::uint32_t v) {
    const std::uint32_t nsp = sp() - 4;
    if (!store32(nsp, v)) {
        return false;
    }
    set_sp(nsp);
    return true;
}

bool Machine::pop32(std::uint32_t& out) {
    if (!load32(sp(), out)) {
        return false;
    }
    set_sp(sp() + 4);
    return true;
}

bool Machine::check_indirect_target(std::uint32_t target) {
    if (opts_.coarse_cfi && !cfi_targets_.contains(target)) {
        set_trap(TrapKind::CfiViolation, target, "indirect branch to non-approved target");
        return false;
    }
    return true;
}

void Machine::do_call(std::uint32_t target, std::uint32_t return_addr) {
    if (!push32(return_addr)) {
        return;
    }
    if (opts_.hardware_shadow_stack) {
        shadow_stack_.push_back(return_addr);
    }
    if (profiler_ != nullptr) {
        profiler_->on_call(target);
    }
    branch_to(target);
}

void Machine::do_ret() {
    std::uint32_t target = 0;
    if (!pop32(target)) {
        return;
    }
    if (opts_.hardware_shadow_stack) {
        if (shadow_stack_.empty() || shadow_stack_.back() != target) {
            set_trap(TrapKind::ShadowStackViolation, target,
                     "return address does not match shadow stack");
            return;
        }
        shadow_stack_.pop_back();
    }
    if (profiler_ != nullptr) {
        profiler_->on_ret();
    }
    branch_to(target);
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
    if (trap_.is_set()) {
        return;
    }
    if (faults_ != nullptr) {
        apply_step_fault(faults_->on_instruction(steps_));
        if (trap_.is_set()) {
            return; // the power cut wins: no further instruction executes
        }
    }
    if (!pma_allows_fetch(ip_)) {
        set_trap(TrapKind::PmaViolation, ip_, "illegal entry into protected module");
        return;
    }
    // Fast path: serve the instruction from the per-page decode cache (the
    // generation check inside lookup() guarantees no stale predecode after
    // any write, protect or fault-injected flip).  Anything the cache cannot
    // vouch for goes through the slow fetch, which owns all trap reporting.
    const Insn* insn = nullptr;
    Insn slow;
    if (opts_.decode_cache) {
        insn = dcache_.lookup(mem_, ip_, opts_.enforce_nx ? (Perm::R | Perm::X) : Perm::R);
    }
    if (tracer_ != nullptr) {
        // Counters only — the event stream must not depend on the cache.
        tracer_->count_dcache(insn != nullptr);
    }
    if (insn == nullptr) {
        if (!fetch(slow)) {
            return;
        }
        insn = &slow;
    }
    // The executing module is determined by where the IP points now; data
    // accesses made by this instruction are judged against it.
    const int prev_module = current_module_;
    current_module_ = module_containing(ip_);
    if (tracer_ != nullptr && current_module_ != prev_module) {
        if (prev_module != kNoModule) {
            tracer_->record({trace::EventKind::PmaExit, steps_, ip_, prev_module, false,
                             trace::CheckOrigin::Pma, 0, 0, 0, {}});
        }
        if (current_module_ != kNoModule) {
            tracer_->record({trace::EventKind::PmaEnter, steps_, ip_, current_module_, false,
                             trace::CheckOrigin::Pma, 0, 0, 0, {}});
        }
    }
    const std::uint32_t pc = ip_;
    execute(*insn);
    if (tracer_ != nullptr && !trap_.is_set()) {
        tracer_->record({trace::EventKind::InsnRetired, steps_, pc, current_module_, false,
                         trace::CheckOrigin::None, static_cast<std::uint8_t>(insn->op), 0, 0,
                         {}});
    }
    if (profiler_ != nullptr && !trap_.is_set()) {
        profiler_->on_retire(pc);
        if (is_control_flow(insn->op)) {
            profiler_->on_edge(pc, ip_);
        }
    }
    ++steps_;
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
    // Tiered loop (DESIGN.md §13): prefer the tier-2 fast engine whenever
    // it is architecturally indistinguishable from step(); fall back to the
    // fully instrumented loop one step at a time otherwise.  Eligibility is
    // re-evaluated every iteration, so a syscall that attaches a tracer
    // mid-run demotes to tier 1 from the very next instruction.
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
            const FastExit exit = FastEngine::run(*this, end);
            if (exit == FastExit::Trapped) {
                break;
            }
            if (exit == FastExit::NeedSlowStep && !trap_.is_set() && steps_ < end) {
                step(); // exactly one instrumented step: progress guarantee
            }
            continue;
        }
        if (was_fast) {
            was_fast = false;
            ++dispatch_.deopt_observer;
        }
        step();
    }
    return RunResult{trap_, steps_};
}

void Machine::execute(const Insn& insn) {
    if (opts_.pure_capability) {
        // In pure-capability mode every data access must go through a
        // capability register: plain loads/stores/stack ops would let code
        // fabricate pointers from integers.
        switch (insn.op) {
        case Op::Load:
        case Op::Load8:
        case Op::Store:
        case Op::Store8:
        case Op::Push:
        case Op::PushI:
        case Op::Pop:
        case Op::Call:
        case Op::CallR:
        case Op::JmpR:
        case Op::Ret:
        case Op::Leave:
            set_trap(TrapKind::CapViolation, ip_, "plain memory operation in pure-cap mode");
            return;
        default:
            break;
        }
    }
    const std::uint32_t next = ip_ + insn.length;
    const auto a = [&] { return reg(insn.r1); };
    const auto b = [&] { return reg(insn.r2); };
    const auto set_a = [&](std::uint32_t v) { set_reg(insn.r1, v); };
    const auto imm_u = static_cast<std::uint32_t>(insn.imm);

    switch (insn.op) {
    case Op::Halt:
        set_trap(TrapKind::Halted);
        return;
    case Op::Nop:
        break;
    case Op::Push:
        if (!push32(a())) {
            return;
        }
        break;
    case Op::PushI:
        if (!push32(imm_u)) {
            return;
        }
        break;
    case Op::Pop: {
        std::uint32_t v = 0;
        if (!pop32(v)) {
            return;
        }
        set_a(v);
        break;
    }
    case Op::MovI:
        set_a(imm_u);
        break;
    case Op::MovR:
        set_a(b());
        break;
    case Op::Load: {
        std::uint32_t v = 0;
        if (!load32(b() + imm_u, v)) {
            return;
        }
        set_a(v);
        break;
    }
    case Op::Load8: {
        std::uint8_t v = 0;
        if (!load8(b() + imm_u, v)) {
            return;
        }
        set_a(v);
        break;
    }
    case Op::Store:
        // STORE [r1+disp], r2 : r1 is the base register.
        if (!store32(a() + imm_u, b())) {
            return;
        }
        break;
    case Op::Store8:
        if (!store8(a() + imm_u, static_cast<std::uint8_t>(b() & 0xff))) {
            return;
        }
        break;
    case Op::Lea:
        set_a(b() + imm_u);
        break;
    case Op::Add:
        set_a(a() + b());
        break;
    case Op::AddI:
        set_a(a() + imm_u);
        break;
    case Op::Sub:
        set_a(a() - b());
        break;
    case Op::SubI:
        set_a(a() - imm_u);
        break;
    case Op::Mul:
        set_a(a() * b());
        break;
    case Op::MulI:
        set_a(a() * imm_u);
        break;
    case Op::Divs: {
        const auto num = static_cast<std::int32_t>(a());
        const auto den = static_cast<std::int32_t>(b());
        if (den == 0) {
            set_trap(TrapKind::DivByZero);
            return;
        }
        if (num == std::numeric_limits<std::int32_t>::min() && den == -1) {
            set_a(static_cast<std::uint32_t>(num)); // wrap like x86 would trap; we define wrap
        } else {
            set_a(static_cast<std::uint32_t>(num / den));
        }
        break;
    }
    case Op::Rems: {
        const auto num = static_cast<std::int32_t>(a());
        const auto den = static_cast<std::int32_t>(b());
        if (den == 0) {
            set_trap(TrapKind::DivByZero);
            return;
        }
        if (num == std::numeric_limits<std::int32_t>::min() && den == -1) {
            set_a(0);
        } else {
            set_a(static_cast<std::uint32_t>(num % den));
        }
        break;
    }
    case Op::And:
        set_a(a() & b());
        break;
    case Op::AndI:
        set_a(a() & imm_u);
        break;
    case Op::Or:
        set_a(a() | b());
        break;
    case Op::OrI:
        set_a(a() | imm_u);
        break;
    case Op::Xor:
        set_a(a() ^ b());
        break;
    case Op::XorI:
        set_a(a() ^ imm_u);
        break;
    case Op::ShlI:
        set_a(a() << (imm_u & 31));
        break;
    case Op::ShrI:
        set_a(a() >> (imm_u & 31));
        break;
    case Op::SarI:
        set_a(static_cast<std::uint32_t>(static_cast<std::int32_t>(a()) >> (imm_u & 31)));
        break;
    case Op::Shl:
        set_a(a() << (b() & 31));
        break;
    case Op::Shr:
        set_a(a() >> (b() & 31));
        break;
    case Op::Sar:
        set_a(static_cast<std::uint32_t>(static_cast<std::int32_t>(a()) >> (b() & 31)));
        break;
    case Op::Not:
        set_a(~a());
        break;
    case Op::Neg:
        set_a(0U - a());
        break;
    case Op::Cmp: {
        const std::uint32_t x = a();
        const std::uint32_t y = b();
        flags_.z = (x == y);
        flags_.lt = (static_cast<std::int32_t>(x) < static_cast<std::int32_t>(y));
        flags_.b = (x < y);
        break;
    }
    case Op::CmpI: {
        const std::uint32_t x = a();
        flags_.z = (x == imm_u);
        flags_.lt = (static_cast<std::int32_t>(x) < insn.imm);
        flags_.b = (x < imm_u);
        break;
    }
    case Op::Test: {
        flags_.z = ((a() & b()) == 0);
        break;
    }
    case Op::Jmp:
        branch_to(next + imm_u);
        return;
    case Op::Jz:
        branch_to(flags_.z ? next + imm_u : next);
        return;
    case Op::Jnz:
        branch_to(!flags_.z ? next + imm_u : next);
        return;
    case Op::Jl:
        branch_to(flags_.lt ? next + imm_u : next);
        return;
    case Op::Jge:
        branch_to(!flags_.lt ? next + imm_u : next);
        return;
    case Op::Jg:
        branch_to((!flags_.lt && !flags_.z) ? next + imm_u : next);
        return;
    case Op::Jle:
        branch_to((flags_.lt || flags_.z) ? next + imm_u : next);
        return;
    case Op::Jb:
        branch_to(flags_.b ? next + imm_u : next);
        return;
    case Op::Jae:
        branch_to(!flags_.b ? next + imm_u : next);
        return;
    case Op::Call:
        do_call(next + imm_u, next);
        return;
    case Op::CallR: {
        const std::uint32_t target = a();
        if (!check_indirect_target(target)) {
            return;
        }
        do_call(target, next);
        return;
    }
    case Op::JmpR: {
        const std::uint32_t target = a();
        if (!check_indirect_target(target)) {
            return;
        }
        branch_to(target);
        return;
    }
    case Op::Ret:
        do_ret();
        return;
    case Op::Leave: {
        set_sp(reg(Reg::Bp));
        std::uint32_t old_bp = 0;
        if (!pop32(old_bp)) {
            return;
        }
        set_reg(Reg::Bp, old_bp);
        break;
    }
    case Op::Sys:
        ip_ = next; // syscall handlers observe the post-instruction IP
        do_sys(static_cast<std::uint8_t>(insn.imm));
        return;
    case Op::CLoad:
    case Op::CStore:
    case Op::CJmp:
    case Op::CSetB:
        if (!opts_.capability_mode) {
            // Capability opcodes are only valid on the capability machine.
            set_trap(TrapKind::InvalidInstruction, ip_, "capability opcode on base machine");
            return;
        }
        execute_capability(insn, next);
        return;
    }
    ip_ = next;
}

void Machine::set_capability(int index, const Capability& cap) {
    SWSEC_ASSERT(index >= 0 && index < kNumCaps, "capability index out of range");
    caps_[static_cast<std::size_t>(index)] = cap;
}

const Capability& Machine::capability(int index) const {
    SWSEC_ASSERT(index >= 0 && index < kNumCaps, "capability index out of range");
    return caps_[static_cast<std::size_t>(index)];
}

void Machine::execute_capability(const isa::Insn& insn, std::uint32_t next) {
    const int cap_idx = (insn.imm >> 4) & 0x7;
    const auto off_reg = static_cast<Reg>(insn.imm & 0xf);
    Capability& cap = caps_[static_cast<std::size_t>(cap_idx)];

    switch (insn.op) {
    case Op::CLoad: {
        const std::uint32_t off = reg(off_reg);
        if (!cap.covers(off, 4) || !has_perm(cap.perms, Perm::R)) {
            set_trap(TrapKind::CapViolation, cap.base + off, "cload outside capability");
            return;
        }
        std::uint32_t v = 0;
        if (!load32(cap.base + off, v)) {
            return;
        }
        set_reg(insn.r1, v);
        break;
    }
    case Op::CStore: {
        const std::uint32_t off = reg(off_reg);
        if (!cap.covers(off, 4) || !has_perm(cap.perms, Perm::W)) {
            set_trap(TrapKind::CapViolation, cap.base + off, "cstore outside capability");
            return;
        }
        if (!store32(cap.base + off, reg(insn.r1))) {
            return;
        }
        break;
    }
    case Op::CJmp: {
        const int idx = insn.imm & 0x7;
        const Capability& target = caps_[static_cast<std::size_t>(idx)];
        if (!target.tag || !has_perm(target.perms, Perm::X)) {
            set_trap(TrapKind::CapViolation, target.base, "cjmp through non-executable capability");
            return;
        }
        branch_to(target.base);
        return;
    }
    case Op::CSetB: {
        // Monotonic shrink: [base + rM, base + rM + rlen) must nest inside
        // the existing range; growing a capability is impossible.
        const std::uint32_t delta = reg(off_reg);
        const std::uint32_t new_len = reg(insn.r1);
        if (!cap.tag || delta > cap.length || cap.length - delta < new_len) {
            set_trap(TrapKind::CapViolation, cap.base + delta,
                     "csetb attempted to grow a capability");
            return;
        }
        cap.base += delta;
        cap.length = new_len;
        break;
    }
    default:
        SWSEC_ASSERT(false, "non-capability opcode in execute_capability");
    }
    ip_ = next;
}

} // namespace swsec::vm
