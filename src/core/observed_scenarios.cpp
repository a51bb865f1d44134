// The observed scenarios of `swsec trace` (core/trace_scenarios.hpp) and
// `swsec profile` (core/profile_scenarios.hpp): one table of attack-vs-
// defense pairings that both verbs read, plus the two platform scenarios
// (pma, sfi) that only the tracer runs.
#include "core/profile_scenarios.hpp"
#include "core/trace_scenarios.hpp"

#include "assembler/assembler.hpp"
#include "common/error.hpp"
#include "fault/fault.hpp"
#include "isa/encoder.hpp"
#include "isa/isa.hpp"
#include "sfi/sfi.hpp"
#include "vm/machine.hpp"
#include "vm/memory.hpp"
#include "vm/pma_model.hpp"

namespace swsec::core {
namespace {

using isa::Op;
using isa::Reg;

/// An attack against the one countermeasure the paper introduces to stop
/// it, so a defended run ends in a trap whose origin names that
/// countermeasure.
struct AttackScenario {
    const char* name;
    AttackKind attack;
    Defense (*defense)();
    bool power_cut; // a power cut lands at victim step 20
};

/// In "fault" the power cut lands mid-attack (the whole undefended run is
/// ~40 steps, so step 20 is inside the smash) and the final trap carries a
/// fault-injector origin.
constexpr AttackScenario kAttackScenarios[] = {
    {"baseline", AttackKind::StackSmashInject, &Defense::none, false},
    {"canary", AttackKind::StackSmashInject, &Defense::canary, false},
    {"dep", AttackKind::StackSmashInject, &Defense::dep, false},
    {"shadow-stack", AttackKind::Ret2Libc, &Defense::shadow_stack, false},
    {"cfi", AttackKind::CodePtrHijackMidFn, &Defense::coarse_cfi, false},
    {"memcheck", AttackKind::UseAfterFree, &Defense::memcheck, false},
    {"fault", AttackKind::StackSmashInject, &Defense::none, true},
};

const AttackScenario* find_attack_scenario(const std::string& name) {
    for (const AttackScenario& s : kAttackScenarios) {
        if (name == s.name) {
            return &s;
        }
    }
    return nullptr;
}

/// Run `s` with the given observers attached to its victim.
AttackOutcome run_attack_scenario(const AttackScenario& s, bool decode_cache,
                                  std::uint64_t victim_seed, std::uint64_t attacker_seed,
                                  trace::Tracer* tracer, profile::Profiler* profiler) {
    Defense defense = s.defense();
    defense.profile.decode_cache = decode_cache;
    fault::FaultInjector injector{fault::FaultPlan{}.add(fault::FaultEvent::power_cut(20))};
    return run_attack(s.attack, defense, victim_seed, attacker_seed,
                      s.power_cut ? &injector : nullptr, tracer, profiler);
}

/// PMA scenario: untrusted code outside any module tries to read a protected
/// module's data page.  Built by hand because the PMA is a platform feature,
/// not a compiler one — no attack-lab process involved.
TraceRun run_pma_scenario(const TraceScenarioOptions& opts) {
    vm::MachineOptions mopts;
    mopts.decode_cache = opts.decode_cache;
    vm::Machine m{mopts};
    trace::Tracer tracer;
    m.set_tracer(&tracer);

    // Untrusted code at 0x1000: load the module's secret, then halt.
    isa::Encoder code;
    code.reg_imm32(Op::MovI, Reg::R1, 0x3000);
    code.reg_mem(Op::Load, Reg::R0, Reg::R1, 0);
    code.none(Op::Halt);
    m.memory().map(0x1000, 0x1000, vm::Perm::RX);
    m.memory().raw_write(0x1000, code.bytes());

    // The protected module: one page of code (a bare Ret entry point) and
    // one page of data holding the secret the PMA must keep private.
    isa::Encoder modcode;
    modcode.none(Op::Ret);
    m.memory().map(0x2000, 0x1000, vm::Perm::RX);
    m.memory().raw_write(0x2000, modcode.bytes());
    m.memory().map(0x3000, 0x1000, vm::Perm::RW);
    m.memory().raw_write32(0x3000, 0xdeadbeefu);
    m.add_protected_module(vm::ProtectedModule{
        "vault", 0x2000, 0x1000, 0x3000, 0x1000, {0x2000}});

    m.set_ip(0x1000);
    m.run(1000);

    // A privileged-software probe of the same page: denied too, recorded as
    // a kernel-mode MemFault (the PMA protects even against the kernel).
    std::uint32_t v = 0;
    (void)m.kernel_read32(0x3000, v);

    TraceRun run;
    run.scenario = "pma";
    run.outcome.succeeded = false;
    run.outcome.trap = m.trap();
    run.outcome.steps = m.steps_executed();
    run.outcome.note = "module data read from outside the module denied by the PMA";
    run.events_jsonl = tracer.to_jsonl();
    run.counters = tracer.counters();
    return run;
}

/// SFI scenario: the verifier statically rejects a module that syscalls and
/// stores without masking.  Nothing executes — the "trace" is the verifier's
/// verdict rendered as synthetic TrapRaised events (origin sfi, one per
/// violation), which is exactly the observable a load-time checker produces.
TraceRun run_sfi_scenario(const TraceScenarioOptions& opts) {
    (void)opts; // static analysis: no machine, no seeds, no decode cache
    const auto obj = assembler::assemble(R"(
        .text
        .global f
        f:
            mov r1, 305419896
            store [r1+0], r0
            sys 0
            ret
    )");
    const auto verdict = sfi::verify_object(obj, sfi::SandboxPolicy{});

    trace::Tracer tracer;
    std::uint64_t step = 0;
    for (const auto& violation : verdict.violations) {
        tracer.record({trace::EventKind::TrapRaised, step++, 0, -1, false,
                       trace::CheckOrigin::Sfi, 0, 0, 0, violation});
    }

    TraceRun run;
    run.scenario = "sfi";
    run.outcome.succeeded = verdict.ok;
    run.outcome.trap.origin = trace::CheckOrigin::Sfi;
    run.outcome.note = "sfi verifier rejected module (" +
                       std::to_string(verdict.violations.size()) + " violations)";
    run.events_jsonl = tracer.to_jsonl();
    run.counters = tracer.counters();
    return run;
}

} // namespace

const std::vector<std::string>& profile_scenario_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const AttackScenario& s : kAttackScenarios) {
            v.emplace_back(s.name);
        }
        return v;
    }();
    return names;
}

const std::vector<std::string>& trace_scenario_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v = profile_scenario_names();
        v.emplace_back("pma");
        v.emplace_back("sfi");
        return v;
    }();
    return names;
}

TraceRun run_trace_scenario(const std::string& name, const TraceScenarioOptions& opts) {
    if (name == "pma") {
        return run_pma_scenario(opts);
    }
    if (name == "sfi") {
        return run_sfi_scenario(opts);
    }
    const AttackScenario* s = find_attack_scenario(name);
    if (s == nullptr) {
        throw Error("unknown trace scenario: " + name +
                    " (see `swsec trace` usage for the list)");
    }
    trace::Tracer tracer;
    TraceRun run;
    run.scenario = name;
    run.outcome = run_attack_scenario(*s, opts.decode_cache, opts.victim_seed,
                                      opts.attacker_seed, &tracer, nullptr);
    run.events_jsonl = tracer.to_jsonl();
    run.counters = tracer.counters();
    return run;
}

ProfileRun run_profile_scenario(const std::string& name, const ProfileScenarioOptions& opts) {
    const AttackScenario* s = find_attack_scenario(name);
    if (s == nullptr) {
        throw Error("unknown profile scenario: " + name +
                    " (see `swsec profile` usage for the list)");
    }
    profile::Profiler prof;
    prof.set_sample_interval(opts.sample_interval);
    ProfileRun run;
    run.scenario = name;
    run.outcome =
        run_attack_scenario(*s, true, opts.victim_seed, opts.attacker_seed, nullptr, &prof);
    if (run.outcome.image == nullptr) {
        throw InternalError("profile scenario '" + name + "' produced no image");
    }
    run.report = profile::build_report(prof, *run.outcome.image, run.outcome.text_base);
    return run;
}

} // namespace swsec::core
