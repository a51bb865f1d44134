// Tiered-execution-engine tests (DESIGN.md §13).
//
// Both loops run the same handler bodies, so what these tests police is how
// the fused loop ("tier 2") strings them together: its contract is
// byte-identical architectural behaviour to the observed loop ("tier 1"),
// and with a tracer attached a byte-identical trace, with deoptimization at
// page generation bumps, budget boundaries (including *inside* a fused
// superinstruction), observer attach, and NX/PMA transitions, and the
// observed loop runs a fused slot's head alone.  These tests pin the deopt
// points and the fused shapes one by one; the fuzzer's engine oracle
// covers the same contract over generated programs.
#include <gtest/gtest.h>

#include <limits>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "cc/compiler.hpp"
#include "core/defense.hpp"
#include "core/scenarios.hpp"
#include "fault/fault.hpp"
#include "fuzz/generator.hpp"
#include "isa/encoder.hpp"
#include "os/process.hpp"
#include "profile/profiler.hpp"
#include "trace/trace.hpp"
#include "vm/decode_cache.hpp"
#include "vm/machine.hpp"
#include "vm/memory.hpp"

namespace swsec::vm {

// Names a handler in a failure message ("FusedLoadPush", not a byte).
void PrintTo(FastHandler h, std::ostream* os) {
    static const char* const kNames[] = {
#define SWSEC_FAST_NAME(name) #name,
        SWSEC_FAST_HANDLERS(SWSEC_FAST_NAME)
#undef SWSEC_FAST_NAME
    };
    *os << kNames[static_cast<std::size_t>(h)];
}

} // namespace swsec::vm

namespace {

using namespace swsec::vm;
using swsec::isa::Encoder;
using swsec::isa::Op;
using swsec::isa::Reg;

constexpr std::uint32_t kCode = 0x1000;
constexpr std::uint32_t kStackTop = 0xff00;

struct Runner {
    swsec::fault::FaultInjector no_faults; // an empty plan: never fires
    Machine m;

    /// `observed` attaches the empty fault plan, which keeps the machine on
    /// the observed loop (decode cache on) without changing what it does:
    /// the engine-A/B reference.
    explicit Runner(MachineOptions opts = {}, bool observed = false) : m(opts) {
        m.memory().map(kCode, 0x1000, Perm::RWX); // writable code: SMC tests
        m.memory().map(0xf000, 0x1000, Perm::RW); // stack
        m.set_ip(kCode);
        m.set_sp(kStackTop);
        if (observed) {
            m.set_fault_injector(&no_faults);
        }
    }

    RunResult run(const Encoder& e, std::uint64_t max_steps = 10000) {
        m.memory().raw_write(kCode, e.bytes());
        return m.run(max_steps);
    }
};

/// Mixed straight-line + branch + call/ret workload exercising three fused
/// families (cmpi+jcc, load+push, movi+pop): a loop summing values through
/// a one-argument function call.  r3 ends at 30.
Encoder mixed_program() {
    Encoder e;
    // main: r2 = counter, r3 = accumulator
    e.reg_imm32(Op::MovI, Reg::R2, 5);
    e.reg_imm32(Op::MovI, Reg::R3, 0);
    const auto loop = e.size();
    e.reg(Op::Push, Reg::R2); // push r2; call double_it: unfused
    const auto call = e.rel32(Op::Call, 0);
    e.reg_imm32(Op::AddI, Reg::Sp, 4);
    e.reg_reg(Op::Add, Reg::R3, Reg::R0);
    e.reg_imm32(Op::SubI, Reg::R2, 1);
    e.reg_imm32(Op::CmpI, Reg::R2, 0); // cmp+jnz            -> FusedCmpIJcc
    const auto jnz = e.rel32(Op::Jnz, 0);
    e.none(Op::Halt);
    // double_it(n): returns n * 2, classic frame
    const auto fn = e.size();
    e.reg(Op::Push, Reg::Bp);
    e.reg_reg(Op::MovR, Reg::Bp, Reg::Sp);
    e.reg_mem(Op::Load, Reg::R0, Reg::Bp, 8); // load arg; push r0 -> FusedLoadPush
    e.reg(Op::Push, Reg::R0);
    e.reg_imm32(Op::MovI, Reg::R1, 2); // movi; pop          -> FusedMovIPop
    e.reg(Op::Pop, Reg::R0);
    e.reg_reg(Op::Mul, Reg::R0, Reg::R1);
    e.none(Op::Leave); // leave; ret: unfused
    e.none(Op::Ret);
    e.patch_rel32(call, fn);
    e.patch_rel32(jnz, loop);
    return e;
}

/// The fourth fused family (cmp+jcc), beside shapes that do not fuse
/// (push; push; call, load; add, load; addi): a loop calling a two-argument
/// function and accumulating a counter kept in memory.  r3 ends at 40.
Encoder fused_program() {
    Encoder e;
    // main: r2 = counter, r3 = accumulator, r4 = &word, word = 3
    e.reg_imm32(Op::MovI, Reg::R2, 4);
    e.reg_imm32(Op::MovI, Reg::R3, 0);
    e.reg_imm32(Op::MovI, Reg::R4, 0xf800);
    e.reg_imm32(Op::MovI, Reg::R5, 3);
    e.reg_mem(Op::Store, Reg::R4, Reg::R5, 0);
    const auto loop = e.size();
    e.reg(Op::Push, Reg::R2); // push; push; call add2: unfused
    e.reg(Op::Push, Reg::R5);
    const auto call = e.rel32(Op::Call, 0);
    e.reg_imm32(Op::AddI, Reg::Sp, 8);
    e.reg_mem(Op::Load, Reg::R1, Reg::R4, 0); // load; add: unfused
    e.reg_reg(Op::Add, Reg::R3, Reg::R1);
    e.reg_mem(Op::Load, Reg::R6, Reg::R4, 0); // load; addi: unfused
    e.reg_imm32(Op::AddI, Reg::R6, 1);
    e.reg_mem(Op::Store, Reg::R4, Reg::R6, 0);
    e.reg_imm32(Op::SubI, Reg::R2, 1);
    e.reg_imm32(Op::MovI, Reg::R7, 0);
    e.reg_reg(Op::Cmp, Reg::R2, Reg::R7); // cmp; jg           -> FusedCmpJcc
    const auto jg = e.rel32(Op::Jg, 0);
    e.none(Op::Halt);
    // add2(a, b): r3 += a + b, classic frame
    const auto fn = e.size();
    e.reg(Op::Push, Reg::Bp);
    e.reg_reg(Op::MovR, Reg::Bp, Reg::Sp);
    e.reg_mem(Op::Load, Reg::R0, Reg::Bp, 8);
    e.reg_mem(Op::Load, Reg::R1, Reg::Bp, 12); // load; add: unfused
    e.reg_reg(Op::Add, Reg::R0, Reg::R1);
    e.reg_reg(Op::Add, Reg::R3, Reg::R0);
    e.none(Op::Leave);
    e.none(Op::Ret);
    e.patch_rel32(call, fn);
    e.patch_rel32(jg, loop);
    return e;
}

/// Both workloads with the value each leaves in r3.
std::vector<std::pair<Encoder, std::uint32_t>> workloads() {
    return {{mixed_program(), 30}, {fused_program(), 40}};
}

/// A fused load+push whose load faults (unmapped address): the pair traps
/// at the load's own address with nothing retired.
Encoder load_fault_program() {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R1, 0x5000); // unmapped
    e.reg_mem(Op::Load, Reg::R0, Reg::R1, 0);
    e.reg(Op::Push, Reg::R0);
    e.none(Op::Halt);
    return e;
}

/// The load+push pair's offset in push_fault_program().
constexpr std::uint32_t kPushFaultLoadAt = 4 * 6;

/// A fused load+push whose push faults (sp points at unmapped memory)
/// after the load retired, its register write included.  Four movi/store
/// come first, so the load is step 4 and the push step 5.
Encoder push_fault_program() {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R1, kStackTop);
    e.reg_imm32(Op::MovI, Reg::R2, 0x77);
    e.reg_mem(Op::Store, Reg::R1, Reg::R2, 0);
    e.reg_imm32(Op::MovI, Reg::Sp, 0x5004); // pushes land unmapped
    EXPECT_EQ(e.size(), kPushFaultLoadAt);
    e.reg_mem(Op::Load, Reg::R0, Reg::R1, 0);
    e.reg(Op::Push, Reg::R0);
    e.none(Op::Halt);
    return e;
}

/// expect_ab_identical's budget for a run nothing stops early, and its flag
/// for tracing both sides.
constexpr std::uint64_t kNoBudget = std::numeric_limits<std::uint64_t>::max();
constexpr bool kTraced = true;

/// What the tier-2 side of an A/B run leaves for a test to inspect.
struct Tier2Run {
    DispatchStats stats;
    std::vector<swsec::trace::TraceEvent> events; // empty unless traced
};

/// Run the same encoder on tier 2 (the default machine) and on the observed
/// loop throughout (an empty fault plan attached) and require identical
/// architectural results.  With `traced`, each machine carries a tracer,
/// and the JSONL, the event count, the steps and the decode-cache hits must
/// match too.
Tier2Run expect_ab_identical(const Encoder& e, std::uint64_t max_steps = 10000,
                             bool traced = false) {
    Runner a;
    Runner b({}, true);
    swsec::trace::Tracer ta;
    swsec::trace::Tracer tb;
    if (traced) {
        a.m.set_tracer(&ta);
        b.m.set_tracer(&tb);
    }
    const auto ra = a.run(e, max_steps);
    const auto rb = b.run(e, max_steps);
    EXPECT_EQ(ra.trap.kind, rb.trap.kind);
    EXPECT_EQ(ra.trap.ip, rb.trap.ip);
    EXPECT_EQ(ra.trap.addr, rb.trap.addr);
    EXPECT_EQ(ra.trap.code, rb.trap.code);
    EXPECT_EQ(ra.trap.detail, rb.trap.detail);
    EXPECT_EQ(ra.trap.origin, rb.trap.origin);
    EXPECT_EQ(ra.steps, rb.steps);
    for (int i = 0; i < swsec::isa::kNumRegs; ++i) {
        EXPECT_EQ(a.m.reg(static_cast<Reg>(i)), b.m.reg(static_cast<Reg>(i))) << "r" << i;
    }
    EXPECT_EQ(a.m.ip(), b.m.ip());
    EXPECT_EQ(b.m.dispatch_stats().tier2_entries, 0u) << "tier 1 run must not enter the engine";
    if (traced) {
        EXPECT_FALSE(ta.to_jsonl().empty());
        EXPECT_EQ(ta.to_jsonl(), tb.to_jsonl());
        EXPECT_EQ(ta.total_recorded(), tb.total_recorded());
        EXPECT_EQ(a.m.steps_executed(), b.m.steps_executed());
        EXPECT_EQ(a.m.decode_cache().hits(), b.m.decode_cache().hits());
    }
    return {a.m.dispatch_stats(), ta.events()};
}

// --- tier selection ----------------------------------------------------------

TEST(TierSelection, DefaultMachineRunsTier2) {
    // Between them the two workloads contain every fused family
    // (FusedShapes.TheTwoWorkloadsBuildAllFourFamilies).
    for (const auto& [program, r3] : workloads()) {
        Runner r;
        const auto res = r.run(program);
        EXPECT_EQ(res.trap.kind, TrapKind::Halted);
        EXPECT_EQ(r.m.reg(Reg::R3), r3);
        const DispatchStats& d = r.m.dispatch_stats();
        EXPECT_GT(d.tier2_entries, 0u);
        EXPECT_GT(d.fast_steps, 0u);
        EXPECT_GT(d.superinsns_retired, 0u);
        EXPECT_GT(r.m.decode_cache().fused_built(), 0u);
    }
}

TEST(TierSelection, TracerStaysOnTier2) {
    // A tracer observes without demoting: the traced run enters tier 2 and
    // records exactly the observed loop's trace.
    const Tier2Run traced = expect_ab_identical(mixed_program(), kNoBudget, kTraced);
    EXPECT_GT(traced.stats.tier2_entries, 0u);
    EXPECT_GT(traced.stats.superinsns_retired, 0u);
}

// A profile no longer forces tier 1 (TierSelection.ProfiledRunStaysOnTier2);
// a fault plan and the options tier 2 cannot run still do.
TEST(TierSelection, ProfilerFaultsAndOptionsForceTier1) {
    const Encoder e = mixed_program();
    const auto tier2_entries_with = [&](auto&& configure) {
        Runner r;
        configure(r.m);
        const auto res = r.run(e);
        EXPECT_EQ(res.trap.kind, TrapKind::Halted);
        EXPECT_EQ(r.m.reg(Reg::R3), 30u);
        return r.m.dispatch_stats().tier2_entries;
    };
    swsec::fault::FaultInjector faults{swsec::fault::FaultPlan{}}; // empty plan still counts
    EXPECT_EQ(tier2_entries_with([&](Machine& m) { m.set_fault_injector(&faults); }), 0u);
    EXPECT_EQ(tier2_entries_with([](Machine& m) { m.options().decode_cache = false; }), 0u);
}

/// What a profile folded: every count it keeps, and where its shadow stack
/// ended.
void expect_same_profile(const swsec::profile::Profiler& a, const swsec::profile::Profiler& b) {
    EXPECT_EQ(a.retired(), b.retired());
    EXPECT_EQ(a.pc_counts(), b.pc_counts());
    EXPECT_EQ(a.edge_counts(), b.edge_counts());
    EXPECT_EQ(a.samples(), b.samples());
    EXPECT_EQ(a.shadow_stack(), b.shadow_stack());
}

TEST(TierSelection, ProfiledRunStaysOnTier2) {
    // A profile is a fold over the tracer's stream, so it observes without
    // demoting: the profiled run enters tier 2 and retires fused pairs, and
    // folds at interval 1 exactly what the same run folds with the decode
    // cache off, every instruction on the observed loop.
    using swsec::profile::Profiler;
    using swsec::trace::Tracer;
    {
        MachineOptions off;
        off.decode_cache = false;
        Runner a;
        Runner b(off);
        Profiler pa;
        Profiler pb;
        Tracer ta(1);
        Tracer tb(1);
        for (auto [r, p, t] : {std::tuple{&a, &pa, &ta}, std::tuple{&b, &pb, &tb}}) {
            p->set_sample_interval(1);
            t->set_fold(p);
            r->m.set_tracer(t);
            EXPECT_EQ(r->run(mixed_program()).trap.kind, TrapKind::Halted);
            EXPECT_EQ(r->m.reg(Reg::R3), 30u);
        }
        EXPECT_GT(a.m.dispatch_stats().tier2_entries, 0u);
        EXPECT_GT(a.m.dispatch_stats().superinsns_retired, 0u);
        EXPECT_EQ(b.m.dispatch_stats().tier2_entries, 0u);
        expect_same_profile(pa, pb);
        EXPECT_EQ(pa.retired(), a.m.steps_executed() - 1); // the halt traps, not retires
        // Each address runs in one frame, so one sample stack per address.
        EXPECT_EQ(pa.samples().size(), pa.pc_counts().size());
    }
    {
        // A compiled recursive program, cut by the watchdog deep inside
        // the recursion, so the shadow stack ends several frames deep.
        const auto img = swsec::cc::compile_program({R"(
            int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
            int main() { return fib(12); }
        )"}, {});
        Profiler profiles[2];
        const bool decode_cache[2] = {true, false};
        for (int i = 0; i < 2; ++i) {
            Tracer t(1);
            profiles[i].set_sample_interval(1);
            t.set_fold(&profiles[i]);
            swsec::os::SecurityProfile p;
            p.decode_cache = decode_cache[i];
            p.tracer = &t;
            swsec::os::Process proc(img, p, 7);
            EXPECT_EQ(proc.run(3000).trap.kind, TrapKind::OutOfGas);
            const DispatchStats& d = proc.machine().dispatch_stats();
            if (decode_cache[i]) {
                EXPECT_GT(d.tier2_entries, 0u);
                EXPECT_GT(d.superinsns_retired, 0u);
            } else {
                EXPECT_EQ(d.tier2_entries, 0u);
            }
        }
        expect_same_profile(profiles[0], profiles[1]);
        EXPECT_EQ(profiles[0].retired(), 3000u);
        EXPECT_GE(profiles[0].shadow_stack().size(), 4u);
    }
}

TEST(TierSelection, SanitizeAddressStaysOnTier2) {
    // sanitize_address is compiled-in instrumentation plus kernel
    // interceptors: the machine itself never consults the shadow, so the
    // flag must NOT demote execution.  The compiled shadow checks are
    // ordinary instructions tier 2 executes (and fuses) like any others,
    // and the trapping `sys` path already deopts at every syscall — so
    // A/B equivalence over the fused workload proves superinstruction
    // fusion cannot skip a check (test_sanitizer.cpp drives the same
    // contract end-to-end through compiled images).
    MachineOptions fast;
    fast.sanitize_address = true;
    Runner a(fast);
    Runner b(fast, true);
    const Encoder e = mixed_program();
    const auto ra = a.run(e);
    const auto rb = b.run(e);
    EXPECT_EQ(ra.trap.kind, TrapKind::Halted);
    EXPECT_EQ(rb.trap.kind, TrapKind::Halted);
    EXPECT_EQ(ra.steps, rb.steps);
    for (int i = 0; i < swsec::isa::kNumRegs; ++i) {
        EXPECT_EQ(a.m.reg(static_cast<Reg>(i)), b.m.reg(static_cast<Reg>(i))) << "r" << i;
    }
    EXPECT_GT(a.m.dispatch_stats().tier2_entries, 0u)
        << "sanitize_address must not force tier 1";
    EXPECT_GT(a.m.dispatch_stats().superinsns_retired, 0u);
    EXPECT_EQ(b.m.dispatch_stats().tier2_entries, 0u);
}

TEST(TierSelection, ProtectedModulesForceTier1) {
    Runner r;
    ProtectedModule mod;
    mod.name = "m";
    mod.code_base = 0x8000;
    mod.code_size = 0x100;
    mod.entry_points = {0x8000};
    r.m.add_protected_module(mod);
    const auto res = r.run(mixed_program());
    EXPECT_EQ(res.trap.kind, TrapKind::Halted);
    EXPECT_EQ(r.m.dispatch_stats().tier2_entries, 0u);
}

// --- A/B equivalence ---------------------------------------------------------

TEST(EngineAB, MixedWorkloadIdentical) { expect_ab_identical(mixed_program()); }

TEST(EngineAB, FusedShapesWorkloadIdentical) {
    expect_ab_identical(fused_program());
    // Every budget that ends inside a fused group, too, in both workloads:
    // the watchdog splits each of the four families somewhere in 1-40.
    for (const auto& [program, r3] : workloads()) {
        for (std::uint64_t budget = 1; budget <= 40; ++budget) {
            SCOPED_TRACE("budget=" + std::to_string(budget));
            expect_ab_identical(program, budget);
        }
    }
}

// --- fused shapes --------------------------------------------------------------

/// Every fused handler of the vocabulary: the Fused* entries of the X-macro.
std::set<FastHandler> fused_handlers() {
    std::set<FastHandler> out;
#define SWSEC_FUSED_ENTRY(name)                                                                    \
    if (std::string_view(#name).starts_with("Fused")) {                                            \
        out.insert(FastHandler::name);                                                             \
    }
    SWSEC_FAST_HANDLERS(SWSEC_FUSED_ENTRY)
#undef SWSEC_FUSED_ENTRY
    return out;
}

const std::set<FastHandler> kFusedFamilies = fused_handlers();

/// The fused families build_fast emits when walking the instructions of
/// `text`, loaded at kCode, in order from its first byte (a linear sweep:
/// compiled text holds only instructions and NOP padding).
std::set<FastHandler> fused_families(std::span<const std::uint8_t> text) {
    const auto size = static_cast<std::uint32_t>((text.size() + kPageSize - 1) & ~(kPageSize - 1));
    Memory mem;
    mem.map(kCode, size, Perm::RW);
    mem.raw_write(kCode, text);
    mem.protect(kCode, size, Perm::RX);
    DecodeCache dc;
    std::set<FastHandler> out;
    for (std::uint32_t off = 0; off < text.size();) {
        const DecodeCache::FastPageRef ref = dc.fast_page(mem, kCode + off, Perm::R);
        const std::uint32_t in_page = kCode + off - ref.base;
        dc.build_fast(ref, in_page);
        const FastOp& op = (*ref.ops)[in_page];
        // Only a page tail, where an instruction may straddle, stays slow.
        EXPECT_TRUE(op.h != FastHandler::Slow || in_page > kPageSize - swsec::isa::kMaxInsnLength)
            << "offset " << off;
        if (kFusedFamilies.contains(op.h)) {
            out.insert(op.h);
        }
        const auto insn = swsec::isa::decode(text.subspan(off));
        if (!insn) {
            ADD_FAILURE() << "no instruction at offset " << off;
            break;
        }
        off += insn->length;
    }
    return out;
}

std::set<FastHandler> fused_families(const Encoder& e) { return fused_families(e.bytes()); }

TEST(FusedShapes, TheTwoWorkloadsBuildAllFourFamilies) {
    EXPECT_EQ(kFusedFamilies,
              (std::set<FastHandler>{FastHandler::FusedCmpJcc, FastHandler::FusedCmpIJcc,
                                     FastHandler::FusedLoadPush, FastHandler::FusedMovIPop}));
    std::set<FastHandler> all = fused_families(mixed_program());
    const std::set<FastHandler> second = fused_families(fused_program());
    all.insert(second.begin(), second.end());
    EXPECT_EQ(all, kFusedFamilies);
    EXPECT_EQ(second, (std::set<FastHandler>{FastHandler::FusedCmpJcc}));
}

TEST(FusedShapes, EveryFamilyOccursInCompiledCode) {
    // A fused handler defines its pair's effect a second time, so it must
    // earn its lines on code the compiler actually emits: every family has
    // to be built somewhere in the text of the scenario servers and of
    // generated programs (crt0 and libc included) under the standard
    // option sets.  A family fused on guessed traffic fails here.
    std::vector<std::string> sources = {
        swsec::core::scenarios::fig1_server(32),
        swsec::core::scenarios::rop_server(),
        swsec::core::scenarios::fnptr_server(),
        swsec::core::scenarios::arbwrite_server(),
        swsec::core::scenarios::dataonly_server(),
        swsec::core::scenarios::leak_server(),
        swsec::core::scenarios::uaf_server(),
        swsec::core::scenarios::heap_server(),
        swsec::core::scenarios::heap_index_server(),
        swsec::core::scenarios::stack_index_server(),
        swsec::core::scenarios::heap_leak_server(),
        swsec::core::scenarios::uaf_read_server(),
    };
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        sources.push_back(swsec::fuzz::generate_program(seed).render());
    }
    std::set<std::string> keys;
    std::set<FastHandler> built;
    for (const auto& defense : swsec::core::standard_defenses()) {
        if (!keys.insert(swsec::cc::compiler_options_key(defense.copts)).second) {
            continue;
        }
        for (const std::string& source : sources) {
            const auto image = swsec::cc::compile_program({source}, defense.copts);
            const std::set<FastHandler> families = fused_families(image.text);
            built.insert(families.begin(), families.end());
        }
    }
    EXPECT_EQ(keys.size(), 5u);
    EXPECT_EQ(built, kFusedFamilies);
}

TEST(FusedShapes, TracerSeesOneInsnEventPerRetiredStep) {
    // A traced run reports every architectural instruction once, in step
    // order: tier 2 writes one event per component of a fused pair, and the
    // observed loop executes only the head of a fused slot.
    for (const auto& [program, r3] : workloads()) {
        Runner r;
        swsec::trace::Tracer tracer;
        r.m.set_tracer(&tracer);
        const auto res = r.run(program);
        ASSERT_EQ(res.trap.kind, TrapKind::Halted);
        EXPECT_EQ(r.m.reg(Reg::R3), r3);
        std::uint64_t expected_step = 0;
        for (const auto& ev : tracer.events()) {
            if (ev.kind == swsec::trace::EventKind::InsnRetired) {
                EXPECT_EQ(ev.step, expected_step++);
            }
        }
        // Every step retired an instruction except the trapping halt.
        EXPECT_EQ(expected_step, res.steps - 1);
        EXPECT_EQ(tracer.dropped(), 0u) << "the events above are the whole run";
        EXPECT_GT(r.m.decode_cache().fused_built(), 0u) << "the traced run built fused slots";
    }
}

TEST(FusedShapes, TracesIdenticalWithDecodeCacheOnAndOff) {
    for (const Encoder& program : {mixed_program(), fused_program()}) {
        std::string jsonl[2];
        for (const bool cache : {true, false}) {
            MachineOptions opts;
            opts.decode_cache = cache;
            Runner r(opts);
            swsec::trace::Tracer tracer;
            r.m.set_tracer(&tracer);
            EXPECT_EQ(r.run(program).trap.kind, TrapKind::Halted);
            jsonl[cache ? 0 : 1] = tracer.to_jsonl();
        }
        EXPECT_FALSE(jsonl[0].empty());
        EXPECT_EQ(jsonl[0], jsonl[1]);
    }
}

TEST(EngineAB, TrapProvenanceIdentical) {
    // A faulting store through a fused-adjacent sequence: trap ip/addr/msg
    // must match tier 1 exactly.
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R1, 0x5000); // unmapped
    e.reg_mem(Op::Store, Reg::R1, Reg::R0, 0);
    expect_ab_identical(e);

    Encoder div;
    div.reg_imm32(Op::MovI, Reg::R0, 7);
    div.reg_imm32(Op::MovI, Reg::R1, 0);
    div.reg_reg(Op::Divs, Reg::R0, Reg::R1);
    expect_ab_identical(div);

    // A fused load+push traps componentwise: a faulting load at its own
    // address with nothing retired, a faulting push at the push's address
    // after the load retired (its register write included).
    const Encoder load_faults = load_fault_program();
    const Encoder push_faults = push_fault_program();
    for (const Encoder* program : {&load_faults, &push_faults}) {
        EXPECT_TRUE(fused_families(*program).contains(FastHandler::FusedLoadPush));
        expect_ab_identical(*program);
    }
    Runner r;
    const auto res = r.run(push_faults);
    EXPECT_EQ(res.trap.kind, TrapKind::SegvWrite);
    EXPECT_EQ(res.trap.ip, kCode + kPushFaultLoadAt + 6);
    EXPECT_EQ(res.steps, 6u) << "four movi/store, the load, then the faulting push";
    EXPECT_EQ(r.m.reg(Reg::R0), 0x77u) << "the load retired before the push faulted";
}

TEST(EngineAB, TracedTier2MatchesTracedTier1) {
    // Tier 2 traced writes the observed loop's events, one per component of
    // a fused pair, and credits the same counters, at every budget that
    // splits a pair and when nothing stops the program.
    const std::vector<std::pair<const char*, Encoder>> programs = {
        {"mixed", mixed_program()},
        {"fused", fused_program()},
        {"load-faults", load_fault_program()},
        {"push-faults", push_fault_program()},
    };
    for (const auto& [name, program] : programs) {
        SCOPED_TRACE(name);
        for (std::uint64_t budget = 1; budget <= 40; ++budget) {
            SCOPED_TRACE("budget=" + std::to_string(budget));
            (void)expect_ab_identical(program, budget, kTraced);
        }
        const Tier2Run unbounded = expect_ab_identical(program, kNoBudget, kTraced);
        EXPECT_GT(unbounded.stats.tier2_entries, 0u);
        if (std::string_view(name).ends_with("-faults")) {
            EXPECT_GT(unbounded.stats.deopt_trap, 0u) << "the pair trapped inside tier 2";
        } else {
            EXPECT_GT(unbounded.stats.superinsns_retired, 0u);
        }
    }

    // The push faults after the load retired: the load's insn event comes
    // first, then the trap at the push's step and address.
    const Tier2Run push = expect_ab_identical(push_fault_program(), kNoBudget, kTraced);
    ASSERT_GE(push.events.size(), 2u);
    const swsec::trace::TraceEvent& load = push.events[push.events.size() - 2];
    const swsec::trace::TraceEvent& trap = push.events.back();
    EXPECT_EQ(load.kind, swsec::trace::EventKind::InsnRetired);
    EXPECT_EQ(load.step, 4u);
    EXPECT_EQ(load.pc, kCode + kPushFaultLoadAt);
    EXPECT_EQ(load.code, static_cast<std::uint8_t>(Op::Load));
    EXPECT_EQ(trap.kind, swsec::trace::EventKind::TrapRaised);
    EXPECT_EQ(trap.step, 5u);
    EXPECT_EQ(trap.pc, kCode + kPushFaultLoadAt + 6);
    EXPECT_EQ(trap.code, static_cast<std::uint8_t>(TrapKind::SegvWrite));
}

TEST(EngineAB, ShadowStackAndCfiReplicatedInTier2) {
    // Corrupt the return address on the stack; with the hardware shadow
    // stack the trap must be identical under both engines — and the tier-2
    // run must actually have executed on tier 2.
    Encoder e;
    const auto call = e.rel32(Op::Call, 0);
    e.none(Op::Halt);
    const auto fn = e.size();
    e.reg_imm32(Op::MovI, Reg::R1, 0); // r1 = &return address == sp
    e.reg_reg(Op::MovR, Reg::R1, Reg::Sp);
    e.reg_imm32(Op::MovI, Reg::R2, 0x2000);
    e.reg_mem(Op::Store, Reg::R1, Reg::R2, 0); // overwrite return address
    e.none(Op::Ret);
    e.patch_rel32(call, fn);

    MachineOptions fast;
    fast.hardware_shadow_stack = true;
    Runner a(fast);
    Runner b(fast, true);
    const auto ra = a.run(e);
    const auto rb = b.run(e);
    EXPECT_EQ(ra.trap.kind, TrapKind::ShadowStackViolation);
    EXPECT_EQ(rb.trap.kind, TrapKind::ShadowStackViolation);
    EXPECT_EQ(ra.trap.ip, rb.trap.ip);
    EXPECT_EQ(ra.trap.addr, rb.trap.addr);
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_GT(a.m.dispatch_stats().fast_steps, 0u);

    // Coarse CFI: an indirect jump to a non-approved target.
    Encoder j;
    j.reg_imm32(Op::MovI, Reg::R0, 0x1800);
    j.reg(Op::JmpR, Reg::R0);
    MachineOptions cfast;
    cfast.coarse_cfi = true;
    Runner ca(cfast);
    Runner cb(cfast, true);
    const auto rca = ca.run(j);
    const auto rcb = cb.run(j);
    EXPECT_EQ(rca.trap.kind, TrapKind::CfiViolation);
    EXPECT_EQ(rcb.trap.kind, TrapKind::CfiViolation);
    EXPECT_EQ(rca.trap.ip, rcb.trap.ip);
    EXPECT_EQ(rca.trap.addr, rcb.trap.addr);
    EXPECT_GT(ca.m.dispatch_stats().fast_steps, 0u);
}

// --- deopt: budget boundaries ------------------------------------------------

TEST(Deopt, WatchdogExpiryInsideFusedSuperinstruction) {
    // cmp+jcc fuses to one two-step dispatch.  With a budget that dies
    // between the cmp and the jcc, tier 2 must hand the head instruction to
    // tier 1 alone so the watchdog fires at exactly the same instruction —
    // and report the jcc's address as where the budget died.
    Encoder e;
    const auto loop = e.size();
    e.reg_imm32(Op::CmpI, Reg::R0, 1);
    const auto jnz = e.rel32(Op::Jnz, 0);
    e.patch_rel32(jnz, loop);
    e.none(Op::Halt);

    for (const std::uint64_t budget : {1u, 2u, 3u, 4u, 5u, 7u}) {
        Runner a;
        Runner b({}, true);
        const auto ra = a.run(e, budget);
        const auto rb = b.run(e, budget);
        EXPECT_EQ(ra.trap.kind, TrapKind::OutOfGas) << "budget=" << budget;
        EXPECT_EQ(ra.trap.kind, rb.trap.kind) << "budget=" << budget;
        EXPECT_EQ(ra.trap.addr, rb.trap.addr) << "budget=" << budget;
        EXPECT_EQ(ra.steps, rb.steps) << "budget=" << budget;
        EXPECT_EQ(ra.steps, budget) << "budget=" << budget;
    }
    // Odd budgets die between cmp and jcc: the watchdog must name the jcc.
    Runner odd;
    const auto res = odd.run(e, 1);
    EXPECT_EQ(res.trap.addr, kCode + 6u) << "budget died at the jcc, not the cmp";
}

// --- deopt: self-modifying code / page generation ----------------------------

TEST(Deopt, SelfModifyingStoreBumpsGenerationUnderTier2) {
    // Patch the immediate of a later MovI, loop back, re-execute it.  The
    // engine must deoptimize at the generation bump and the second pass
    // must see the new immediate (no stale fused/predecoded entries).
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R2, 0); // pass counter
    const auto loop = e.size();
    const auto target = e.size();
    e.reg_imm32(Op::MovI, Reg::R0, 111);
    e.reg_imm32(Op::CmpI, Reg::R2, 0);
    const auto jnz = e.rel32(Op::Jnz, 0);
    e.reg_imm32(Op::MovI, Reg::R1, static_cast<std::int32_t>(kCode + target + 2));
    e.reg_imm32(Op::MovI, Reg::R3, 222);
    e.reg_mem(Op::Store8, Reg::R1, Reg::R3, 0);
    e.reg_imm32(Op::MovI, Reg::R2, 1);
    const auto back = e.rel32(Op::Jmp, 0);
    e.patch_rel32(back, loop);
    const auto done = e.size();
    e.none(Op::Halt);
    e.patch_rel32(jnz, done);

    Runner r;
    const auto res = r.run(e);
    EXPECT_EQ(res.trap.kind, TrapKind::Halted);
    EXPECT_EQ(r.m.reg(Reg::R0), 222u) << "second pass must execute the patched bytes";
    const DispatchStats& d = r.m.dispatch_stats();
    EXPECT_GT(d.tier2_entries, 0u);
    EXPECT_GT(d.deopt_page_gen, 0u) << "the in-page store must deoptimize the engine";
    expect_ab_identical(e);
}

TEST(Deopt, InPagePushDeoptsBeforeTheCall) {
    // A push whose store lands inside the executing page, immediately
    // followed by a call: the push bumps the page generation, and the
    // engine must leave the unobserved loop before the call (at the page
    // check every store-class instruction resumes at) with identical end
    // state.
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::Sp, kCode + 0x800); // stack inside the code page
    e.reg_imm32(Op::MovI, Reg::R0, 42);
    e.reg(Op::Push, Reg::R0);
    const auto call = e.rel32(Op::Call, 0);
    e.none(Op::Halt);
    const auto fn = e.size();
    e.none(Op::Ret);
    e.patch_rel32(call, fn);

    Runner r;
    const auto res = r.run(e);
    EXPECT_EQ(res.trap.kind, TrapKind::Halted);
    EXPECT_GT(r.m.dispatch_stats().deopt_page_gen, 0u)
        << "the in-page push must deopt before the call";
    expect_ab_identical(e);
}

// --- deopt: observer attach between slices -----------------------------------

TEST(Deopt, TracerAttachBetweenSlicesTracesTheRest) {
    // Run a slice under tier 2, attach a tracer at the slice boundary (the
    // campaign watchdog pattern), resume: the remainder must execute fully
    // instrumented, and the total behaviour must equal an uninterrupted
    // tier-1 run.
    Encoder e = mixed_program();
    Runner a;
    (void)a.run(e, 10); // slice 1: tier 2
    EXPECT_EQ(a.m.trap().kind, TrapKind::OutOfGas);
    EXPECT_GT(a.m.dispatch_stats().fast_steps, 0u);
    const std::uint64_t tier2_before = a.m.dispatch_stats().tier2_entries;

    swsec::trace::Tracer tracer;
    a.m.set_tracer(&tracer);
    a.m.clear_trap();
    const auto resumed = a.m.run(10000); // slice 2: tier 2, traced
    EXPECT_EQ(resumed.trap.kind, TrapKind::Halted);
    EXPECT_GT(tracer.total_recorded(), 0u) << "resumed slice must be traced";
    EXPECT_GT(a.m.dispatch_stats().tier2_entries, tier2_before) << "slice 2 must enter tier 2";

    Runner b({}, true);
    swsec::trace::Tracer reference;
    b.m.set_tracer(&reference);
    const auto rb = b.run(e);
    EXPECT_EQ(resumed.trap.kind, rb.trap.kind);
    EXPECT_EQ(a.m.steps_executed(), rb.steps);
    for (int i = 0; i < swsec::isa::kNumRegs; ++i) {
        EXPECT_EQ(a.m.reg(static_cast<Reg>(i)), b.m.reg(static_cast<Reg>(i))) << "r" << i;
    }
    // Slice 2 recorded exactly what the uninterrupted traced run records
    // from step 10 on.
    std::vector<std::string> rest;
    for (const auto& ev : reference.events()) {
        if (ev.step >= 10) {
            rest.push_back(ev.to_json());
        }
    }
    std::vector<std::string> slice2;
    for (const auto& ev : tracer.events()) {
        slice2.push_back(ev.to_json());
    }
    EXPECT_FALSE(slice2.empty());
    EXPECT_EQ(slice2, rest);
}

TEST(Deopt, FaultPlanBitFlipInvalidatesUnderTier1Demotion) {
    // Attaching a fault plan demotes to tier 1 (the injector must probe
    // every instruction boundary), and a memory bit flip in the code page
    // must still invalidate any previously fused/predecoded entries.
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R0, 3); // imm low byte at kCode+2
    e.none(Op::Halt);

    // First: one clean tier-2 run builds fast entries for the page.
    Runner r;
    const auto clean = r.run(e);
    EXPECT_EQ(clean.trap.kind, TrapKind::Halted);
    EXPECT_EQ(r.m.reg(Reg::R0), 3u);
    EXPECT_GT(r.m.dispatch_stats().fast_steps, 0u);

    // Then: rerun under a plan that flips bit 2 of the immediate (3 -> 7)
    // before the first instruction retires.
    swsec::fault::FaultPlan plan;
    plan.add(swsec::fault::FaultEvent::mem_bit_flip(0, kCode + 2, 2));
    swsec::fault::FaultInjector inj(std::move(plan));
    r.m.set_fault_injector(&inj);
    r.m.clear_trap();
    r.m.set_ip(kCode);
    const std::uint64_t tier2_before = r.m.dispatch_stats().tier2_entries;
    const auto flipped = r.m.run(10000);
    EXPECT_EQ(flipped.trap.kind, TrapKind::Halted);
    EXPECT_EQ(r.m.reg(Reg::R0), 7u) << "the flipped bytes must execute, not the cached ones";
    EXPECT_EQ(r.m.dispatch_stats().tier2_entries, tier2_before)
        << "a fault plan must keep the machine on tier 1";
}

// --- deopt: NX flips ---------------------------------------------------------

TEST(Deopt, NxFlipInvalidatesFusedEntries) {
    MachineOptions opts;
    opts.enforce_nx = true;
    Machine m(opts);
    m.memory().map(kCode, 0x1000, Perm::RX);
    m.memory().map(0xf000, 0x1000, Perm::RW);

    Encoder e;
    e.reg_imm32(Op::CmpI, Reg::R0, 0); // fuses with the jz
    const auto jz = e.rel32(Op::Jz, 0);
    e.none(Op::Halt);
    const auto out = e.size();
    e.none(Op::Halt);
    e.patch_rel32(jz, out);
    m.memory().protect(kCode, 0x1000, Perm::RW);
    m.memory().raw_write(kCode, e.bytes());
    m.memory().protect(kCode, 0x1000, Perm::RX);

    m.set_ip(kCode);
    m.set_sp(kStackTop);
    EXPECT_EQ(m.run(100).trap.kind, TrapKind::Halted);
    EXPECT_GT(m.decode_cache().fused_built(), 0u);
    EXPECT_GT(m.dispatch_stats().fast_steps, 0u);

    // Revoke X: tier 2 must refuse the page and the slow fetch must trap,
    // despite the fused entries still sitting in the cache arrays.
    m.memory().protect(kCode, 0x1000, Perm::RW);
    m.clear_trap();
    m.set_ip(kCode);
    EXPECT_EQ(m.run(100).trap.kind, TrapKind::SegvExec);

    // Restore X: the generation moved, so the fused stream is rebuilt and
    // execution proceeds as before.
    m.memory().protect(kCode, 0x1000, Perm::RX);
    m.clear_trap();
    m.set_ip(kCode);
    const std::uint64_t built_before = m.decode_cache().fused_built();
    EXPECT_EQ(m.run(100).trap.kind, TrapKind::Halted);
    EXPECT_GT(m.decode_cache().fused_built(), built_before)
        << "the NX round-trip must rebuild, not reuse, fused entries";
}

// --- demand-zero pages ---------------------------------------------------------

TEST(DemandZero, UntouchedPageReadsZeroUnderBothTiersAndStoreMaterialises) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R1, 0x8000);
    e.reg_imm32(Op::MovI, Reg::R0, 0x55);
    e.reg_imm32(Op::MovI, Reg::R2, 0x55);
    e.reg_imm32(Op::MovI, Reg::R4, 0x1234);
    e.reg_mem(Op::Load, Reg::R0, Reg::R1, 0x10);     // untouched page 0x8000
    e.reg_mem(Op::Load8, Reg::R2, Reg::R1, 0x1021);  // untouched page 0x9000
    e.reg_mem(Op::Store, Reg::R1, Reg::R4, 0x40);    // first write to 0x8000
    e.reg_mem(Op::Load, Reg::R3, Reg::R1, 0x40);
    e.none(Op::Halt);
    for (const bool fast : {true, false}) {
        SCOPED_TRACE(fast ? "tier 2" : "tier 1");
        Runner r({}, !fast);
        Memory& mem = r.m.memory();
        mem.map(0x8000, 0x2000, Perm::RW);
        mem.raw_write(kCode, e.bytes());
        const std::uint64_t materialised = mem.pages_materialised();
        const std::uint64_t gen8 = mem.generation_of(0x8000);
        const std::uint64_t gen9 = mem.generation_of(0x9000);
        const auto res = r.m.run(100);
        EXPECT_EQ(res.trap.kind, TrapKind::Halted);
        EXPECT_EQ(r.m.reg(Reg::R0), 0u);
        EXPECT_EQ(r.m.reg(Reg::R2), 0u);
        EXPECT_EQ(r.m.reg(Reg::R3), 0x1234u);
        EXPECT_EQ(mem.pages_materialised(), materialised + 1); // 0x8000 only
        EXPECT_GT(mem.generation_of(0x8000), gen8);
        EXPECT_EQ(mem.generation_of(0x9000), gen9);
        if (fast) {
            EXPECT_GE(r.m.dispatch_stats().fast_steps, 8u) << "the loads and store ran in tier 2";
        } else {
            EXPECT_EQ(r.m.dispatch_stats().tier2_entries, 0u);
        }
    }
}

// --- dcache stats contract ---------------------------------------------------

TEST(DispatchStats, Tier2CreditsDecodeCacheHits) {
    // Every tier-2 retired instruction is a decode-cache hit by
    // construction; the engine must credit them so hit-rate metrics remain
    // comparable across tiers.
    Runner r;
    const auto res = r.run(mixed_program());
    EXPECT_EQ(res.trap.kind, TrapKind::Halted);
    const DispatchStats& d = r.m.dispatch_stats();
    EXPECT_GE(r.m.decode_cache().hits(), d.fast_steps);
    EXPECT_GT(d.fast_steps, 0u);
}

} // namespace
