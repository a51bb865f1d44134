// Virtual-machine tests: memory permissions and poison, instruction
// semantics, traps, shadow stack, CFI, PMA rule enforcement at machine
// level, and kernel-privilege access.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/error.hpp"
#include "isa/encoder.hpp"
#include "vm/machine.hpp"
#include "vm/memory.hpp"

namespace {

using namespace swsec::vm;
using swsec::isa::Encoder;
using swsec::isa::Op;
using swsec::isa::Reg;

// --- Memory -----------------------------------------------------------------

TEST(Memory, MapAndAccess) {
    Memory m;
    EXPECT_FALSE(m.is_mapped(0x1000));
    m.map(0x1000, 0x2000, Perm::RW);
    EXPECT_TRUE(m.is_mapped(0x1000));
    EXPECT_TRUE(m.is_mapped(0x2fff));
    EXPECT_FALSE(m.is_mapped(0x3000));
    m.raw_write32(0x1234, 0xdeadbeef);
    EXPECT_EQ(m.raw_read32(0x1234), 0xdeadbeefu);
    EXPECT_EQ(m.raw_read8(0x1234), 0xef); // little-endian
    EXPECT_EQ(m.raw_read8(0x1237), 0xde);
}

TEST(Memory, WordsStraddlePages) {
    Memory m;
    m.map(0x1000, 0x2000, Perm::RW);
    m.raw_write32(0x1ffe, 0x11223344); // crosses the 0x2000 page boundary
    EXPECT_EQ(m.raw_read32(0x1ffe), 0x11223344u);
    EXPECT_EQ(m.raw_read8(0x2000), 0x22);
}

TEST(Memory, PermissionChecks) {
    Memory m;
    m.map(0x1000, 0x1000, Perm::R);
    EXPECT_EQ(m.check(0x1000, 4, Perm::R, false), AccessFault::None);
    EXPECT_EQ(m.check(0x1000, 4, Perm::W, false), AccessFault::Permission);
    EXPECT_EQ(m.check(0x1000, 4, Perm::X, false), AccessFault::Permission);
    EXPECT_EQ(m.check(0x5000, 1, Perm::R, false), AccessFault::Unmapped);
    m.protect(0x1000, 0x1000, Perm::RWX);
    EXPECT_EQ(m.check(0x1000, 4, Perm::X, false), AccessFault::None);
}

TEST(Memory, CheckSpansPageBoundaryPermissions) {
    Memory m;
    m.map(0x1000, 0x1000, Perm::RW);
    m.map(0x2000, 0x1000, Perm::R);
    // A 4-byte write at 0x1ffe touches the read-only page.
    EXPECT_EQ(m.check(0x1ffe, 4, Perm::W, false), AccessFault::Permission);
    EXPECT_EQ(m.check(0x1ffe, 4, Perm::R, false), AccessFault::None);
}

TEST(Memory, PoisonBitmap) {
    Memory m;
    m.map(0x1000, 0x1000, Perm::RW);
    m.poison(0x1100, 16);
    EXPECT_TRUE(m.is_poisoned(0x1100));
    EXPECT_TRUE(m.is_poisoned(0x110f));
    EXPECT_FALSE(m.is_poisoned(0x1110));
    EXPECT_EQ(m.check(0x10fe, 4, Perm::R, true), AccessFault::Poisoned);
    EXPECT_EQ(m.check(0x10fe, 4, Perm::R, false), AccessFault::None);
    m.unpoison(0x1100, 16);
    EXPECT_EQ(m.check(0x10fe, 4, Perm::R, true), AccessFault::None);
}

TEST(Memory, UnmapAndRawFault) {
    Memory m;
    m.map(0x1000, 0x1000, Perm::RW);
    m.unmap(0x1000, 0x1000);
    EXPECT_FALSE(m.is_mapped(0x1000));
    EXPECT_THROW((void)m.raw_read8(0x1000), swsec::Error);
}

// --- Demand-zero pages ----------------------------------------------------------

TEST(DemandZero, UntouchedPageReadsZeroWithoutMaterialising) {
    Memory m;
    m.map(0x1000, 0x2000, Perm::RW);
    EXPECT_EQ(m.mapped_pages(), (std::vector<std::uint32_t>{0x1000, 0x2000}));
    ASSERT_EQ(m.check(0x1ffe, 4, Perm::R, true), AccessFault::None);
    EXPECT_EQ(m.read32(0x1ffe), 0u); // straddles both untouched pages
    EXPECT_EQ(m.read8(0x2abc), 0u);
    EXPECT_EQ(m.raw_read32(0x1000), 0u);
    EXPECT_EQ(m.raw_read(0x1ff0, 0x20), std::vector<std::uint8_t>(0x20, 0));
    EXPECT_EQ(m.page_view(0x1000).data, m.page_view(0x2000).data); // one shared zero page
    EXPECT_EQ(m.pages_materialised(), 0u);
    EXPECT_EQ(m.mapped_pages().size(), 2u);
}

TEST(DemandZero, WriteMaterialisesExactlyThatPage) {
    Memory m;
    m.map(0x1000, 0x3000, Perm::RW);
    const std::uint64_t gen1 = m.generation_of(0x1000);
    const std::uint64_t gen2 = m.generation_of(0x2000);
    const std::uint64_t gen3 = m.generation_of(0x3000);

    m.write32(0x2010, 0xdeadbeef); // checked-path writer
    EXPECT_EQ(m.pages_materialised(), 1u);
    EXPECT_GT(m.generation_of(0x2000), gen2);
    EXPECT_EQ(m.generation_of(0x1000), gen1);
    EXPECT_EQ(m.generation_of(0x3000), gen3);
    EXPECT_EQ(m.read32(0x2010), 0xdeadbeefu);
    EXPECT_EQ(m.read32(0x2014), 0u); // the rest of the page is zero
    EXPECT_EQ(m.read32(0x1010), 0u); // neighbours still read the zero page
    EXPECT_EQ(m.read32(0x3010), 0u);
    EXPECT_NE(m.page_view(0x2000).data, m.page_view(0x1000).data);

    m.write8(0x2011, 0x11); // already materialised: no new storage
    EXPECT_EQ(m.pages_materialised(), 1u);
    m.raw_write8(0x3000, 0x7f); // raw writer
    EXPECT_EQ(m.pages_materialised(), 2u);
    EXPECT_EQ(m.raw_read8(0x3000), 0x7f);
    EXPECT_EQ(m.mapped_pages().size(), 3u);
}

TEST(DemandZero, UnmapThenMapReadsZeroAgain) {
    Memory m;
    m.map(0x1000, 0x1000, Perm::RW);
    m.raw_write32(0x1100, 0x12345678);
    const std::uint64_t before = m.generation_of(0x1000);
    m.unmap(0x1000, 0x1000);
    m.map(0x1000, 0x1000, Perm::RW);
    EXPECT_GT(m.generation_of(0x1000), before);
    EXPECT_EQ(m.raw_read32(0x1100), 0u);
    EXPECT_EQ(m.pages_materialised(), 1u); // counts over the memory's lifetime
    m.raw_write8(0x1100, 1);
    EXPECT_EQ(m.pages_materialised(), 2u);
}

TEST(DemandZero, RangeWrappingPast4GiBIsRejected) {
    Memory m;
    EXPECT_THROW(m.map(0xfffff000, 0x2000, Perm::RW), swsec::Error);
    EXPECT_TRUE(m.mapped_pages().empty());
    m.map(0xfffff000, 0x1000, Perm::RW); // ends exactly at 2^32: fine
    EXPECT_TRUE(m.is_mapped(0xffffffff));
    EXPECT_THROW(m.protect(0xfffff000, 0x2000, Perm::R), swsec::Error);
    EXPECT_THROW(m.unmap(0xfffff000, 0x2000), swsec::Error);
    EXPECT_EQ(m.perms_at(0xfffff000), Perm::RW);
    EXPECT_EQ(m.mapped_pages().size(), 1u);
}

// --- Machine semantics ---------------------------------------------------------

struct Runner {
    swsec::fault::FaultInjector no_faults; // an empty plan: never fires
    Machine m;

    /// `observed` attaches the empty fault plan, which keeps the machine on
    /// the observed loop (decode cache on) without changing what it does.
    explicit Runner(MachineOptions opts = {}, bool observed = false) : m(opts) {
        m.memory().map(0x1000, 0x1000, Perm::RX);
        m.memory().map(0x8000, 0x1000, Perm::RW); // data
        m.memory().map(0xf000, 0x1000, Perm::RW); // stack
        m.set_ip(0x1000);
        m.set_sp(0xff00);
        if (observed) {
            m.set_fault_injector(&no_faults);
        }
    }

    RunResult run(const Encoder& e, std::uint64_t max_steps = 10000) {
        // Re-map code as writable for loading, then as the test's RX.
        m.memory().protect(0x1000, 0x1000, Perm::RW);
        m.memory().raw_write(0x1000, e.bytes());
        m.memory().protect(0x1000, 0x1000, Perm::RX);
        return m.run(max_steps);
    }
};

/// The three ways a machine executes a program: the default (the unobserved
/// loop, decode cache on), the observed loop throughout (an empty fault
/// plan attached), and the observed loop fetching every instruction through
/// Machine::fetch (decode cache off).  Both loops share one set of handler bodies, so the
/// A/B and cache on/off oracles compare a handler with itself; these
/// absolute expectations, asserted under each configuration, are what
/// catch a wrong opcode.
struct EngineConfig {
    const char* name;
    MachineOptions opts;
    bool observed = false;
};

std::vector<EngineConfig> engine_configs(MachineOptions base = {}) {
    MachineOptions uncached = base;
    uncached.decode_cache = false;
    return {{"default", base}, {"observed", base, true}, {"decode_cache=false", uncached}};
}

TEST(Machine, ArithmeticAndFlags) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R0, 10);
    e.reg_imm32(Op::MovI, Reg::R1, 3);
    e.reg_reg(Op::Sub, Reg::R0, Reg::R1); // 7
    e.reg_imm32(Op::MulI, Reg::R0, 6);    // 42
    e.none(Op::Halt);
    for (const EngineConfig& c : engine_configs()) {
        SCOPED_TRACE(c.name);
        Runner r(c.opts, c.observed);
        const auto res = r.run(e);
        EXPECT_EQ(res.trap.kind, TrapKind::Halted);
        EXPECT_EQ(r.m.reg(Reg::R0), 42u);
    }
}

TEST(Machine, SignedDivisionAndRemainder) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R0, -17);
    e.reg_imm32(Op::MovI, Reg::R1, 5);
    e.reg_reg(Op::Rems, Reg::R0, Reg::R1); // -17 % 5 = -2
    e.none(Op::Halt);
    for (const EngineConfig& c : engine_configs()) {
        SCOPED_TRACE(c.name);
        Runner r(c.opts, c.observed);
        (void)r.run(e);
        EXPECT_EQ(static_cast<std::int32_t>(r.m.reg(Reg::R0)), -2);
    }
}

TEST(Machine, DivideByZeroTraps) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R0, 1);
    e.reg_imm32(Op::MovI, Reg::R1, 0);
    e.reg_reg(Op::Divs, Reg::R0, Reg::R1);
    for (const EngineConfig& c : engine_configs()) {
        SCOPED_TRACE(c.name);
        Runner r(c.opts, c.observed);
        EXPECT_EQ(r.run(e).trap.kind, TrapKind::DivByZero);
    }
}

TEST(Machine, ConditionalBranches) {
    // if (5 < 7) r0 = 1 else r0 = 2, signed and unsigned flavours.
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R1, 5);
    e.reg_imm32(Op::CmpI, Reg::R1, 7);
    const auto jl = e.rel32(Op::Jl, 0);
    e.reg_imm32(Op::MovI, Reg::R0, 2);
    e.none(Op::Halt);
    const auto target = e.size();
    e.reg_imm32(Op::MovI, Reg::R0, 1);
    e.none(Op::Halt);
    e.patch_rel32(jl, target);
    for (const EngineConfig& c : engine_configs()) {
        SCOPED_TRACE(c.name);
        Runner r(c.opts, c.observed);
        (void)r.run(e);
        EXPECT_EQ(r.m.reg(Reg::R0), 1u);
    }
}

TEST(Machine, UnsignedVsSignedComparison) {
    // -1 (0xffffffff) is less than 1 signed, but above 1 unsigned.
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R1, -1);
    e.reg_imm32(Op::CmpI, Reg::R1, 1);
    const auto jb = e.rel32(Op::Jb, 0); // unsigned below: NOT taken
    e.reg_imm32(Op::MovI, Reg::R0, 42);
    e.none(Op::Halt);
    const auto wrong = e.size();
    e.reg_imm32(Op::MovI, Reg::R0, 7);
    e.none(Op::Halt);
    e.patch_rel32(jb, wrong);
    for (const EngineConfig& c : engine_configs()) {
        SCOPED_TRACE(c.name);
        Runner r(c.opts, c.observed);
        (void)r.run(e);
        EXPECT_EQ(r.m.reg(Reg::R0), 42u);
    }
}

TEST(Machine, CallRetAndLeave) {
    Encoder e;
    const auto call = e.rel32(Op::Call, 0);
    e.none(Op::Halt);
    const auto fn = e.size();
    e.reg(Op::Push, Reg::Bp);
    e.reg_reg(Op::MovR, Reg::Bp, Reg::Sp);
    e.reg_imm32(Op::MovI, Reg::R0, 99);
    e.none(Op::Leave);
    e.none(Op::Ret);
    e.patch_rel32(call, fn);
    for (const EngineConfig& c : engine_configs()) {
        SCOPED_TRACE(c.name);
        Runner r(c.opts, c.observed);
        const auto res = r.run(e);
        EXPECT_EQ(res.trap.kind, TrapKind::Halted);
        EXPECT_EQ(r.m.reg(Reg::R0), 99u);
        EXPECT_EQ(r.m.sp(), 0xff00u); // balanced
    }
}

TEST(Machine, LoadStoreByteAndWord) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R1, 0x8000);
    e.reg_imm32(Op::MovI, Reg::R0, 0x11223344);
    e.reg_mem(Op::Store, Reg::R1, Reg::R0, 0); // [r1+0] = r0
    e.reg_mem(Op::Load8, Reg::R2, Reg::R1, 1); // r2 = byte at 0x8001 = 0x33
    e.none(Op::Halt);
    for (const EngineConfig& c : engine_configs()) {
        SCOPED_TRACE(c.name);
        Runner r(c.opts, c.observed);
        (void)r.run(e);
        EXPECT_EQ(r.m.reg(Reg::R2), 0x33u);
        EXPECT_EQ(r.m.memory().raw_read32(0x8000), 0x11223344u);
    }
}

TEST(Machine, DepBlocksFetchFromData) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R0, 0x8000);
    e.reg(Op::JmpR, Reg::R0); // jump into non-executable data
    MachineOptions opts;
    opts.enforce_nx = true;
    for (const EngineConfig& c : engine_configs(opts)) {
        SCOPED_TRACE(c.name);
        Runner r(c.opts, c.observed);
        r.m.memory().raw_write8(0x8000, 0x90);
        const auto res = r.run(e);
        EXPECT_EQ(res.trap.kind, TrapKind::SegvExec);
    }
}

TEST(Machine, WithoutDepDataExecutes) {
    Encoder code;
    code.reg_imm32(Op::MovI, Reg::R0, 0x8000);
    code.reg(Op::JmpR, Reg::R0);
    Encoder data;
    data.reg_imm32(Op::MovI, Reg::R0, 7);
    data.none(Op::Halt);
    for (const EngineConfig& c : engine_configs()) {
        SCOPED_TRACE(c.name);
        Runner r(c.opts, c.observed);
        r.m.memory().protect(0x8000, 0x1000, Perm::RWX);
        r.m.memory().raw_write(0x8000, data.bytes());
        const auto res = r.run(code);
        EXPECT_EQ(res.trap.kind, TrapKind::Halted);
        EXPECT_EQ(r.m.reg(Reg::R0), 7u);
    }
}

TEST(Machine, ShadowStackCatchesReturnHijack) {
    Encoder e;
    const auto call = e.rel32(Op::Call, 0);
    e.reg_imm32(Op::MovI, Reg::R0, 1); // normal return path
    e.none(Op::Halt);
    const auto hijack_target = e.size();
    e.reg_imm32(Op::MovI, Reg::R0, 2); // where the hijacked ret lands
    e.none(Op::Halt);
    const auto fn = e.size();
    // Overwrite the return address on the stack, then ret.
    e.reg_imm32(Op::MovI, Reg::R1, 0x1000 + hijack_target);
    e.reg_mem(Op::Store, Reg::Sp, Reg::R1, 0);
    e.none(Op::Ret);
    e.patch_rel32(call, fn);
    MachineOptions opts;
    opts.hardware_shadow_stack = true;
    for (const EngineConfig& c : engine_configs(opts)) {
        SCOPED_TRACE(c.name);
        Runner r(c.opts, c.observed);
        EXPECT_EQ(r.run(e).trap.kind, TrapKind::ShadowStackViolation);
    }
    // Without the shadow stack the hijack sails through to the target.
    for (const EngineConfig& c : engine_configs()) {
        SCOPED_TRACE(c.name);
        Runner r2(c.opts, c.observed);
        EXPECT_EQ(r2.run(e).trap.kind, TrapKind::Halted);
        EXPECT_EQ(r2.m.reg(Reg::R0), 2u);
    }
}

TEST(Machine, CoarseCfiChecksIndirectTargets) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R0, 0x1040);
    e.reg(Op::CallR, Reg::R0);
    e.none(Op::Halt);
    MachineOptions opts;
    opts.coarse_cfi = true;
    for (const EngineConfig& c : engine_configs(opts)) {
        SCOPED_TRACE(c.name);
        Runner r(c.opts, c.observed);
        r.m.set_cfi_targets({0x1000}); // 0x1040 not approved
        EXPECT_EQ(r.run(e).trap.kind, TrapKind::CfiViolation);

        Runner r2(c.opts, c.observed);
        r2.m.set_cfi_targets({0x1000, 0x1040});
        r2.m.memory().protect(0x1000, 0x1000, Perm::RW);
        r2.m.memory().raw_write8(0x1040, 0x00); // halt at the target
        r2.m.memory().protect(0x1000, 0x1000, Perm::RX);
        EXPECT_EQ(r2.run(e).trap.kind, TrapKind::Halted);
    }
}

TEST(Machine, OutOfGas) {
    Encoder e;
    const auto j = e.rel32(Op::Jmp, 0);
    e.patch_rel32(j, 0); // jmp self
    for (const EngineConfig& c : engine_configs()) {
        SCOPED_TRACE(c.name);
        Runner r(c.opts, c.observed);
        const auto res = r.run(e, 100);
        EXPECT_EQ(res.trap.kind, TrapKind::OutOfGas);
        EXPECT_EQ(res.steps, 100u);
        // Trap provenance names where the budget died: the watchdog reports
        // the address of the first instruction it refused to run, not addr 0.
        EXPECT_EQ(res.trap.addr, 0x1000u);
        EXPECT_NE(res.trap.detail.find("ip="), std::string::npos)
            << "watchdog message should carry the ip: " << res.trap.detail;
    }
}

TEST(Machine, OutOfGasReportsCurrentIpMidProgram) {
    // The same provenance rule when the budget dies mid-straight-line-code:
    // after two retired NOPs a budget of 2 must point at the third.
    Encoder e;
    e.none(Op::Nop);
    e.none(Op::Nop);
    e.none(Op::Nop);
    for (const EngineConfig& c : engine_configs()) {
        SCOPED_TRACE(c.name);
        Runner r(c.opts, c.observed);
        const auto res = r.run(e, 2);
        EXPECT_EQ(res.trap.kind, TrapKind::OutOfGas);
        EXPECT_EQ(res.steps, 2u);
        EXPECT_EQ(res.trap.addr, 0x1002u) << "watchdog should name the next unexecuted instruction";
        EXPECT_EQ(res.trap.ip, 0x1002u);
    }
}

// The budget contract: run(N) retires exactly N instructions for this call —
// the budget is per invocation, not a lifetime watermark against the
// machine's cumulative step counter.
TEST(Machine, RunBudgetIsPerCall) {
    Encoder e;
    const auto j = e.rel32(Op::Jmp, 0);
    e.patch_rel32(j, 0); // jmp self
    for (const EngineConfig& c : engine_configs()) {
        SCOPED_TRACE(c.name);
        Runner r(c.opts, c.observed);
        EXPECT_EQ(r.run(e, 5).trap.kind, TrapKind::OutOfGas);
        EXPECT_EQ(r.m.steps_executed(), 5u);

        // A resumed run gets a fresh budget of 5, not "5 minus what's already
        // on the odometer" (which would be zero and trap instantly).
        r.m.clear_trap();
        const auto res = r.m.run(5);
        EXPECT_EQ(res.trap.kind, TrapKind::OutOfGas);
        EXPECT_EQ(r.m.steps_executed(), 10u) << "second call must retire 5 more";
    }
}

TEST(Machine, RunBudgetSaturatesNearUint64Max) {
    // A huge budget on a machine with steps already on the clock must not
    // wrap around to a tiny one.
    Encoder e;
    e.none(Op::Halt);
    for (const EngineConfig& c : engine_configs()) {
        SCOPED_TRACE(c.name);
        Runner r(c.opts, c.observed);
        (void)r.run(e, 10); // halts after 1 step; odometer now nonzero
        r.m.clear_trap();
        r.m.set_ip(0x1000);
        const auto res = r.m.run(std::numeric_limits<std::uint64_t>::max());
        EXPECT_EQ(res.trap.kind, TrapKind::Halted) << "saturated budget still runs";
    }
}

TEST(Machine, InvalidOpcodeTraps) {
    Encoder e;
    const std::uint8_t junk[] = {0x04};
    e.raw(junk);
    for (const EngineConfig& c : engine_configs()) {
        SCOPED_TRACE(c.name);
        Runner r(c.opts, c.observed);
        EXPECT_EQ(r.run(e).trap.kind, TrapKind::InvalidInstruction);
    }
}

// Machine::fetch owns every fetch trap, and it reads the instruction window
// a page at a time.  Each case jumps to `target` and pins the trap's kind,
// ip, addr and detail at a page edge: a window cut short by an unmapped or
// non-executable page, a one-byte instruction that fits before one, and a
// window that wraps past 2^32 into page 0.
TEST(Machine, FetchAtPageBoundariesTrapsExactly) {
    const std::vector<std::uint8_t> movi_head = {static_cast<std::uint8_t>(Op::MovI), 0};
    struct Case {
        const char* name;
        bool nx;
        std::uint32_t target;
        std::vector<std::uint8_t> bytes; // written at target
        std::uint32_t extra_page;        // mapped with extra_perms, 0 = none
        Perm extra_perms;
        TrapKind kind;
        std::uint32_t ip;
        std::uint32_t addr;
        const char* detail;
    };
    const std::vector<Case> cases = {
        {"straddles into an unmapped page", false, 0x1ffe, movi_head, 0, Perm::None,
         TrapKind::SegvExec, 0x1ffe, 0x2000, "instruction crosses fetch-protected boundary"},
        {"straddles into a non-X page under DEP", true, 0x1ffe, movi_head, 0x2000, Perm::RW,
         TrapKind::SegvExec, 0x1ffe, 0x2000, "instruction crosses fetch-protected boundary"},
        {"one byte on the page's last byte", false, 0x1fff,
         {static_cast<std::uint8_t>(Op::Halt)}, 0, Perm::None, TrapKind::Halted, 0x1fff, 0, ""},
        {"undecodable opcode", false, 0x1800, {0x04}, 0, Perm::None,
         TrapKind::InvalidInstruction, 0x1800, 0x1800, "byte 0x04"},
        {"unmapped ip", false, 0x5000, {}, 0, Perm::None, TrapKind::SegvExec, 0x5000, 0x5000,
         "fetch fault"},
        {"non-X page under DEP", true, 0x8000, {static_cast<std::uint8_t>(Op::Nop)}, 0,
         Perm::None, TrapKind::SegvExec, 0x8000, 0x8000, "fetch from non-executable memory (DEP)"},
        {"tail wraps to an unmapped page 0", false, 0xfffffffe, movi_head, 0xfffff000, Perm::RX,
         TrapKind::SegvExec, 0xfffffffe, 0, "instruction crosses fetch-protected boundary"},
    };
    for (const Case& k : cases) {
        SCOPED_TRACE(k.name);
        Encoder e;
        e.reg_imm32(Op::MovI, Reg::R0, static_cast<std::int32_t>(k.target));
        e.reg(Op::JmpR, Reg::R0);
        MachineOptions opts;
        opts.enforce_nx = k.nx;
        for (const EngineConfig& c : engine_configs(opts)) {
            SCOPED_TRACE(c.name);
            Runner r(c.opts, c.observed);
            if (k.extra_page != 0) {
                r.m.memory().map(k.extra_page, 0x1000, k.extra_perms);
            }
            if (!k.bytes.empty()) {
                r.m.memory().raw_write(k.target, k.bytes);
            }
            const auto res = r.run(e);
            EXPECT_EQ(res.trap.kind, k.kind);
            EXPECT_EQ(res.trap.ip, k.ip);
            EXPECT_EQ(res.trap.addr, k.addr);
            EXPECT_EQ(res.trap.detail, k.detail);
        }
    }
    // A window that wraps into a mapped page 0 decodes across 2^32, and the
    // machine runs on from the wrapped ip.
    const std::vector<std::uint8_t> wrapped_movi = {static_cast<std::uint8_t>(Op::MovI), 0, 7};
    for (const EngineConfig& c : engine_configs()) {
        SCOPED_TRACE(c.name);
        Runner r(c.opts, c.observed);
        r.m.memory().map(0xfffff000, 0x1000, Perm::RX);
        r.m.memory().map(0, 0x1000, Perm::RX);
        // movi r0, 7: the immediate's upper three bytes are page 0's zeros.
        r.m.memory().raw_write(0xfffffffd, wrapped_movi);
        r.m.memory().raw_write8(3, static_cast<std::uint8_t>(Op::Halt));
        Encoder e;
        e.reg_imm32(Op::MovI, Reg::R0, static_cast<std::int32_t>(0xfffffffd));
        e.reg(Op::JmpR, Reg::R0);
        const auto res = r.run(e);
        EXPECT_EQ(res.trap.kind, TrapKind::Halted);
        EXPECT_EQ(res.trap.ip, 3u);
        EXPECT_EQ(r.m.reg(Reg::R0), 7u);
    }
}

TEST(Machine, UnhandledSyscallTraps) {
    Encoder e;
    e.imm8(Op::Sys, 99);
    for (const EngineConfig& c : engine_configs()) {
        SCOPED_TRACE(c.name);
        Runner r(c.opts, c.observed); // no syscall handler attached
        EXPECT_EQ(r.run(e).trap.kind, TrapKind::BadSyscall);
    }
}

// --- PMA rules at machine level ---------------------------------------------

struct PmaRunner : Runner {
    int idx;

    PmaRunner() {
        m.memory().map(0x40000000, 0x1000, Perm::RX); // module code
        m.memory().map(0x48000000, 0x1000, Perm::RW); // module data
        ProtectedModule mod;
        mod.name = "mod";
        mod.code_base = 0x40000000;
        mod.code_size = 0x1000;
        mod.data_base = 0x48000000;
        mod.data_size = 0x1000;
        mod.entry_points = {0x40000000};
        idx = m.add_protected_module(mod);
    }

    void write_module_code(const Encoder& e) {
        m.memory().protect(0x40000000, 0x1000, Perm::RW);
        m.memory().raw_write(0x40000000, e.bytes());
        m.memory().protect(0x40000000, 0x1000, Perm::RX);
    }
};

TEST(PmaMachine, OutsideReadOfModuleDataTraps) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R1, 0x48000000);
    e.reg_mem(Op::Load, Reg::R0, Reg::R1, 0);
    PmaRunner r;
    EXPECT_EQ(r.run(e).trap.kind, TrapKind::PmaViolation);
}

TEST(PmaMachine, OutsideWriteOfModuleDataTraps) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R1, 0x48000000);
    e.reg_imm32(Op::MovI, Reg::R0, 1);
    e.reg_mem(Op::Store, Reg::R1, Reg::R0, 0);
    PmaRunner r;
    EXPECT_EQ(r.run(e).trap.kind, TrapKind::PmaViolation);
}

TEST(PmaMachine, OutsideReadOfModuleCodeTraps) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R1, 0x40000000);
    e.reg_mem(Op::Load, Reg::R0, Reg::R1, 0);
    PmaRunner r;
    EXPECT_EQ(r.run(e).trap.kind, TrapKind::PmaViolation);
}

TEST(PmaMachine, EntryPointTransitionWorks) {
    // Jump to the designated entry; module reads/writes its data; leaves.
    Encoder host;
    host.reg_imm32(Op::MovI, Reg::R0, 0x40000000);
    host.reg(Op::JmpR, Reg::R0);

    Encoder module;
    module.reg_imm32(Op::MovI, Reg::R1, 0x48000000);
    module.reg_imm32(Op::MovI, Reg::R0, 123);
    module.reg_mem(Op::Store, Reg::R1, Reg::R0, 0); // own data: allowed
    module.reg_mem(Op::Load, Reg::R2, Reg::R1, 0);
    module.none(Op::Halt);

    PmaRunner r;
    r.write_module_code(module);
    const auto res = r.run(host);
    EXPECT_EQ(res.trap.kind, TrapKind::Halted);
    EXPECT_EQ(r.m.reg(Reg::R2), 123u);
    EXPECT_EQ(r.m.current_module(), r.idx);
}

TEST(PmaMachine, NonEntryJumpTraps) {
    Encoder host;
    host.reg_imm32(Op::MovI, Reg::R0, 0x40000004); // past the entry point
    host.reg(Op::JmpR, Reg::R0);
    PmaRunner r;
    Encoder module;
    module.none(Op::Nop);
    module.none(Op::Nop);
    module.none(Op::Nop);
    module.none(Op::Nop);
    module.none(Op::Halt);
    r.write_module_code(module);
    EXPECT_EQ(r.run(host).trap.kind, TrapKind::PmaViolation);
}

TEST(PmaMachine, ModuleDataIsNotExecutable) {
    Encoder host;
    host.reg_imm32(Op::MovI, Reg::R0, 0x48000000);
    host.reg(Op::JmpR, Reg::R0);
    PmaRunner r;
    EXPECT_EQ(r.run(host).trap.kind, TrapKind::PmaViolation);
}

TEST(PmaMachine, SecondModuleIsMutuallyDistrusted) {
    // Module A (executing) may not touch module B's data: rule 1 applies
    // between modules, not just module-vs-unprotected.
    PmaRunner r;
    r.m.memory().map(0x60000000, 0x1000, Perm::RX);
    r.m.memory().map(0x68000000, 0x1000, Perm::RW);
    ProtectedModule b;
    b.code_base = 0x60000000;
    b.code_size = 0x1000;
    b.data_base = 0x68000000;
    b.data_size = 0x1000;
    b.entry_points = {0x60000000};
    r.m.add_protected_module(b);

    Encoder module_a;
    module_a.reg_imm32(Op::MovI, Reg::R1, 0x68000000); // module B's data
    module_a.reg_mem(Op::Load, Reg::R0, Reg::R1, 0);
    module_a.none(Op::Halt);
    r.write_module_code(module_a);

    Encoder host;
    host.reg_imm32(Op::MovI, Reg::R0, 0x40000000);
    host.reg(Op::JmpR, Reg::R0);
    EXPECT_EQ(r.run(host).trap.kind, TrapKind::PmaViolation);
}

TEST(PmaMachine, KernelAccessRespectsModules) {
    PmaRunner r;
    std::uint32_t v = 0;
    EXPECT_FALSE(r.m.kernel_read32(0x48000000, v));
    EXPECT_FALSE(r.m.kernel_write32(0x48000000, 1));
    EXPECT_FALSE(r.m.kernel_read32(0x40000000, v));
    EXPECT_TRUE(r.m.kernel_read32(0x8000, v)); // unprotected: fine
    EXPECT_TRUE(r.m.kernel_write32(0x8000, 5));
    EXPECT_TRUE(r.m.kernel_read32(0x8000, v));
    EXPECT_EQ(v, 5u);
    EXPECT_FALSE(r.m.kernel_read32(0x7f000000, v)); // unmapped
}

TEST(Machine, KernelWriteIsAllOrNothing) {
    // A word straddling the end of mapped memory must be refused without
    // touching any byte — the old byte-at-a-time path wrote bytes 0-1
    // before discovering byte 2 was unmapped (a torn kernel write).
    Machine m;
    m.memory().map(0x1000, 0x1000, Perm::RW);
    m.memory().raw_write32(0x1ffc, 0xa1b2c3d4);
    EXPECT_FALSE(m.kernel_write32(0x1ffe, 0x11223344)); // crosses into unmapped
    EXPECT_EQ(m.memory().raw_read32(0x1ffc), 0xa1b2c3d4u) << "partial write leaked";
    // A word straddling into a protected module is refused the same way.
    ProtectedModule mod;
    mod.code_base = 0x2000;
    mod.code_size = 0x1000;
    mod.data_base = 0x3000;
    mod.data_size = 0x1000;
    Machine pm;
    pm.memory().map(0x1000, 0x3000, Perm::RW);
    pm.add_protected_module(mod);
    pm.memory().raw_write32(0x1ffc, 0xa1b2c3d4);
    EXPECT_FALSE(pm.kernel_write32(0x1ffe, 0x11223344));
    EXPECT_EQ(pm.memory().raw_read32(0x1ffc), 0xa1b2c3d4u) << "partial write leaked";
}

} // namespace
