// Capability machine tests (Section IV-A, CHERI [21]): code is limited by
// the capabilities it holds; capabilities shrink monotonically; integers
// cannot be forged into pointers.
#include <gtest/gtest.h>

#include "capability/capability.hpp"
#include "isa/encoder.hpp"

namespace {

using namespace swsec::capability;
using swsec::vm::TrapKind;

const std::vector<std::uint32_t> kData = {10, 20, 30, 40, 50, 60, 70, 80};

TEST(Capability, InBoundsAccessWorks) {
    const auto r = run_with_capability(make_summer_code(8), kData);
    ASSERT_TRUE(r.ok()) << r.trap.to_string();
    EXPECT_EQ(r.result, 360u);
}

TEST(Capability, PartialSumWithinBounds) {
    const auto r = run_with_capability(make_summer_code(3), kData);
    ASSERT_TRUE(r.ok()) << r.trap.to_string();
    EXPECT_EQ(r.result, 60u);
}

TEST(Capability, OutOfBoundsAccessTraps) {
    const auto r = run_with_capability(make_summer_code(9), kData);
    EXPECT_EQ(r.trap.kind, TrapKind::CapViolation) << r.trap.to_string();
}

class CapSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CapSweep, ExactBoundaryIsEnforced) {
    // Property: summing n words succeeds iff n <= |capability| / 4.
    const std::uint32_t n = GetParam();
    const auto r = run_with_capability(make_summer_code(n), kData);
    if (n <= kData.size()) {
        EXPECT_TRUE(r.ok()) << "n=" << n << ": " << r.trap.to_string();
    } else {
        EXPECT_EQ(r.trap.kind, TrapKind::CapViolation) << "n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Boundary, CapSweep,
                         ::testing::Values(0, 1, 7, 8, 9, 10, 16, 100));

TEST(Capability, PointerForgingIsImpossible) {
    // The code knows the data's absolute address but holds no capability
    // path to it: a plain load traps in pure-capability mode.
    const auto r = run_with_capability(make_forge_code(0x00020000), kData);
    EXPECT_EQ(r.trap.kind, TrapKind::CapViolation) << r.trap.to_string();
}

TEST(Capability, CannotGrowACapability) {
    const auto r = run_with_capability(make_grow_code(8 * 4 + 64), kData);
    EXPECT_EQ(r.trap.kind, TrapKind::CapViolation) << r.trap.to_string();
}

TEST(Capability, MonotonicShrinkWorks) {
    // Shrink to the word at offset 12 and read it.
    const auto r = run_with_capability(make_shrink_and_read_code(12, 4), kData);
    ASSERT_TRUE(r.ok()) << r.trap.to_string();
    EXPECT_EQ(r.result, 40u);
}

TEST(Capability, ShrunkCapabilityCannotReachOldRange) {
    // After shrinking to [12, 16), reading past 4 bytes traps even though
    // the original capability covered it.
    const auto r = run_with_capability(make_shrink_and_read_code(12, 0), kData);
    EXPECT_EQ(r.trap.kind, TrapKind::CapViolation);
}

TEST(Capability, WritePermissionIsChecked) {
    // A read-only capability refuses CSTORE: build a tiny writer.
    swsec::isa::Encoder e;
    using swsec::isa::Op;
    using swsec::isa::Reg;
    e.reg_imm32(Op::MovI, Reg::R1, 0);
    e.reg_imm32(Op::MovI, Reg::R0, 99);
    e.reg_imm8(Op::CStore, Reg::R0, 0x01); // cap 0, offset reg r1
    e.none(Op::Halt);
    const auto code = e.take();
    const auto ro = run_with_capability(code, kData, swsec::vm::Perm::R);
    EXPECT_EQ(ro.trap.kind, TrapKind::CapViolation);
    const auto rw = run_with_capability(code, kData, swsec::vm::Perm::RW);
    EXPECT_TRUE(rw.ok()) << rw.trap.to_string();
}

TEST(Capability, OffsetRegisterBeyondTheRegisterFileTraps) {
    // The offset-register field is four bits wide but the machine has ten
    // registers: naming r10-r15 is an invalid instruction, not a read of
    // whatever follows the register file.
    using swsec::isa::Op;
    using swsec::isa::Reg;
    for (const Op op : {Op::CLoad, Op::CStore, Op::CSetB}) {
        swsec::isa::Encoder e;
        e.reg_imm8(op, Reg::R0, 0x0f); // cap 0, offset "register" 15
        e.none(Op::Halt);
        const auto r = run_with_capability(e.take(), kData, swsec::vm::Perm::RW);
        EXPECT_EQ(r.trap.kind, TrapKind::InvalidInstruction) << r.trap.to_string();
        EXPECT_EQ(r.trap.detail, "capability operand names no register");
    }
}

TEST(Capability, UntaggedCapabilityIsDead) {
    // A capability with a cleared tag grants nothing, whatever its fields.
    swsec::isa::Encoder e;
    using swsec::isa::Op;
    using swsec::isa::Reg;
    e.reg_imm32(Op::MovI, Reg::R1, 0);
    e.reg_imm8(Op::CLoad, Reg::R0, 0x11); // cap 1 (never granted), off r1
    e.none(Op::Halt);
    const auto r = run_with_capability(e.take(), kData);
    EXPECT_EQ(r.trap.kind, TrapKind::CapViolation);
}

} // namespace

// Appended: CJMP (capability-mediated control transfer) coverage.
namespace {
TEST(Capability, CJmpThroughExecutableCapability) {
    using swsec::isa::Encoder;
    using swsec::isa::Op;
    using swsec::isa::Reg;
    // Code at base: cjmp through cap 1 -> lands on the "halt with r0=7" isle.
    Encoder main_code;
    main_code.imm8(Op::CJmp, 0x01); // jump to cap 1's base
    Encoder isle;
    isle.reg_imm32(Op::MovI, Reg::R0, 7);
    isle.none(Op::Halt);

    swsec::vm::MachineOptions opts;
    opts.capability_mode = true;
    opts.pure_capability = true;
    swsec::vm::Machine m(opts);
    m.memory().map(0x1000, 0x1000, swsec::vm::Perm::RX);
    m.memory().raw_write(0x1000, main_code.bytes());
    m.memory().map(0x3000, 0x1000, swsec::vm::Perm::RX);
    m.memory().raw_write(0x3000, isle.bytes());

    swsec::vm::Capability code_cap;
    code_cap.base = 0x3000;
    code_cap.length = 0x100;
    code_cap.perms = swsec::vm::Perm::RX;
    code_cap.tag = true;
    m.set_capability(1, code_cap);
    m.set_ip(0x1000);
    const auto r = m.run(100);
    EXPECT_EQ(r.trap.kind, swsec::vm::TrapKind::Halted) << r.trap.to_string();
    EXPECT_EQ(m.reg(swsec::isa::Reg::R0), 7u);
}

TEST(Capability, CJmpThroughDataCapabilityTraps) {
    using swsec::isa::Encoder;
    using swsec::isa::Op;
    Encoder main_code;
    main_code.imm8(Op::CJmp, 0x01);
    swsec::vm::MachineOptions opts;
    opts.capability_mode = true;
    swsec::vm::Machine m(opts);
    m.memory().map(0x1000, 0x1000, swsec::vm::Perm::RX);
    m.memory().raw_write(0x1000, main_code.bytes());
    swsec::vm::Capability data_cap;
    data_cap.base = 0x3000;
    data_cap.length = 0x100;
    data_cap.perms = swsec::vm::Perm::RW; // no X
    data_cap.tag = true;
    m.set_capability(1, data_cap);
    m.set_ip(0x1000);
    EXPECT_EQ(m.run(100).trap.kind, swsec::vm::TrapKind::CapViolation);
}
} // namespace
