// The observability layer: ring-buffer mechanics, trap provenance, and the
// equivalence oracles that make the trace trustworthy — the event stream is
// part of the machine's observable semantics, so it must be byte-identical
// across the decode cache on/off and across serial vs parallel sweeps, and
// bit-for-bit reproducible for a fixed seed (including under injected
// faults).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/matrix.hpp"
#include "core/trace_scenarios.hpp"
#include "trace/trace.hpp"

namespace {

using namespace swsec;
using core::run_trace_scenario;
using core::TraceScenarioOptions;

// --- Tracer mechanics -------------------------------------------------------

TEST(Tracer, CountersTallyPerEventKind) {
    trace::Tracer t;
    t.record({trace::EventKind::InsnRetired, 0, 0, -1, false, trace::CheckOrigin::None, 0, 0, 0, {}});
    t.record({trace::EventKind::InsnRetired, 1, 0, -1, false, trace::CheckOrigin::None, 0, 0, 0, {}});
    t.record({trace::EventKind::TrapRaised, 2, 0, -1, false, trace::CheckOrigin::Dep, 0, 0, 0, {}});
    t.record({trace::EventKind::MemFault, 2, 0, -1, true, trace::CheckOrigin::Pma, 0, 0, 0, {}});
    t.record({trace::EventKind::SyscallEnter, 3, 0, -1, false, trace::CheckOrigin::None, 1, 0, 0, {}});
    t.record({trace::EventKind::FaultInjected, 4, 0, -1, false, trace::CheckOrigin::FaultInjector, 0, 0, 0, {}});
    t.record({trace::EventKind::HeapAlloc, 5, 0, -1, true, trace::CheckOrigin::None, 0, 0, 0, {}});
    t.record({trace::EventKind::HeapFree, 6, 0, -1, true, trace::CheckOrigin::None, 0, 0, 0, {}});
    t.record({trace::EventKind::PmaEnter, 7, 0, 0, false, trace::CheckOrigin::None, 0, 0, 0, {}});

    const trace::Counters& c = t.counters();
    EXPECT_EQ(c.instructions, 2u);
    EXPECT_EQ(c.traps, 1u);
    EXPECT_EQ(c.mem_faults, 1u);
    EXPECT_EQ(c.syscalls, 1u);
    EXPECT_EQ(c.faults_injected, 1u);
    EXPECT_EQ(c.heap_allocs, 1u);
    EXPECT_EQ(c.heap_frees, 1u);
    EXPECT_EQ(c.pma_transitions, 1u);
    EXPECT_EQ(t.total_recorded(), 9u);
    EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, RingDropsOldestWhenFull) {
    trace::Tracer t(4); // tiny ring
    for (std::uint64_t i = 0; i < 10; ++i) {
        t.record({trace::EventKind::InsnRetired, i, 0, -1, false,
                  trace::CheckOrigin::None, 0, 0, 0, {}});
    }
    EXPECT_EQ(t.total_recorded(), 10u);
    EXPECT_EQ(t.dropped(), 6u);
    const auto evs = t.events();
    ASSERT_EQ(evs.size(), 4u);
    // Oldest-first: the survivors are the last four records.
    EXPECT_EQ(evs.front().step, 6u);
    EXPECT_EQ(evs.back().step, 9u);
    // Counters are not subject to the ring: all 10 counted.
    EXPECT_EQ(t.counters().instructions, 10u);
}

TEST(Tracer, JsonlEscapesAndFixedKeyOrder) {
    trace::Tracer t;
    t.record({trace::EventKind::TrapRaised, 7, 0x08049000, 2, true,
              trace::CheckOrigin::Canary, 3, 0xdeadbeef, 0x10, "say \"hi\"\n"});
    EXPECT_EQ(t.to_jsonl(),
              "{\"event\":\"trap\",\"step\":7,\"pc\":\"0x08049000\",\"module\":2,"
              "\"mode\":\"kernel\",\"origin\":\"canary\",\"code\":3,"
              "\"a\":\"0xdeadbeef\",\"b\":\"0x00000010\","
              "\"detail\":\"say \\\"hi\\\"\\n\"}\n");
}

// --- Trap provenance: which check fired, where, in which mode ---------------

struct Provenance {
    const char* scenario;
    trace::CheckOrigin origin;
    bool kernel; // mode of the final trap
};

// gtest's default printer dumps the struct's bytes, pointer included, so the
// listed names (and the ctest names discovered from them) would change with
// every load address. The scenario name is stable.
void PrintTo(const Provenance& p, std::ostream* os) { *os << p.scenario; }

class TraceProvenance : public ::testing::TestWithParam<Provenance> {};

TEST_P(TraceProvenance, FinalTrapNamesTheCheckThatFired) {
    const auto& p = GetParam();
    const auto run = run_trace_scenario(p.scenario);
    EXPECT_FALSE(run.outcome.succeeded) << p.scenario;
    EXPECT_EQ(run.outcome.trap.origin, p.origin) << p.scenario;
    EXPECT_EQ(run.outcome.trap.kernel, p.kernel) << p.scenario;
    // The provenance string is the human-readable form of the same facts.
    EXPECT_NE(run.outcome.trap.provenance().find(
                  std::string("origin=") + trace::check_origin_name(p.origin)),
              std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, TraceProvenance,
    ::testing::Values(
        // The canary check aborts via the kernel's abort syscall: kernel mode.
        Provenance{"canary", trace::CheckOrigin::Canary, true},
        // DEP/shadow-stack/CFI/memcheck/PMA trap in the machine: user mode.
        Provenance{"dep", trace::CheckOrigin::Dep, false},
        Provenance{"shadow-stack", trace::CheckOrigin::ShadowStack, false},
        Provenance{"cfi", trace::CheckOrigin::Cfi, false},
        Provenance{"memcheck", trace::CheckOrigin::Memcheck, false},
        Provenance{"pma", trace::CheckOrigin::Pma, false},
        // SFI is a load-time verifier: no trap kind, origin only.
        Provenance{"sfi", trace::CheckOrigin::Sfi, false},
        Provenance{"fault", trace::CheckOrigin::FaultInjector, false}),
    [](const auto& info) {
        std::string n = info.param.scenario;
        for (auto& ch : n) {
            if (ch == '-') ch = '_';
        }
        return n;
    });

TEST(TraceProvenanceDetail, BaselineSucceedsWithNoCheckFiring) {
    const auto run = run_trace_scenario("baseline");
    EXPECT_TRUE(run.outcome.succeeded);
    EXPECT_EQ(run.outcome.trap.origin, trace::CheckOrigin::None);
}

TEST(TraceProvenanceDetail, CanaryTrapIsAttributedToKernelMode) {
    // The abort syscall runs the kernel's handler: the TrapRaised event must
    // carry mode=kernel while the surrounding sys-enter/exit stay user.
    const auto run = run_trace_scenario("canary");
    EXPECT_NE(run.events_jsonl.find("\"event\":\"trap\",") , std::string::npos);
    EXPECT_NE(run.events_jsonl.find("\"mode\":\"kernel\",\"origin\":\"canary\""),
              std::string::npos);
    EXPECT_NE(run.events_jsonl.find("\"detail\":\"abort\""), std::string::npos);
}

TEST(TraceProvenanceDetail, PmaSceneRecordsKernelProbeAsMemFault) {
    // The pma scenario ends with a privileged read of module data — denied,
    // and recorded as a kernel-mode mem-fault with pma origin.
    const auto run = run_trace_scenario("pma");
    EXPECT_NE(run.events_jsonl.find(
                  "\"event\":\"mem-fault\""), std::string::npos);
    EXPECT_NE(run.events_jsonl.find("\"mode\":\"kernel\",\"origin\":\"pma\""),
              std::string::npos);
    EXPECT_EQ(run.counters.mem_faults, 1u);
}

TEST(TraceProvenanceDetail, SfiViolationsBecomeSyntheticTrapEvents) {
    const auto run = run_trace_scenario("sfi");
    EXPECT_EQ(run.outcome.trap.kind, vm::TrapKind::None); // nothing executed
    EXPECT_GE(run.counters.traps, 2u); // unmasked store + raw syscall
    EXPECT_NE(run.events_jsonl.find("\"origin\":\"sfi\""), std::string::npos);
    EXPECT_NE(run.events_jsonl.find("unmasked store"), std::string::npos);
    EXPECT_NE(run.outcome.note.find("sfi verifier rejected"), std::string::npos);
}

TEST(TraceProvenanceDetail, FaultScenarioRecordsInjectionBeforeTrap) {
    const auto run = run_trace_scenario("fault");
    EXPECT_EQ(run.counters.faults_injected, 1u);
    const auto inj = run.events_jsonl.find("\"event\":\"fault-injected\"");
    const auto trap = run.events_jsonl.find("\"event\":\"trap\"");
    ASSERT_NE(inj, std::string::npos);
    ASSERT_NE(trap, std::string::npos);
    EXPECT_LT(inj, trap); // injection recorded before its consequence
    EXPECT_NE(run.events_jsonl.find("\"detail\":\"power cut\""), std::string::npos);
}

// --- Equivalence oracles ----------------------------------------------------

// The decode cache is a pure performance device: with it off the trace must
// not change by a single byte.  (Cache hit tallies live in Counters, which
// are deliberately outside the event stream.)  Both streams must also equal
// a committed golden: with cache on and off running the same handler
// bodies, only a golden catches a change that moves both sides at once,
// such as a trap event numbered one step late.  A golden changes only with
// an intended change of the event stream: `swsec trace <scenario>
// --trace-out tests/golden/trace/<scenario>.jsonl`.
TEST(TraceEquivalence, DecodeCacheOnOffTracesAreByteIdentical) {
    for (const std::string& scenario : core::trace_scenario_names()) {
        const std::filesystem::path golden =
            std::filesystem::path(SWSEC_TRACE_GOLDEN_DIR) / (scenario + ".jsonl");
        std::ifstream in(golden, std::ios::binary);
        ASSERT_TRUE(in) << "missing golden " << golden;
        std::ostringstream expected;
        expected << in.rdbuf();
        TraceScenarioOptions on;
        TraceScenarioOptions off;
        off.decode_cache = false;
        const auto a = run_trace_scenario(scenario, on);
        const auto b = run_trace_scenario(scenario, off);
        EXPECT_EQ(a.events_jsonl, b.events_jsonl) << scenario;
        EXPECT_EQ(a.counters.instructions, b.counters.instructions) << scenario;
        EXPECT_EQ(a.events_jsonl, expected.str()) << scenario << " differs from " << golden;
    }
}

// A fixed seed pins the whole trace — including the run where a fault is
// injected, which is exactly when reproducibility matters most.
TEST(TraceEquivalence, SameSeedReproducesTraceBitForBit) {
    for (const char* scenario : {"canary", "fault"}) {
        const auto a = run_trace_scenario(scenario);
        const auto b = run_trace_scenario(scenario);
        EXPECT_EQ(a.events_jsonl, b.events_jsonl) << scenario;
        EXPECT_EQ(a.counters.summary(), b.counters.summary()) << scenario;
    }
}

TEST(TraceEquivalence, DifferentSeedChangesAslrBackedTraces) {
    // Sanity check that the oracle has teeth: under ASLR a different victim
    // seed shifts addresses, so the trace differs.
    TraceScenarioOptions other;
    other.victim_seed = 7777;
    const auto a = run_trace_scenario("memcheck");
    const auto b = run_trace_scenario("memcheck", other);
    EXPECT_EQ(a.counters.instructions, b.counters.instructions);
    EXPECT_EQ(b.outcome.trap.origin, trace::CheckOrigin::Memcheck);
}

// Serial and parallel sweeps must serialise the same provenance JSONL:
// cells are handed out by index and merged by index, so --jobs never
// reorders or alters a byte.
TEST(TraceEquivalence, MatrixProvenanceSerialVsJobs4Identical) {
    const auto serial = core::matrix_cells_jsonl(core::run_matrix(1001, 2002, 1));
    const auto parallel = core::matrix_cells_jsonl(core::run_matrix(1001, 2002, 4));
    EXPECT_EQ(serial, parallel);
    // And the stream carries real provenance, not placeholders.
    EXPECT_NE(serial.find("\"origin\":\"canary\""), std::string::npos);
    EXPECT_NE(serial.find("\"origin\":\"dep\""), std::string::npos);
    EXPECT_NE(serial.find("\"origin\":\"shadow-stack\""), std::string::npos);
    EXPECT_NE(serial.find("\"origin\":\"cfi\""), std::string::npos);
}

} // namespace
