// Shadow-memory redzone sanitizer tests (DESIGN.md §15).
//
// sanitize_address is the DEPLOYABLE sibling of memcheck: redzone state
// lives in a shadow region of the guest address space, enforcement happens
// in compiled check sequences and kernel syscall interceptors, and the
// machine itself never consults the shadow.  These tests pin the four
// contracts that make it sound: (1) the codegen's duplicated shadow
// constants match the VM's, (2) benign programs are byte-identical and
// trap-free under instrumentation (false-positive freedom), (3) the
// spatial/temporal blind spots it closes actually trap — including through
// the libc memcpy/memset/strcpy paths and the allocator's quarantine —
// and (4) the tier-2 engine executes sanitized images without skipping a
// check.
#include <gtest/gtest.h>

#include "cc/compiler.hpp"
#include "os/process.hpp"
#include "trace/trace.hpp"
#include "vm/memory.hpp"

namespace {

using namespace swsec;
using os::Process;
using os::SecurityProfile;

cc::CompilerOptions asan_copts() {
    cc::CompilerOptions o;
    o.sanitize_address = true;
    return o;
}

SecurityProfile asan_profile() {
    SecurityProfile p;
    p.sanitize_address = true;
    return p;
}

Process make_process(const std::string& src, bool sanitized,
                     std::uint64_t seed = 13) {
    const auto copts = sanitized ? asan_copts() : cc::CompilerOptions::none();
    const auto prof = sanitized ? asan_profile() : SecurityProfile::none();
    return Process(cc::compile_program({src}, copts), prof, seed);
}

vm::Trap run_sanitized(const std::string& src, std::string* out = nullptr,
                       const std::string& input = {}) {
    Process p = make_process(src, /*sanitized=*/true);
    if (!input.empty()) {
        p.feed_input(input);
    }
    const auto r = p.run();
    if (out != nullptr) {
        *out = p.output();
    }
    return r.trap;
}

// --- (1) constant sync: codegen vs vm ---------------------------------------

TEST(Sanitizer, CodegenShadowConstantsMatchVm) {
    // cc/ cannot include vm headers, so codegen duplicates the shadow base
    // and shift numerically.  This probe compiles an instrumented store and
    // checks the emitted sequence against the authoritative vm constants —
    // if either side drifts, this fails before any behavioural test would.
    const std::string asm_text = cc::compile_to_asm(
        "int main() { char b[4]; b[0] = 1; return b[0]; }", asan_copts(), "u0");
    EXPECT_NE(asm_text.find("shr r6, " + std::to_string(vm::kShadowShift)),
              std::string::npos)
        << asm_text;
    EXPECT_NE(asm_text.find("add r6, " + std::to_string(vm::kShadowBase)),
              std::string::npos)
        << asm_text;
    // Uninstrumented builds must carry no trace of the shadow sequence.
    const std::string plain = cc::compile_to_asm(
        "int main() { char b[4]; b[0] = 1; return b[0]; }", {}, "u0");
    EXPECT_EQ(plain.find("asan"), std::string::npos);
}

// --- (2) false-positive freedom ---------------------------------------------

TEST(Sanitizer, BenignProgramsAreCleanAndByteIdentical) {
    // The fuzz harness extends this over 2000 generated seeds (the
    // "sanitize" defense rides oracle 1); these are the hand-written
    // anchors covering every instrumented construct: stack arrays, string
    // libc, the allocator round-trip, globals and I/O through the
    // interceptors.
    const std::vector<std::pair<std::string, std::string>> programs = {
        {R"(
            int g = 41;
            int tab[4];
            int main() {
              char b[16];
              strcpy(b, "hello");
              tab[3] = g + 1;
              print_int(tab[3]);
              puts(b);
              return 0;
            }
        )",
         ""},
        {R"(
            int main() {
              char* p = malloc(24);
              memset(p, 65, 24);
              char* q = malloc(8);
              memcpy(q, p, 8);
              write(1, q, 8);
              free(q);
              free(p);
              puts("");
              return 0;
            }
        )",
         ""},
        {R"(
            int main() {
              char b[32];
              int n = read(0, b, 32);
              write(1, b, n);
              return 0;
            }
        )",
         "twelve bytes"},
    };
    for (const auto& [src, input] : programs) {
        Process plain = make_process(src, /*sanitized=*/false);
        Process san = make_process(src, /*sanitized=*/true);
        if (!input.empty()) {
            plain.feed_input(input);
            san.feed_input(input);
        }
        const auto rp = plain.run();
        const auto rs = san.run();
        EXPECT_EQ(rp.trap.kind, vm::TrapKind::Exit) << rp.trap.to_string();
        EXPECT_EQ(rs.trap.kind, vm::TrapKind::Exit) << rs.trap.to_string();
        EXPECT_EQ(rp.trap.code, rs.trap.code);
        EXPECT_EQ(plain.output(), san.output())
            << "instrumentation must not change observable output";
    }
}

// --- (3) the blind spots trap ------------------------------------------------

TEST(Sanitizer, MemcpySpanningStackRedzoneTraps) {
    // The libc memcpy is compiled with the same options as user code, so
    // its byte-store loop carries the shadow check: copying 12 bytes into
    // an 8-byte array must trap ON the redzone byte, before the neighbour
    // is touched.  Reverting the Assign-path instrumentation (or the frame
    // red zones) makes this run to a clean exit.
    const vm::Trap t = run_sanitized(R"(
        int main() {
          char a[8];
          char b[16];
          memset(b, 66, 12);
          memcpy(a, b, 12);   /* 12 > 8: crosses a's red zone */
          return 0;
        }
    )");
    EXPECT_EQ(t.kind, vm::TrapKind::PoisonedAccess) << t.to_string();
    EXPECT_EQ(t.origin, trace::CheckOrigin::AddressSanitizer);
}

TEST(Sanitizer, StrcpyOverflowTraps) {
    const vm::Trap t = run_sanitized(R"(
        int main() {
          char a[4];
          strcpy(a, "overflowing!");
          return 0;
        }
    )");
    EXPECT_EQ(t.kind, vm::TrapKind::PoisonedAccess) << t.to_string();
    EXPECT_EQ(t.origin, trace::CheckOrigin::AddressSanitizer);
}

TEST(Sanitizer, MemsetHeapOverflowTraps) {
    const vm::Trap t = run_sanitized(R"(
        int main() {
          char* p = malloc(16);
          memset(p, 0, 20);   /* 4 bytes into the tail red zone */
          return 0;
        }
    )");
    EXPECT_EQ(t.kind, vm::TrapKind::PoisonedAccess) << t.to_string();
    EXPECT_EQ(t.origin, trace::CheckOrigin::AddressSanitizer);
}

TEST(Sanitizer, UseAfterFreeReadTrapsEvenAfterReallocation) {
    // The allocator must quarantine under the sanitizer and re-poison the
    // FULL user region: if free() recycled the chunk (quarantine gating
    // reverted) the stale q[1] read would alias the fresh allocation and
    // return attacker bytes with a clean exit — exactly the heap_uaf_read
    // matrix row's blind spot.
    const vm::Trap t = run_sanitized(R"(
        int main() {
          char* p = malloc(12);
          int* q = (int*)p;
          q[1] = 7;
          free(p);
          char* r = malloc(12);
          read(0, r, 12);
          return q[1];        /* stale read through the freed chunk */
        }
    )",
                                     nullptr, "AAAABBBBCCCC");
    EXPECT_EQ(t.kind, vm::TrapKind::PoisonedAccess) << t.to_string();
    EXPECT_EQ(t.origin, trace::CheckOrigin::AddressSanitizer);
}

TEST(Sanitizer, GlobalRedzoneTraps) {
    // Globals are bracketed by .redzone directives the loader poisons:
    // indexing 16 bytes past one global lands in the inter-global zone,
    // not silently in its neighbour.
    const vm::Trap t = run_sanitized(R"(
        int g = 1;
        int h = 2;
        int main() {
          int* p = &g;
          return p[4];        /* g+16: inside the inter-global red zone */
        }
    )");
    EXPECT_EQ(t.kind, vm::TrapKind::PoisonedAccess) << t.to_string();
    EXPECT_EQ(t.origin, trace::CheckOrigin::AddressSanitizer);
}

TEST(Sanitizer, RetAddrZoneCatchesHoppingStore) {
    // The prologue poisons the saved-bp/ret-addr slots ([bp+0, bp+8)): a
    // computed store that hops every local and red zone still traps.  With
    // b as f's first local under sanitize, b+28 is exactly bp+4.
    const vm::Trap t = run_sanitized(R"(
        int f() {
          char b[8];
          int* w = (int*)(b + 28);
          *w = 7;             /* direct hit on the return address */
          return 0;
        }
        int main() { return f(); }
    )");
    EXPECT_EQ(t.kind, vm::TrapKind::PoisonedAccess) << t.to_string();
    EXPECT_EQ(t.origin, trace::CheckOrigin::AddressSanitizer);
}

TEST(Sanitizer, ReadInterceptorStopsOverlongDelivery) {
    // ASan libc-interceptor analogue: the kernel validates the delivered
    // range BEFORE copying, so not a single byte lands past the zone.
    Process p = make_process(R"(
        int main() {
          char b[8];
          read(0, b, 32);     /* would straddle b's red zone */
          return 0;
        }
    )",
                             /*sanitized=*/true);
    p.feed_input(std::string(32, 'A'));
    const auto r = p.run();
    EXPECT_EQ(r.trap.kind, vm::TrapKind::PoisonedAccess) << r.trap.to_string();
    EXPECT_GT(p.kernel().sanitizer_stats().interceptor_traps, 0u);
}

TEST(Sanitizer, KernelStatsCountShadowTraffic) {
    Process p = make_process(R"(
        int main() {
          char* p = malloc(16);
          read(0, p, 16);
          write(1, p, 16);
          free(p);
          return 0;
        }
    )",
                             /*sanitized=*/true);
    p.feed_input(std::string(16, 'x'));
    const auto r = p.run();
    EXPECT_EQ(r.trap.kind, vm::TrapKind::Exit) << r.trap.to_string();
    const os::KernelSanitizerStats& s = p.kernel().sanitizer_stats();
    EXPECT_GT(s.shadow_poisons, 0u) << "malloc's red zones must hit the shadow";
    EXPECT_GT(s.shadow_unpoisons, 0u) << "frame/zone cleanup must hit the shadow";
    EXPECT_GT(s.interceptor_checks, 0u) << "read/write must pre-check buffers";
    EXPECT_EQ(s.interceptor_traps, 0u) << "benign I/O must not trap";
}

// --- (4) tier-2 engine interaction -------------------------------------------

TEST(Sanitizer, SanitizedImageRunsOnTier2WithIdenticalBehaviour) {
    // The compiled checks are ordinary instructions: the fast engine must
    // keep executing sanitized images (no silent demotion) AND agree with
    // tier 1 on output and trap — both for a benign run and for a run that
    // trips a shadow check.  An empty fault plan keeps the tier-1 side on
    // the observed loop with the decode cache on; it never fires.
    const std::string benign = R"(
        int main() {
          int acc = 0;
          int i = 0;
          char b[16];
          while (i < 200) { b[i & 7] = (char)i; acc = acc + b[i & 7]; i = i + 1; }
          print_int(acc);
          return 0;
        }
    )";
    const std::string trapping = R"(
        int main() {
          char a[8];
          char b[16];
          memcpy(a, b, 12);
          return 0;
        }
    )";
    for (const std::string& src : {benign, trapping}) {
        const auto img = cc::compile_program({src}, asan_copts());
        SecurityProfile fast = asan_profile();
        SecurityProfile slow = asan_profile();
        fault::FaultInjector no_faults;
        slow.fault_injector = &no_faults;
        Process a(img, fast, 13);
        Process b(img, slow, 13);
        const auto ra = a.run();
        const auto rb = b.run();
        EXPECT_EQ(ra.trap.kind, rb.trap.kind) << ra.trap.to_string();
        EXPECT_EQ(ra.trap.code, rb.trap.code);
        EXPECT_EQ(ra.trap.addr, rb.trap.addr);
        EXPECT_EQ(a.output(), b.output());
        EXPECT_EQ(a.machine().steps_executed(), b.machine().steps_executed());
        EXPECT_GT(a.machine().dispatch_stats().tier2_entries, 0u)
            << "sanitized image must not demote tier 2";
        EXPECT_EQ(b.machine().dispatch_stats().tier2_entries, 0u);
    }
}

} // namespace
