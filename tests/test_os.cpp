// OS substrate tests: loader placement, W^X policy, ASLR behaviour, kernel
// I/O channels, sbrk, syscall tracing, and the runtime allocator.
#include <gtest/gtest.h>

#include "cc/compiler.hpp"
#include "common/error.hpp"
#include "core/image_cache.hpp"
#include "core/scenarios.hpp"
#include "os/loader.hpp"
#include "os/process.hpp"

namespace {

using namespace swsec;
using cc::CompilerOptions;
using os::Process;
using os::SecurityProfile;

const char* kTrivial = "int main() { return 0; }";

TEST(Loader, DefaultLayoutMatchesFig1) {
    Process p(cc::compile_program({kTrivial}, {}), SecurityProfile::none(), 1);
    EXPECT_EQ(p.layout().text_base, os::kDefaultTextBase);
    EXPECT_EQ(p.layout().data_base, os::kDefaultDataBase);
    EXPECT_EQ(p.layout().stack_high, os::kDefaultStackTop);
    EXPECT_GT(p.layout().text_size, 0u);
}

TEST(Loader, DepSetsWxPermissions) {
    SecurityProfile prof;
    prof.dep = true;
    Process p(cc::compile_program({kTrivial}, {}), prof, 1);
    const auto& mem = p.machine().memory();
    EXPECT_EQ(mem.perms_at(p.layout().text_base), vm::Perm::RX);
    EXPECT_EQ(mem.perms_at(p.layout().data_base), vm::Perm::RW);
    EXPECT_EQ(mem.perms_at(p.layout().stack_low), vm::Perm::RW);
    EXPECT_TRUE(p.machine().options().enforce_nx);
}

TEST(Loader, WithoutDepEverythingIsWritableAndExecutable) {
    Process p(cc::compile_program({kTrivial}, {}), SecurityProfile::none(), 1);
    const auto& mem = p.machine().memory();
    EXPECT_EQ(mem.perms_at(p.layout().text_base), vm::Perm::RWX);
    EXPECT_EQ(mem.perms_at(p.layout().stack_low), vm::Perm::RWX);
}

TEST(Loader, AslrRandomisesSegmentsPerSeed) {
    SecurityProfile prof;
    prof.aslr = true;
    const auto img = cc::compile_program({kTrivial}, {});
    Process a(img, prof, 1);
    Process b(img, prof, 2);
    Process c(img, prof, 1); // same seed -> same layout
    EXPECT_NE(a.layout().text_base, b.layout().text_base);
    EXPECT_EQ(a.layout().text_base, c.layout().text_base);
    EXPECT_EQ(a.layout().text_base % vm::kPageSize, 0u);
    // Segments are randomised independently.
    EXPECT_NE(a.layout().text_base - os::kDefaultTextBase,
              a.layout().data_base - os::kDefaultDataBase);
}

TEST(Loader, AslrProgramsStillRun) {
    SecurityProfile prof;
    prof.aslr = true;
    prof.dep = true;
    for (const std::uint64_t seed : {1ULL, 99ULL, 31337ULL}) {
        Process p(cc::compile_program({R"(
            int main() { char b[8]; int n = read(0, b, 7); write(1, b, n); return n; }
        )"},
                                      {}),
                  prof, seed);
        p.feed_input("ok!");
        const auto r = p.run();
        EXPECT_TRUE(r.exited(3)) << "seed " << seed << ": " << r.trap.to_string();
        EXPECT_EQ(p.output(), "ok!");
    }
}

TEST(Loader, DisjointLayoutCheckRejectsCraftedOverlap) {
    // A layout whose stack extent covers the text pages must be refused:
    // loading it would let stack growth silently overwrite code.
    os::ProcessLayout layout;
    layout.text_base = 0x08048000;
    layout.text_size = 0x1000;
    layout.data_base = 0x0a000000;
    layout.data_size = 0x1000;
    layout.heap_base = 0x0a002000;
    layout.stack_high = 0x08049000; // [stack_high - 64 KiB, 0x08049000) ∋ text
    try {
        os::assert_disjoint_layout(layout, 64 * 1024);
        FAIL() << "overlapping layout was accepted";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("collision"), std::string::npos);
    }
}

TEST(Loader, DisjointLayoutCheckAcceptsDefaultLayout) {
    Process p(cc::compile_program({kTrivial}, {}), SecurityProfile::none(), 1);
    EXPECT_NO_THROW(os::assert_disjoint_layout(p.layout(), os::kDefaultStackSize));
}

TEST(Loader, MaxEntropyAslrNeverProducesOverlappingSegments) {
    // Property: at the maximum supported entropy, every seed either loads
    // with pairwise-disjoint segments or is refused with a collision error —
    // never a silent overlap.  (Segment offsets are drawn independently, so
    // collisions are genuinely possible at 14 bits; the loader's
    // post-randomization assertion is what turns them into clean failures.)
    SecurityProfile prof;
    prof.aslr = true;
    prof.aslr_entropy_bits = os::kMaxAslrEntropyBits;
    const auto img = cc::compile_program({kTrivial}, {});
    int loaded = 0;
    int refused = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        try {
            Process p(img, prof, seed);
            ++loaded;
            const auto& lo = p.layout();
            // Re-check disjointness with the loader's own oracle plus a
            // direct spot check of the classic failure mode.
            EXPECT_NO_THROW(os::assert_disjoint_layout(lo, os::kDefaultStackSize));
            EXPECT_FALSE(lo.in_text(lo.stack_high - 4)) << "seed " << seed;
            EXPECT_FALSE(lo.in_stack(lo.text_base)) << "seed " << seed;
        } catch (const Error& e) {
            ++refused;
            EXPECT_NE(std::string(e.what()).find("collision"), std::string::npos)
                << "seed " << seed << " failed for a non-layout reason: " << e.what();
        }
    }
    // The vast majority of seeds must still load — refusal is the rare
    // collision path, not the common case.
    EXPECT_GT(loaded, refused * 4) << loaded << " loaded vs " << refused << " refused";
}

TEST(Loader, EntropyAboveMaxIsClamped) {
    SecurityProfile prof;
    prof.aslr = true;
    prof.aslr_entropy_bits = 31; // absurd request; loader clamps to kMax
    const auto img = cc::compile_program({kTrivial}, {});
    SecurityProfile clamped = prof;
    clamped.aslr_entropy_bits = os::kMaxAslrEntropyBits;
    Process a(img, prof, 42);
    Process b(img, clamped, 42);
    EXPECT_EQ(a.layout().text_base, b.layout().text_base);
    EXPECT_EQ(a.layout().stack_high, b.layout().stack_high);
}

TEST(Loader, WrappingDataExtentIsRejected) {
    // A hostile image's bss can push the data segment's extent past 2^32,
    // where 32-bit arithmetic wraps it back below its base.  Loading must
    // fail closed with swsec::Error, never map its way through the space.
    for (const std::uint32_t bss : {0xfffff000u, 0xf7f00000u, 0x10000000u}) {
        SCOPED_TRACE(bss);
        objfmt::Image img = cc::compile_program({"int main() { return 7; }"}, {});
        img.bss_size = bss;
        EXPECT_THROW(Process(img, SecurityProfile::none(), 1), Error);
        SecurityProfile aslr;
        aslr.aslr = true;
        EXPECT_THROW(Process(img, aslr, 1), Error);
    }
}

TEST(Loader, FreshProcessMaterialisesOnlyImagePages) {
    // Demand-zero birth: every segment is mapped, but only the pages the
    // loader wrote (text and initialised data) own storage.
    const objfmt::Image img =
        cc::compile_program({core::scenarios::fig1_server(32)}, CompilerOptions::none());
    const Process p(img, SecurityProfile::none(), 1);
    const vm::Memory& mem = p.machine().memory();
    const os::ProcessLayout& l = p.layout();
    const auto pages_covering = [](std::uint32_t base, std::size_t size) -> std::uint64_t {
        return size == 0 ? 0 : ((base + size - 1) >> vm::kPageShift) - (base >> vm::kPageShift) + 1;
    };
    EXPECT_EQ(mem.mapped_pages().size(), 66u);
    EXPECT_EQ(mem.pages_materialised(),
              pages_covering(l.text_base, img.text.size()) +
                  pages_covering(l.data_base, img.data.size()));
    EXPECT_LT(mem.pages_materialised(), 10u);
}

TEST(Process, SharedImageBirthsIndependentMemory) {
    const auto img = core::cached_compile(kTrivial, {});
    Process a(img, SecurityProfile::none(), 1);
    Process b(img, SecurityProfile::none(), 1);
    EXPECT_EQ(&a.image(), img.get());
    EXPECT_EQ(&b.image(), img.get());
    // Same seed, same layout: a store in one guest is invisible in the other.
    const std::uint32_t text = a.layout().text_base;
    const std::uint32_t original = b.machine().memory().raw_read32(text);
    a.machine().memory().raw_write32(text, ~original);
    EXPECT_EQ(a.machine().memory().raw_read32(text), ~original);
    EXPECT_EQ(b.machine().memory().raw_read32(text), original);
    EXPECT_EQ(img->text[0], static_cast<std::uint8_t>(original & 0xff));
    EXPECT_TRUE(b.run().exited(0));
}

TEST(Kernel, ChannelsAreIndependent) {
    Process p(cc::compile_program({R"(
        int main() {
          char b[8];
          int n = read(3, b, 8);     /* fd 3 */
          write(5, b, n);            /* fd 5 */
          return n;
        }
    )"},
                                  {}),
              SecurityProfile::none(), 1);
    p.feed_input("zzz", /*fd=*/3);
    p.feed_input("ignored", /*fd=*/0);
    const auto r = p.run();
    EXPECT_TRUE(r.exited(3));
    EXPECT_EQ(p.output(5), "zzz");
    EXPECT_TRUE(p.output(1).empty());
}

TEST(Kernel, ReadFromEmptyChannelReturnsZero) {
    EXPECT_TRUE(Process(cc::compile_program({R"(
        int main() { char b[8]; return read(0, b, 8); }
    )"},
                                            {}),
                        SecurityProfile::none(), 1)
                    .run()
                    .exited(0));
}

TEST(Kernel, PartialReads) {
    Process p(cc::compile_program({R"(
        int main() {
          char b[16];
          int first = read(0, b, 4);
          int second = read(0, b, 16);
          return first * 10 + second;
        }
    )"},
                                  {}),
              SecurityProfile::none(), 1);
    p.feed_input("abcdefghij"); // 10 bytes: 4 then 6
    EXPECT_TRUE(p.run().exited(46));
}

TEST(Kernel, SyscallTraceRecordsArguments) {
    Process p(cc::compile_program({R"(
        int main() { char b[4]; read(0, b, 4); return 0; }
    )"},
                                  {}),
              SecurityProfile::none(), 1);
    p.feed_input("hi");
    (void)p.run();
    bool saw_read = false;
    for (const auto& rec : p.kernel().syscall_trace()) {
        if (rec.number == vm::sys_num(vm::Sys::Read)) {
            saw_read = true;
            EXPECT_EQ(rec.args[0], 0u);
            EXPECT_EQ(rec.args[2], 4u);
            EXPECT_TRUE(p.layout().in_stack(rec.args[1]));
        }
    }
    EXPECT_TRUE(saw_read);
}

TEST(Kernel, SbrkGrowsHeap) {
    Process p(cc::compile_program({R"(
        int main() {
          char* a = sbrk(100);
          char* b = sbrk(100);
          if ((int)b - (int)a != 100) { return 1; }
          a[0] = 'x';           /* the new memory is usable */
          a[199] = 'y';
          if (a[0] == 'x' && a[199] == 'y') { return 0; }
          return 2;
        }
    )"},
                                  {}),
              SecurityProfile::none(), 1);
    EXPECT_TRUE(p.run().exited(0));
}

TEST(Kernel, SbrkRefusesShrinkBelowHeapBase) {
    // Moving the break below heap_base and growing it back used to remap
    // the program's own text RW under DEP (and then trap segv-exec on the
    // next fetch).  The shrink is refused and the break stays put.
    SecurityProfile dep;
    dep.dep = true;
    Process p(cc::compile_program({R"(
        int main() {
          int a = (int)sbrk(-134217728);
          int b = (int)sbrk(134217728);
          if (a != -1) { return 1; }
          if (b != -1) { return 2; }
          char* c = sbrk(64);
          if ((int)sbrk(-64) != (int)c + 64) { return 3; }  /* back to the base */
          if ((int)sbrk(-1) != -1) { return 4; }
          return 0;
        }
    )"},
                                  {}),
              dep, 1);
    EXPECT_TRUE(p.run().exited(0)) << p.machine().trap().to_string();
    EXPECT_EQ(p.machine().memory().perms_at(p.layout().text_base), vm::Perm::RX);
    EXPECT_EQ(p.layout().brk, p.layout().heap_base);
}

TEST(Kernel, SbrkOfInt32MinIsRefused) {
    // -INT32_MIN is not an int32: the magnitude must be taken unsigned.
    Process p(cc::compile_program({R"(
        int main() {
          if ((int)sbrk(-2147483647 - 1) != -1) { return 1; }
          char* a = sbrk(16);
          a[15] = 'x';
          return 0;
        }
    )"},
                                  {}),
              SecurityProfile::none(), 1);
    EXPECT_TRUE(p.run().exited(0)) << p.machine().trap().to_string();
    EXPECT_EQ(p.layout().brk, p.layout().heap_base + 16);
}

TEST(Kernel, GetRandomIsSeedDeterministic) {
    const char* src = R"(
        int main() { char b[4]; getrandom(b, 4); write(1, b, 4); return 0; }
    )";
    Process a(cc::compile_program({src}, {}), SecurityProfile::none(), 5);
    Process b(cc::compile_program({src}, {}), SecurityProfile::none(), 5);
    Process c(cc::compile_program({src}, {}), SecurityProfile::none(), 6);
    (void)a.run();
    (void)b.run();
    (void)c.run();
    EXPECT_EQ(a.output_bytes(1), b.output_bytes(1));
    EXPECT_NE(a.output_bytes(1), c.output_bytes(1));
}

TEST(Allocator, ReusesFreedChunks) {
    EXPECT_TRUE(Process(cc::compile_program({R"(
        int main() {
          char* a = malloc(24);
          free(a);
          char* b = malloc(16);     /* first fit: same chunk */
          if (a == b) { return 0; }
          return 1;
        }
    )"},
                                            {}),
                        SecurityProfile::none(), 1)
                    .run()
                    .exited(0));
}

TEST(Allocator, DistinctLiveChunksDontOverlap) {
    EXPECT_TRUE(Process(cc::compile_program({R"(
        int main() {
          char* a = malloc(16);
          char* b = malloc(16);
          memset(a, 1, 16);
          memset(b, 2, 16);
          if (a[15] == 1 && b[0] == 2 && (b - a >= 16 || a - b >= 16)) { return 0; }
          return 1;
        }
    )"},
                                            {}),
                        SecurityProfile::none(), 1)
                    .run()
                    .exited(0));
}

TEST(Allocator, MallocZeroAndNegative) {
    EXPECT_TRUE(Process(cc::compile_program({R"(
        int main() {
          if ((int)malloc(0) != 0) { return 1; }
          if ((int)malloc(-5) != 0) { return 2; }
          free((char*)0);           /* free(NULL) is a no-op */
          return 0;
        }
    )"},
                                            {}),
                        SecurityProfile::none(), 1)
                    .run()
                    .exited(0));
}

TEST(Memcheck, HeapOverflowHitsRedZone) {
    SecurityProfile prof;
    prof.memcheck = true;
    CompilerOptions opts;
    opts.memcheck = true;
    Process p(cc::compile_program({R"(
        int main() {
          char* a = malloc(16);
          a[16] = 'x';            /* one byte past the chunk */
          return 0;
        }
    )"},
                                  opts),
              prof, 1);
    EXPECT_EQ(p.run().trap.kind, vm::TrapKind::PoisonedAccess);
}

TEST(Memcheck, UseAfterFreeDetected) {
    SecurityProfile prof;
    prof.memcheck = true;
    CompilerOptions opts;
    opts.memcheck = true;
    Process p(cc::compile_program({R"(
        int main() {
          char* a = malloc(16);
          free(a);
          return a[0];            /* read through the stale pointer */
        }
    )"},
                                  opts),
              prof, 1);
    EXPECT_EQ(p.run().trap.kind, vm::TrapKind::PoisonedAccess);
}

TEST(Memcheck, StackOverflowHitsRedZone) {
    SecurityProfile prof;
    prof.memcheck = true;
    CompilerOptions opts;
    opts.memcheck = true;
    Process p(cc::compile_program({R"(
        int main() {
          char buf[8];
          int i = 8;              /* one past the end */
          buf[i] = 'x';
          return 0;
        }
    )"},
                                  opts),
              prof, 1);
    EXPECT_EQ(p.run().trap.kind, vm::TrapKind::PoisonedAccess);
}

TEST(Memcheck, CleanProgramRunsFine) {
    SecurityProfile prof;
    prof.memcheck = true;
    CompilerOptions opts;
    opts.memcheck = true;
    Process p(cc::compile_program({R"(
        int main() {
          char buf[8];
          char* h = malloc(8);
          for (int i = 0; i < 8; i = i + 1) { buf[i] = (char)i; h[i] = (char)i; }
          int sum = 0;
          for (int i = 0; i < 8; i = i + 1) { sum = sum + buf[i] + h[i]; }
          free(h);
          return sum;
        }
    )"},
                                  opts),
              prof, 1);
    EXPECT_TRUE(p.run().exited(56));
}

} // namespace

// Appended: heap-metadata poisoning — the chunk header and recycled-chunk
// slack are memcheck-protected, not just user areas and tail red zones.
namespace {

using namespace swsec;
using cc::CompilerOptions;
using os::Process;
using os::SecurityProfile;

vm::Trap memcheck_trap(const std::string& src) {
    SecurityProfile prof;
    prof.memcheck = true;
    CompilerOptions opts;
    opts.memcheck = true;
    Process p(cc::compile_program({src}, opts), prof, 1);
    return p.run().trap;
}

TEST(Memcheck, HeapHeaderUnderflowDetected) {
    // p[-1] reads into the chunk's own 8-byte [size][next] header — the
    // classic 1-byte underflow that red zones at the *tail* never see.
    const vm::Trap t = memcheck_trap(R"(
        int main() {
          char* p = malloc(16);
          return p[-1];
        }
    )");
    EXPECT_EQ(t.kind, vm::TrapKind::PoisonedAccess) << t.to_string();
    EXPECT_EQ(t.origin, trace::CheckOrigin::Memcheck);
}

TEST(Memcheck, NeighbourHeaderSmashDetected) {
    // An indexed write that skips b's predecessor red zone entirely and
    // lands in the next chunk's free-list header: a[32..39] is b's
    // [size][next].  Pre-fix this forged allocator metadata silently.
    const vm::Trap t = memcheck_trap(R"(
        int main() {
          char* a = malloc(16);
          char* b = malloc(16);
          free(b);
          a[36] = 'x';           /* b's header `next` field, red zone skipped */
          return 0;
        }
    )");
    EXPECT_EQ(t.kind, vm::TrapKind::PoisonedAccess) << t.to_string();
    EXPECT_EQ(t.origin, trace::CheckOrigin::Memcheck);
}

TEST(Memcheck, RecycledChunkSlackDetected) {
    // Recycling a 32-byte chunk for a 8-byte request leaves 24 bytes of
    // slack the program does not own; memcheck must keep it poisoned.
    // (The free list only populates when memcheck is off, so this guards
    // the allocator's poison discipline rather than a memcheck-mode path:
    // with memcheck on, the second malloc gets fresh memory whose tail red
    // zone sits exactly where the recycled slack would, and either map
    // traps the out-of-request access.)
    const vm::Trap t = memcheck_trap(R"(
        int main() {
          char* a = malloc(32);
          free(a);
          char* b = malloc(8);
          b[12] = 'x';           /* beyond the 8-byte request */
          return 0;
        }
    )");
    EXPECT_EQ(t.kind, vm::TrapKind::PoisonedAccess) << t.to_string();
    EXPECT_EQ(t.origin, trace::CheckOrigin::Memcheck);
}

TEST(Memcheck, AllocatorOwnAccessesStayClean) {
    // The allocator's unpoison-around-access exemption: malloc/free churn
    // (fresh, recycled and quarantined chunks) raises no false positives.
    SecurityProfile prof;
    prof.memcheck = true;
    CompilerOptions opts;
    opts.memcheck = true;
    Process p(cc::compile_program({R"(
        int main() {
          int sum = 0;
          for (int i = 0; i < 8; i = i + 1) {
            char* p = malloc(8 + i * 4);
            for (int j = 0; j < 8 + i * 4; j = j + 1) { p[j] = (char)j; }
            sum = sum + p[i];
            free(p);
          }
          return sum;
        }
    )"},
                                  opts),
              prof, 1);
    EXPECT_TRUE(p.run().exited(28));
}

} // namespace
