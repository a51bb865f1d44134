// Per-page instruction predecode (QEMU-style, von Neumann safe).
//
// Fetching an instruction byte by byte through per-byte permission checks
// (Machine::fetch) is the reference, and the slow path.  This cache decodes
// each (page, offset) pair at most once per page *generation* into a flat
// array of `FastOp`s, the one predecoded form both dispatch policies of the
// engine (vm/engine_fast.cpp, DESIGN.md §13) execute from, while keeping
// the paper's self-modifying attacks honest:
//
//  * Keyed by generation, not by "code is read-only".  Memory bumps a
//    page's generation on every write (checked, raw or fault-injected),
//    protect and remap, so injected shellcode, DEP flips and MemBitFlip
//    faults invalidate the predecoded stream precisely.  Stale-cache
//    execution would silently falsify the attack matrix.
//  * Every byte offset is cacheable, not just "intended" instruction
//    starts: ROP executes the same bytes at skewed offsets (unintended
//    gadgets), so the array has one slot per page offset, built lazily;
//    invalidation resets only the slots built at the dead generation.
//  * Anything irregular — offsets within kMaxInsnLength-1 of the page end
//    (the instruction may straddle into a page with different perms or no
//    mapping), bytes that do not decode, unmapped pages, missing R/X
//    permission — falls back to the machine's slow fetch path, which is the
//    single source of truth for trap kinds and details.  The cache only
//    ever serves instructions the slow path would have fetched identically.
//
// A `FastOp` has its register operands resolved to raw indices, immediates
// widened and the next IP pre-added, and hot instruction pairs are fused
// into superinstructions (cmp+jcc, push/push/call, load+arith).  The
// unobserved loop dispatches a fused slot whole; the observed loop executes
// only its head instruction.  A fused entry can never outlive a byte of the
// code it was fused from, because the generation key guards it.  The array
// stays flat (4096 entries, indexed by page offset): an index indirection
// on the dispatch path cost the unobserved loop more than it saved in
// zeroing.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "isa/isa.hpp"
#include "vm/memory.hpp"

namespace swsec::vm {

class FastEngine;

// The handler vocabulary.  The X-macro keeps the enum, the computed goto
// label table and the switch fallback in engine_fast.cpp in the same order
// by construction — a new handler added here fails to compile until the
// engine implements it.  `Unbuilt` must stay first (zero-initialised FastOp
// slots mean "not yet built at this generation") and `Slow` second (bytes
// only Machine::fetch may fetch: a page tail or an undecodable opcode).
#define SWSEC_FAST_HANDLERS(X)                                                                     \
    X(Unbuilt)                                                                                     \
    X(Slow)                                                                                        \
    X(Halt)                                                                                        \
    X(Nop)                                                                                         \
    X(Push)                                                                                        \
    X(PushI)                                                                                       \
    X(Pop)                                                                                         \
    X(MovI)                                                                                        \
    X(MovR)                                                                                        \
    X(Load)                                                                                        \
    X(Load8)                                                                                       \
    X(Store)                                                                                       \
    X(Store8)                                                                                      \
    X(Lea)                                                                                         \
    X(Add)                                                                                         \
    X(AddI)                                                                                        \
    X(Sub)                                                                                         \
    X(SubI)                                                                                        \
    X(Mul)                                                                                         \
    X(MulI)                                                                                        \
    X(Divs)                                                                                        \
    X(Rems)                                                                                        \
    X(And)                                                                                         \
    X(AndI)                                                                                        \
    X(Or)                                                                                          \
    X(OrI)                                                                                         \
    X(Xor)                                                                                         \
    X(XorI)                                                                                        \
    X(ShlI)                                                                                        \
    X(ShrI)                                                                                        \
    X(SarI)                                                                                        \
    X(Shl)                                                                                         \
    X(Shr)                                                                                         \
    X(Sar)                                                                                         \
    X(Not)                                                                                         \
    X(Neg)                                                                                         \
    X(Cmp)                                                                                         \
    X(CmpI)                                                                                        \
    X(Test)                                                                                        \
    X(Jmp)                                                                                         \
    X(Jcc)                                                                                         \
    X(Call)                                                                                        \
    X(CallR)                                                                                       \
    X(JmpR)                                                                                        \
    X(Ret)                                                                                         \
    X(Leave)                                                                                       \
    X(Sys)                                                                                         \
    X(CLoad)                                                                                       \
    X(CStore)                                                                                      \
    X(CJmp)                                                                                        \
    X(CSetB)                                                                                       \
    X(FusedCmpJcc)                                                                                 \
    X(FusedCmpIJcc)                                                                                \
    X(FusedPushPushCall)                                                                           \
    X(FusedPushCall)                                                                               \
    X(FusedLoadAdd)                                                                                \
    X(FusedLoadAddI)                                                                               \
    X(FusedLoadPush)                                                                               \
    X(FusedMovIPop)                                                                                \
    X(FusedLeaveRet)

enum class FastHandler : std::uint8_t {
#define SWSEC_FAST_ENUM(name) name,
    SWSEC_FAST_HANDLERS(SWSEC_FAST_ENUM)
#undef SWSEC_FAST_ENUM
        Count
};

/// Branch condition of a Jcc / fused cmp+jcc entry (FastOp::c).
enum class FastCond : std::uint8_t { Z, Nz, L, Ge, G, Le, B, Ae };

/// One dispatch unit: either a single pre-decoded instruction or a fused
/// superinstruction (its handler knows how many instructions it retires).
/// Operand registers are raw indices (no enum casts on the hot path), and
/// `next` is the absolute IP after the *whole* sequence.  `opcode` and
/// `len` describe the head instruction alone: the observed loop executes
/// only the head of a fused slot, and its `insn` trace events name the
/// opcode.  Every field of an unbuilt slot is zero, so a page's array
/// starts as one zero fill.
struct FastOp {
    FastHandler h = FastHandler::Unbuilt;
    std::uint8_t a = 0; // first register operand
    std::uint8_t b = 0; // second register operand
    std::uint8_t c = 0; // third register / FastCond
    std::uint8_t d = 0; // fourth register (fused load+alu source)
    std::uint8_t opcode = 0; // head instruction's opcode byte
    std::uint8_t len = 0;    // head instruction's encoded length
    std::int32_t imm = 0;
    std::int32_t imm2 = 0;  // second immediate / absolute taken-branch target
    std::uint32_t next = 0; // absolute IP after the sequence
};
static_assert(sizeof(FastOp) == 20, "FastOp is the page array's element: keep it 20 bytes");

/// The unfused FastOp for `insn` fetched at `addr`.  The decode cache builds
/// its slots from it, and the observed loop builds one per step from
/// Machine::fetch when the cache is off.
[[nodiscard]] FastOp fast_op_from(const isa::Insn& insn, std::uint32_t addr) noexcept;

class DecodeCache {
public:
    /// Drop every cached page (the generation check makes this unnecessary
    /// for correctness; exposed for tests and memory pressure).
    void clear() noexcept;

    /// Handle to one page's fast-op array, generation-synced at creation.
    /// `ops` stays valid until the page is unmapped (impossible from inside
    /// the dispatch loop: only syscalls and the host unmap, and both exit
    /// it); `bytes` only while the page keeps `generation` (a first write
    /// moves a demand-zero page onto its own storage).  A *mutation* of the
    /// page is detected by comparing the live page generation against
    /// `generation` before dispatch.
    struct FastPageRef {
        std::array<FastOp, kPageSize>* ops = nullptr;
        const std::uint8_t* bytes = nullptr;
        std::uint64_t generation = 0;
        std::uint32_t base = 0; // page base address
        // Offsets built at this generation; invalidation resets exactly
        // these slots instead of sweeping the whole 80 KiB array (stack
        // shellcode stores into its own page on nearly every instruction,
        // so invalidation cost must scale with ops built, not page size).
        std::vector<std::uint16_t>* built = nullptr;
    };

    /// Resolve the fast stream for the page containing `addr`.  `need` is
    /// the permission set fetching requires (R, or R|X under DEP).  Returns
    /// a null-ops ref when the page is unmapped or lacks `need` — the slow
    /// fetch then reports the precise trap.
    [[nodiscard]] FastPageRef fast_page(const Memory& mem, std::uint32_t addr, Perm need);

    /// Build the fast op at `off` (page-relative) in a ref returned by
    /// fast_page, fusing with following instructions when a hot pattern
    /// matches.  Marks the slot FastHandler::Slow when the bytes do not
    /// decode or the offset may straddle the page end.
    void build_fast(const FastPageRef& ref, std::uint32_t off);

    // --- statistics (tests + benches) --------------------------------------
    [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
    [[nodiscard]] std::uint64_t decodes() const noexcept { return decodes_; }
    [[nodiscard]] std::uint64_t invalidations() const noexcept { return invalidations_; }
    /// Superinstructions materialized into page entries (not retirements;
    /// the machine's DispatchStats counts those).
    [[nodiscard]] std::uint64_t fused_built() const noexcept { return fused_built_; }

private:
    // The engine credits hits_ for every instruction it dispatches from a
    // built slot.
    friend class FastEngine;

    struct PageEntry {
        std::uint64_t generation = 0;
        // Lazily allocated on the page's first fast_page() touch.
        std::unique_ptr<std::array<FastOp, kPageSize>> ops;
        std::vector<std::uint16_t> built; // slots to reset on invalidation
    };

    [[nodiscard]] PageEntry* entry_for(std::uint32_t page_index);
    void sync_generation(PageEntry& e, std::uint64_t generation) noexcept;

    // Node-based map: entries keep their address while the MRU points at one.
    std::unordered_map<std::uint32_t, PageEntry> pages_;
    // One-entry MRU: straight-line execution stays within a page.
    std::uint32_t mru_index_ = 0xffffffff;
    PageEntry* mru_ = nullptr;

    std::uint64_t hits_ = 0;
    std::uint64_t decodes_ = 0;
    std::uint64_t invalidations_ = 0;
    std::uint64_t fused_built_ = 0;
};

} // namespace swsec::vm
