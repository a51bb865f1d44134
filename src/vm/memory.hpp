// Sparse paged memory with per-page permissions and a per-byte poison map.
//
// This models the 32-bit virtual address space of Fig. 1(c): a flat array of
// 2^32 bytes, realised sparsely as 4 KiB pages.  Page permissions (R/W/X)
// are the substrate for the DEP / W^X countermeasure (Section III-C1); the
// poison map is the substrate for the ASan-style run-time checker of
// Section III-C2.
//
// Pages are demand-zero, as a kernel maps anonymous memory: map() records
// only permissions and a generation, and a mapped page's bytes alias one
// shared, read-only zero page until the first write of any kind (checked,
// raw, loader or tier 2) allocates and zeroes the page's own 4 KiB.  Reads
// never branch on this; only writes check.  A process therefore pays for
// the pages it touches, not for the 256 KiB stack it maps.
//
// Two access levels exist:
//  * checked accessors (used by the Machine) honour permissions and poison
//    and report failures via AccessFault so the machine can trap;
//  * raw accessors model *hardware-level* access (the loader writing the
//    process image, the attestation hardware hashing module code).  They
//    throw swsec::Error only for unmapped addresses.
//
// Every page carries a *generation counter*, bumped (from one machine-wide
// monotonic counter) by every mutation that could change what execution at
// an address means: byte/word writes through any access level, permission
// changes and remapping.  The per-page decode cache (decode_cache.hpp) keys
// its predecoded instruction streams on these counters, so self-modifying
// shellcode, DEP flips and fault-injected bit flips invalidate precisely —
// a von Neumann machine cannot assume code is read-only.
#pragma once

#include <bitset>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

namespace swsec::vm {

class FastEngine;

/// Page permission bits (combinable).
enum class Perm : std::uint8_t {
    None = 0,
    R = 1,
    W = 2,
    X = 4,
    RW = R | W,
    RX = R | X,
    RWX = R | W | X,
};

[[nodiscard]] constexpr Perm operator|(Perm a, Perm b) noexcept {
    return static_cast<Perm>(static_cast<std::uint8_t>(a) | static_cast<std::uint8_t>(b));
}
[[nodiscard]] constexpr bool has_perm(Perm set, Perm bit) noexcept {
    return (static_cast<std::uint8_t>(set) & static_cast<std::uint8_t>(bit)) != 0;
}

/// Why a checked access failed.
enum class AccessFault : std::uint8_t {
    None,
    Unmapped,   // no page at this address
    Permission, // page mapped but lacks the needed permission bit
    Poisoned,   // memcheck poison byte touched (red zone / freed memory)
};

inline constexpr std::uint32_t kPageSize = 4096;
inline constexpr std::uint32_t kPageShift = 12;

// --- address-sanitizer shadow region (Section III-C2 deployable variant) ---
//
// Unlike the poison map above (host-side state the Machine consults in
// memcheck mode), the sanitizer's shadow is *ordinary guest RAM*: one shadow
// byte per 4-byte granule, mapped by the loader at kShadowBase and consulted
// only by compiled check sequences and kernel interceptors.  The Machine
// itself never reads it.  With a 4-byte granule every redzone the compiler
// and allocator emit is granule-aligned, so a shadow byte is simply
// 0 = addressable, non-zero = poisoned (no partial-granule encoding).
//
// [kShadowBase, kShadowBase + 2^32/4) shadows the whole address space; the
// loader only materialises the slices that shadow live segments.  The region
// sits far above text/data/heap and far below the stack under every ASLR
// draw (max entropy is 14 bits of 4 KiB pages), so it never collides with a
// segment — asserted at load time.
inline constexpr std::uint32_t kShadowBase = 0x20000000u;
inline constexpr std::uint32_t kShadowShift = 2;
inline constexpr std::uint32_t kShadowGranule = 1u << kShadowShift;

[[nodiscard]] constexpr std::uint32_t shadow_of(std::uint32_t addr) noexcept {
    return kShadowBase + (addr >> kShadowShift);
}

/// Direct, read-only view of one mapped page (fast-path substrate): the
/// backing bytes, the page's permissions and its current generation.  The
/// pointer is invalidated by unmap and by the page's first write (which
/// moves it off the shared zero page); both change the generation, so a
/// pointer is valid for as long as the generation it was read with.
struct PageView {
    const std::uint8_t* data = nullptr;
    Perm perms = Perm::None;
    std::uint64_t generation = 0;

    [[nodiscard]] explicit operator bool() const noexcept { return data != nullptr; }
};

/// Sparse paged physical memory.
class Memory {
public:
    /// Map [addr, addr+size) with the given permissions, rounding outward to
    /// page boundaries.  New pages read as zero and own no storage until
    /// first written.  Remapping an existing page just updates permissions.
    /// The range operations throw swsec::Error for a range that wraps past
    /// 2^32.
    void map(std::uint32_t addr, std::uint32_t size, Perm perms);

    /// Change permissions of already-mapped pages (mprotect analogue).
    void protect(std::uint32_t addr, std::uint32_t size, Perm perms);

    /// Remove pages overlapping [addr, addr+size).
    void unmap(std::uint32_t addr, std::uint32_t size);

    [[nodiscard]] bool is_mapped(std::uint32_t addr) const noexcept;
    [[nodiscard]] Perm perms_at(std::uint32_t addr) const noexcept;

    /// View of the page containing `addr` (null view when unmapped).
    [[nodiscard]] PageView page_view(std::uint32_t addr) const noexcept;
    /// Generation of the page containing `addr`; 0 when unmapped.  Every
    /// mutation (write, protect, map) moves it to a fresh, never-reused
    /// value, so equality means "unchanged since observed".
    [[nodiscard]] std::uint64_t generation_of(std::uint32_t addr) const noexcept;

    // --- checked access (machine level) -------------------------------
    [[nodiscard]] AccessFault check(std::uint32_t addr, std::uint32_t size, Perm need,
                                    bool honour_poison) const noexcept;
    // The read/write helpers assume check() already passed.  A write may
    // allocate the page's storage, so it can throw std::bad_alloc.
    [[nodiscard]] std::uint8_t read8(std::uint32_t addr) const noexcept;
    [[nodiscard]] std::uint32_t read32(std::uint32_t addr) const noexcept;
    void write8(std::uint32_t addr, std::uint8_t v);
    void write32(std::uint32_t addr, std::uint32_t v);

    // --- poison map (memcheck substrate) ------------------------------
    void poison(std::uint32_t addr, std::uint32_t size);
    void unpoison(std::uint32_t addr, std::uint32_t size);
    [[nodiscard]] bool is_poisoned(std::uint32_t addr) const noexcept;

    // --- raw hardware-level access -------------------------------------
    /// Throws swsec::Error when the range touches unmapped memory.
    [[nodiscard]] std::uint8_t raw_read8(std::uint32_t addr) const;
    [[nodiscard]] std::uint32_t raw_read32(std::uint32_t addr) const;
    void raw_write8(std::uint32_t addr, std::uint8_t v);
    void raw_write32(std::uint32_t addr, std::uint32_t v);
    void raw_write(std::uint32_t addr, std::span<const std::uint8_t> data);
    [[nodiscard]] std::vector<std::uint8_t> raw_read(std::uint32_t addr, std::uint32_t len) const;

    /// Addresses of all mapped pages in increasing order (used by the
    /// memory-scraping attacker, which scans whatever exists), whether or
    /// not they have been written yet.
    [[nodiscard]] std::vector<std::uint32_t> mapped_pages() const;

    /// Pages given their own storage by a first write, over this memory's
    /// lifetime (a deterministic work counter: remapping an unmapped page
    /// and writing it again counts again).
    [[nodiscard]] std::uint64_t pages_materialised() const noexcept { return materialised_; }

private:
    // The tier-2 engine (engine_fast.cpp) walks pages directly — same
    // checks as the public accessors, without the per-call page lookup.
    friend class FastEngine;

    struct Page {
        // The page's bytes: the shared zero page until the first write, then
        // `owned`.  Readers use it unconditionally.
        const std::uint8_t* data = nullptr;
        std::unique_ptr<std::uint8_t[]> owned; // null until first written
        Perm perms = Perm::None;
        std::uint64_t generation = 0;
        std::unique_ptr<std::bitset<kPageSize>> poison; // lazily allocated
    };

    [[nodiscard]] Page* page_at(std::uint32_t addr) noexcept;
    [[nodiscard]] const Page* page_at(std::uint32_t addr) const noexcept;
    Page& page_or_throw(std::uint32_t addr);
    [[nodiscard]] const Page& page_or_throw(std::uint32_t addr) const;
    void touch(Page& p) noexcept { p.generation = ++gen_counter_; }
    /// The page's own storage for a write, allocated and zeroed on first use.
    /// The caller bumps the generation (touch) after writing.
    [[nodiscard]] std::uint8_t* writable(Page& p) {
        if (p.owned == nullptr) [[unlikely]] {
            materialise(p);
        }
        return p.owned.get();
    }
    void materialise(Page& p);

    // Node-based map: a Page's address is stable until its unmap, which the
    // lookup cache and the tier-2 engine's code-page pointer rely on.
    std::unordered_map<std::uint32_t, Page> pages_;
    // Machine-wide monotonic mutation counter: generations are never reused,
    // even across an unmap/map cycle of the same page index.
    std::uint64_t gen_counter_ = 0;
    std::uint64_t materialised_ = 0;
    // One-entry lookup cache: page indices are dense in practice.
    mutable std::uint32_t cached_index_ = 0xffffffff;
    mutable Page* cached_page_ = nullptr;
};

} // namespace swsec::vm
