#include "vm/memory.hpp"

#include "common/error.hpp"
#include "common/hexdump.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

namespace swsec::vm {

namespace {
constexpr std::uint32_t page_index(std::uint32_t addr) noexcept { return addr >> kPageShift; }
constexpr std::uint32_t page_offset(std::uint32_t addr) noexcept { return addr & (kPageSize - 1); }

// What every mapped, never-written page reads as.  Nothing writes through
// it: writers go through Memory::writable(), which gives the page its own
// storage first.
alignas(64) constexpr std::uint8_t kZeroPage[kPageSize] = {};

/// Page indices [first, last] of a non-empty range; throws when the range
/// wraps past 2^32 (a wrapped range would otherwise walk almost the whole
/// page table from `first` round to `last`).
std::pair<std::uint32_t, std::uint32_t> page_span(std::uint32_t addr, std::uint32_t size,
                                                  const char* what) {
    if (static_cast<std::uint64_t>(addr) + size > (std::uint64_t{1} << 32)) {
        throw Error(std::string(what) + " range at " + hex32(addr) + " of " +
                    std::to_string(size) + " bytes wraps past 2^32");
    }
    return {page_index(addr), page_index(addr + size - 1)};
}
} // namespace

void Memory::materialise(Page& p) {
    p.owned = std::make_unique<std::uint8_t[]>(kPageSize); // value-initialised: zeroed
    p.data = p.owned.get();
    ++materialised_;
}

Memory::Page* Memory::page_at(std::uint32_t addr) noexcept {
    const std::uint32_t idx = page_index(addr);
    if (idx == cached_index_) {
        return cached_page_;
    }
    const auto it = pages_.find(idx);
    Page* p = (it == pages_.end()) ? nullptr : &it->second;
    cached_index_ = idx;
    cached_page_ = p;
    return p;
}

const Memory::Page* Memory::page_at(std::uint32_t addr) const noexcept {
    return const_cast<Memory*>(this)->page_at(addr);
}

Memory::Page& Memory::page_or_throw(std::uint32_t addr) {
    Page* p = page_at(addr);
    if (p == nullptr) {
        throw Error("access to unmapped memory at " + hex32(addr));
    }
    return *p;
}

const Memory::Page& Memory::page_or_throw(std::uint32_t addr) const {
    return const_cast<Memory*>(this)->page_or_throw(addr);
}

void Memory::map(std::uint32_t addr, std::uint32_t size, Perm perms) {
    if (size == 0) {
        return;
    }
    const auto [first, last] = page_span(addr, size, "map");
    for (std::uint32_t idx = first;; ++idx) {
        Page& p = pages_[idx];
        if (p.data == nullptr) {
            p.data = kZeroPage;
        }
        p.perms = perms;
        touch(p);
        if (idx == last) {
            break;
        }
    }
    cached_index_ = 0xffffffff;
    cached_page_ = nullptr;
}

void Memory::protect(std::uint32_t addr, std::uint32_t size, Perm perms) {
    if (size == 0) {
        return;
    }
    const auto [first, last] = page_span(addr, size, "protect");
    for (std::uint32_t idx = first;; ++idx) {
        const auto it = pages_.find(idx);
        if (it == pages_.end()) {
            throw Error("protect of unmapped page at " + hex32(idx << kPageShift));
        }
        it->second.perms = perms;
        touch(it->second);
        if (idx == last) {
            break;
        }
    }
}

void Memory::unmap(std::uint32_t addr, std::uint32_t size) {
    if (size == 0) {
        return;
    }
    const auto [first, last] = page_span(addr, size, "unmap");
    for (std::uint32_t idx = first;; ++idx) {
        pages_.erase(idx);
        if (idx == last) {
            break;
        }
    }
    cached_index_ = 0xffffffff;
    cached_page_ = nullptr;
}

bool Memory::is_mapped(std::uint32_t addr) const noexcept { return page_at(addr) != nullptr; }

Perm Memory::perms_at(std::uint32_t addr) const noexcept {
    const Page* p = page_at(addr);
    return p ? p->perms : Perm::None;
}

PageView Memory::page_view(std::uint32_t addr) const noexcept {
    const Page* p = page_at(addr);
    if (p == nullptr) {
        return PageView{};
    }
    return PageView{p->data, p->perms, p->generation};
}

std::uint64_t Memory::generation_of(std::uint32_t addr) const noexcept {
    const Page* p = page_at(addr);
    return p ? p->generation : 0;
}

AccessFault Memory::check(std::uint32_t addr, std::uint32_t size, Perm need,
                          bool honour_poison) const noexcept {
    // Page-level walk: one permission test covers every byte the access
    // touches within a page; the per-byte poison scan runs only when the
    // page actually has a poison map.
    std::uint32_t a = addr;
    std::uint32_t remaining = size;
    while (remaining > 0) {
        const Page* p = page_at(a);
        if (p == nullptr) {
            return AccessFault::Unmapped;
        }
        if ((static_cast<std::uint8_t>(p->perms) & static_cast<std::uint8_t>(need)) !=
            static_cast<std::uint8_t>(need)) {
            return AccessFault::Permission;
        }
        const std::uint32_t off = page_offset(a);
        const std::uint32_t chunk = std::min(remaining, kPageSize - off);
        if (honour_poison && p->poison) {
            for (std::uint32_t i = 0; i < chunk; ++i) {
                if (p->poison->test(off + i)) {
                    return AccessFault::Poisoned;
                }
            }
        }
        a += chunk;
        remaining -= chunk;
    }
    return AccessFault::None;
}

std::uint8_t Memory::read8(std::uint32_t addr) const noexcept {
    const Page* p = page_at(addr);
    return p->data[page_offset(addr)];
}

std::uint32_t Memory::read32(std::uint32_t addr) const noexcept {
    const std::uint32_t off = page_offset(addr);
    if (off <= kPageSize - 4) {
        // Fast path: the word lives in one page — assemble little-endian
        // from the backing array directly (a single load after optimisation).
        const std::uint8_t* d = page_at(addr)->data + off;
        return static_cast<std::uint32_t>(d[0]) | (static_cast<std::uint32_t>(d[1]) << 8) |
               (static_cast<std::uint32_t>(d[2]) << 16) | (static_cast<std::uint32_t>(d[3]) << 24);
    }
    // Slow path: the word straddles a page boundary.
    return static_cast<std::uint32_t>(read8(addr)) |
           (static_cast<std::uint32_t>(read8(addr + 1)) << 8) |
           (static_cast<std::uint32_t>(read8(addr + 2)) << 16) |
           (static_cast<std::uint32_t>(read8(addr + 3)) << 24);
}

void Memory::write8(std::uint32_t addr, std::uint8_t v) {
    Page* p = page_at(addr);
    writable(*p)[page_offset(addr)] = v;
    touch(*p);
}

void Memory::write32(std::uint32_t addr, std::uint32_t v) {
    const std::uint32_t off = page_offset(addr);
    if (off <= kPageSize - 4) {
        Page* p = page_at(addr);
        std::uint8_t* d = writable(*p) + off;
        d[0] = static_cast<std::uint8_t>(v & 0xff);
        d[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
        d[2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
        d[3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
        touch(*p);
        return;
    }
    write8(addr, static_cast<std::uint8_t>(v & 0xff));
    write8(addr + 1, static_cast<std::uint8_t>((v >> 8) & 0xff));
    write8(addr + 2, static_cast<std::uint8_t>((v >> 16) & 0xff));
    write8(addr + 3, static_cast<std::uint8_t>((v >> 24) & 0xff));
}

void Memory::poison(std::uint32_t addr, std::uint32_t size) {
    for (std::uint32_t i = 0; i < size; ++i) {
        Page& p = page_or_throw(addr + i);
        if (!p.poison) {
            p.poison = std::make_unique<std::bitset<kPageSize>>();
        }
        p.poison->set(page_offset(addr + i));
    }
}

void Memory::unpoison(std::uint32_t addr, std::uint32_t size) {
    for (std::uint32_t i = 0; i < size; ++i) {
        Page& p = page_or_throw(addr + i);
        if (p.poison) {
            p.poison->reset(page_offset(addr + i));
        }
    }
}

bool Memory::is_poisoned(std::uint32_t addr) const noexcept {
    const Page* p = page_at(addr);
    return p != nullptr && p->poison && p->poison->test(page_offset(addr));
}

std::uint8_t Memory::raw_read8(std::uint32_t addr) const {
    return page_or_throw(addr).data[page_offset(addr)];
}

std::uint32_t Memory::raw_read32(std::uint32_t addr) const {
    return static_cast<std::uint32_t>(raw_read8(addr)) |
           (static_cast<std::uint32_t>(raw_read8(addr + 1)) << 8) |
           (static_cast<std::uint32_t>(raw_read8(addr + 2)) << 16) |
           (static_cast<std::uint32_t>(raw_read8(addr + 3)) << 24);
}

void Memory::raw_write8(std::uint32_t addr, std::uint8_t v) {
    Page& p = page_or_throw(addr);
    writable(p)[page_offset(addr)] = v;
    touch(p);
}

void Memory::raw_write32(std::uint32_t addr, std::uint32_t v) {
    raw_write8(addr, static_cast<std::uint8_t>(v & 0xff));
    raw_write8(addr + 1, static_cast<std::uint8_t>((v >> 8) & 0xff));
    raw_write8(addr + 2, static_cast<std::uint8_t>((v >> 16) & 0xff));
    raw_write8(addr + 3, static_cast<std::uint8_t>((v >> 24) & 0xff));
}

void Memory::raw_write(std::uint32_t addr, std::span<const std::uint8_t> data) {
    // Page-sized chunks: one lookup, one memcpy, one generation bump per
    // page instead of per byte (the loader writes whole segments this way).
    std::size_t done = 0;
    while (done < data.size()) {
        const std::uint32_t a = addr + static_cast<std::uint32_t>(done);
        Page& p = page_or_throw(a);
        const std::uint32_t off = page_offset(a);
        const std::size_t chunk =
            std::min<std::size_t>(data.size() - done, kPageSize - off);
        std::memcpy(writable(p) + off, data.data() + done, chunk);
        touch(p);
        done += chunk;
    }
}

std::vector<std::uint8_t> Memory::raw_read(std::uint32_t addr, std::uint32_t len) const {
    std::vector<std::uint8_t> out(len);
    std::uint32_t done = 0;
    while (done < len) {
        const std::uint32_t a = addr + done;
        const Page& p = page_or_throw(a);
        const std::uint32_t off = page_offset(a);
        const std::uint32_t chunk = std::min(len - done, kPageSize - off);
        std::memcpy(out.data() + done, p.data + off, chunk);
        done += chunk;
    }
    return out;
}

std::vector<std::uint32_t> Memory::mapped_pages() const {
    std::vector<std::uint32_t> out;
    out.reserve(pages_.size());
    for (const auto& [idx, page] : pages_) {
        out.push_back(idx << kPageShift);
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace swsec::vm
