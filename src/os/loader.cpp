#include "os/loader.hpp"

#include <algorithm>
#include <iterator>

#include "common/error.hpp"

namespace swsec::os {

using objfmt::Image;
using objfmt::RelocKind;
using objfmt::SectionKind;

namespace {

std::uint32_t section_base(const ProcessLayout& layout, SectionKind s) noexcept {
    return s == SectionKind::Text ? layout.text_base : layout.data_base;
}

std::uint32_t randomized(std::uint32_t base, std::uint32_t entropy_bits, Rng& rng,
                         bool downward = false) {
    const std::uint32_t pages = 1U << entropy_bits;
    const std::uint32_t shift = rng.below(pages) * vm::kPageSize;
    return downward ? base - shift : base + shift;
}

constexpr std::uint64_t kAddressSpaceEnd = std::uint64_t{1} << 32;

/// Exclusive, page-rounded end of a segment of `size` bytes (at least one
/// page) at `base`, computed in 64 bits so that a hostile size cannot wrap
/// the extent back below its base.
std::uint64_t segment_end(std::uint32_t base, std::uint32_t size) noexcept {
    const std::uint64_t span = std::max<std::uint32_t>(size, 1);
    return base + ((span + vm::kPageSize - 1) & ~std::uint64_t{vm::kPageSize - 1});
}

/// Map the shadow slice covering [base, base+size) read-write.  The shadow
/// is plain guest RAM: compiled checks load it, the kernel writes it; the
/// machine itself attaches no semantics to these pages.
void map_shadow_slice(vm::Memory& mem, std::uint32_t base, std::uint32_t size) {
    const std::uint32_t span = std::max<std::uint32_t>(size, 1);
    const std::uint32_t lo = vm::shadow_of(base);
    const std::uint32_t hi = vm::shadow_of(base + span - 1) + 1;
    mem.map(lo, hi - lo, vm::Perm::RW);
}

} // namespace

void assert_disjoint_layout(const ProcessLayout& layout, std::uint32_t stack_size) {
    struct Region {
        const char* name;
        std::uint64_t lo;
        std::uint64_t hi; // exclusive, page-rounded
    };
    const Region regions[] = {
        {"text", layout.text_base, segment_end(layout.text_base, layout.text_size)},
        {"data", layout.data_base, segment_end(layout.data_base, layout.data_size)},
        // The heap is unmapped until sbrk; reserve its first page so a brk
        // landing inside another segment is rejected up front.
        {"heap", layout.heap_base, segment_end(layout.heap_base, vm::kPageSize)},
        {"stack", layout.stack_high - stack_size, layout.stack_high},
    };
    for (const Region& r : regions) {
        if (r.hi > kAddressSpaceEnd) {
            throw Error(std::string("segment ") + r.name + " at " + std::to_string(r.lo) +
                        " ends past 2^32");
        }
    }
    for (std::size_t i = 0; i < std::size(regions); ++i) {
        for (std::size_t j = i + 1; j < std::size(regions); ++j) {
            const Region& a = regions[i];
            const Region& b = regions[j];
            if (a.lo < b.hi && b.lo < a.hi) {
                throw Error(std::string("ASLR layout collision: ") + a.name + " [" +
                            std::to_string(a.lo) + ", " + std::to_string(a.hi) + ") overlaps " +
                            b.name + " [" + std::to_string(b.lo) + ", " + std::to_string(b.hi) +
                            ")");
            }
        }
    }
}

ProcessLayout load_image(vm::Machine& machine, const Image& image, const LoadOptions& opts,
                         Rng& rng, const std::string& entry_symbol) {
    // An image is attacker-supplied data: a segment size that does not even
    // fit the address space cannot be placed anywhere.
    if (image.text.size() >= kAddressSpaceEnd || image.data_total_size() >= kAddressSpaceEnd) {
        throw Error("image segment larger than the 32-bit address space");
    }
    const std::uint32_t entropy = std::min(opts.aslr_entropy_bits, kMaxAslrEntropyBits);
    ProcessLayout layout;
    // The four segment offsets are independent draws: nothing stops two
    // segments landing on the same pages at high entropy.  Like a real
    // kernel's mmap, re-draw the whole layout on a collision (deterministic:
    // the retry consumes the same seeded stream) instead of refusing the
    // exec; if the space is so exhausted that kMaxLayoutAttempts layouts all
    // collide, fail closed via the assertion rather than load and corrupt.
    constexpr int kMaxLayoutAttempts = 64;
    for (int attempt = 1;; ++attempt) {
        layout.text_base = opts.aslr ? randomized(kDefaultTextBase, entropy, rng)
                                     : kDefaultTextBase;
        layout.text_size = static_cast<std::uint32_t>(image.text.size());
        layout.data_base = opts.aslr ? randomized(kDefaultDataBase, entropy, rng)
                                     : kDefaultDataBase;
        layout.data_size = static_cast<std::uint32_t>(image.data_total_size());
        layout.heap_base = opts.aslr ? randomized(kDefaultHeapBase, entropy, rng)
                                     : kDefaultHeapBase;
        layout.brk = layout.heap_base;
        layout.stack_high = opts.aslr
                                ? randomized(kDefaultStackTop, entropy, rng,
                                             /*downward=*/true)
                                : kDefaultStackTop;
        layout.stack_low = layout.stack_high - opts.stack_size;
        try {
            assert_disjoint_layout(layout, opts.stack_size);
            break;
        } catch (const Error&) {
            if (!opts.aslr || attempt == kMaxLayoutAttempts) {
                throw; // a fixed layout cannot be re-drawn; entropy exhausted
            }
        }
    }

    auto& mem = machine.memory();
    // Map with permissive RW first so relocation patching can use raw writes,
    // then tighten to the profile's final permissions.
    mem.map(layout.text_base, std::max<std::uint32_t>(layout.text_size, 1), vm::Perm::RW);
    mem.map(layout.data_base, std::max<std::uint32_t>(layout.data_size, 1), vm::Perm::RW);
    mem.map(layout.stack_low, opts.stack_size, vm::Perm::RW);

    mem.raw_write(layout.text_base, image.text);
    mem.raw_write(layout.data_base, image.data);
    // bss is the zero-filled tail of the data segment: pages are fresh, so
    // nothing to write.

    // Apply relocations at the final addresses.
    for (const auto& rel : image.relocs) {
        const std::uint32_t site = section_base(layout, rel.section) + rel.offset;
        const std::uint32_t target = section_base(layout, rel.target_section) + rel.target_offset;
        if (rel.kind == RelocKind::Abs32) {
            mem.raw_write32(site, target);
        } else {
            mem.raw_write32(site, target - (site + 4));
        }
    }

    // Final page permissions define the security profile.
    if (opts.dep) {
        mem.protect(layout.text_base, std::max<std::uint32_t>(layout.text_size, 1), vm::Perm::RX);
        mem.protect(layout.data_base, std::max<std::uint32_t>(layout.data_size, 1), vm::Perm::RW);
        mem.protect(layout.stack_low, opts.stack_size, vm::Perm::RW);
        machine.options().enforce_nx = true;
    } else {
        // Classic unprotected platform: everything readable, writable and
        // executable (the machine does not check X when enforce_nx is off,
        // but writable text is what enables code-corruption attacks).
        mem.protect(layout.text_base, std::max<std::uint32_t>(layout.text_size, 1), vm::Perm::RWX);
        mem.protect(layout.data_base, std::max<std::uint32_t>(layout.data_size, 1), vm::Perm::RWX);
        mem.protect(layout.stack_low, opts.stack_size, vm::Perm::RWX);
        machine.options().enforce_nx = false;
    }

    if (opts.sanitize_address) {
        // The shadow carve-out [kShadowBase, kShadowBase + 2^30) sits between
        // the heap limit and the lowest possible stack page under maximum
        // ASLR entropy, but an image is attacker-supplied data: fail closed
        // if any segment strays into the shadow range rather than let a
        // segment and its own shadow alias.
        constexpr std::uint32_t kShadowLo = vm::kShadowBase;
        constexpr std::uint32_t kShadowHi = vm::kShadowBase + (1U << (32 - vm::kShadowShift));
        const struct {
            const char* name;
            std::uint64_t lo, hi;
        } segs[] = {
            {"text", layout.text_base, segment_end(layout.text_base, layout.text_size)},
            {"data", layout.data_base, segment_end(layout.data_base, layout.data_size)},
            {"heap", layout.heap_base, kHeapLimit},
            {"stack", layout.stack_low, layout.stack_high},
        };
        for (const auto& s : segs) {
            if (s.lo < kShadowHi && kShadowLo < s.hi) {
                throw Error(std::string("sanitizer shadow region overlaps segment ") + s.name);
            }
        }
        map_shadow_slice(mem, layout.text_base, layout.text_size);
        map_shadow_slice(mem, layout.data_base, layout.data_size);
        map_shadow_slice(mem, layout.stack_low, opts.stack_size);
        // Heap shadow is materialised page-by-page as sbrk grows the break
        // (os/kernel.cpp) — premapping shadow for the whole kHeapLimit range
        // would cost more pages than most processes ever touch.
        //
        // Poison the compiler-emitted global redzones.  Offsets are
        // data-section relative and granule-aligned by construction
        // (.align 4 before every .redzone), so the mapping is exact.
        for (const auto& rz : image.redzones) {
            for (std::uint32_t off = 0; off < rz.size; off += vm::kShadowGranule) {
                mem.raw_write8(vm::shadow_of(layout.data_base + rz.offset + off), 1);
            }
        }
    }

    if (opts.install_cfi_targets) {
        std::vector<std::uint32_t> targets;
        targets.reserve(image.func_offsets.size());
        for (const std::uint32_t off : image.func_offsets) {
            targets.push_back(layout.text_base + off);
        }
        machine.set_cfi_targets(std::move(targets));
    }

    if (machine.tracer() != nullptr) {
        // First event of a traced run: the load bias.  Raw PCs in the rest
        // of the stream are only comparable across ASLR draws relative to
        // these bases.
        machine.tracer()->record({trace::EventKind::ModuleLoaded, machine.steps_executed(),
                                  layout.text_base, vm::kNoModule, false,
                                  trace::CheckOrigin::None, 0, layout.data_base,
                                  layout.stack_high, {}});
    }

    // Initial register state.
    const auto entry = image.try_symbol(entry_symbol);
    if (!entry || entry->section != SectionKind::Text) {
        throw Error("entry symbol '" + entry_symbol + "' not found in image text");
    }
    // Real processes keep argv/env strings above the initial stack pointer;
    // reserve the same gap so reads past a top-frame buffer stay mapped.
    const std::uint32_t initial_sp = layout.stack_high - 256;
    machine.set_ip(layout.text_base + entry->offset);
    machine.set_sp(initial_sp);
    machine.set_reg(isa::Reg::Bp, initial_sp);
    return layout;
}

std::uint32_t symbol_address(const Image& image, const ProcessLayout& layout,
                             const std::string& name) {
    const auto& sym = image.symbol(name);
    return section_base(layout, sym.section) + sym.offset;
}

} // namespace swsec::os
