#include "pma/loader.hpp"

#include "assembler/assembler.hpp"
#include "common/error.hpp"
#include "common/hexdump.hpp"

namespace swsec::pma {

using objfmt::Image;
using objfmt::RelocKind;
using objfmt::SectionKind;

namespace {

std::uint32_t section_base(const ModulePlacement& place, SectionKind s) noexcept {
    return s == SectionKind::Text ? place.code_base : place.data_base;
}

void push_word(std::vector<std::uint8_t>& v, std::uint32_t w) {
    v.push_back(static_cast<std::uint8_t>(w & 0xff));
    v.push_back(static_cast<std::uint8_t>((w >> 8) & 0xff));
    v.push_back(static_cast<std::uint8_t>((w >> 16) & 0xff));
    v.push_back(static_cast<std::uint8_t>((w >> 24) & 0xff));
}

} // namespace

std::uint32_t LoadedModule::addr_of(const std::string& symbol) const {
    const auto& sym = image.symbol(symbol);
    return (sym.section == SectionKind::Text ? descriptor.code_base : descriptor.data_base) +
           sym.offset;
}

crypto::Digest measure_module(const Image& image, const ModulePlacement& place) {
    // The measurement binds the exact code bytes, the layout and the entry
    // points — precisely what the paper's load-time attestation must attest.
    std::vector<std::uint8_t> meta;
    push_word(meta, place.code_base);
    push_word(meta, static_cast<std::uint32_t>(image.text.size()));
    push_word(meta, place.data_base);
    push_word(meta, static_cast<std::uint32_t>(image.data_total_size()));
    for (const std::uint32_t e : image.entry_offsets) {
        push_word(meta, e);
    }
    crypto::Sha256 h;
    h.update(image.text);
    h.update(meta);
    return h.finish();
}

LoadedModule load_module(vm::Machine& machine, const Image& image, const ModulePlacement& place,
                         const std::string& name, bool install_protection) {
    LoadedModule out;
    out.name = name;
    out.image = image;

    if (image.text.size() > 0xffffffffu || image.data_total_size() > 0xffffffffu) {
        throw Error("module '" + name + "' is larger than the address space");
    }
    const auto text_size = static_cast<std::uint32_t>(image.text.size());
    const auto data_size = static_cast<std::uint32_t>(image.data_total_size());

    auto& mem = machine.memory();
    mem.map(place.code_base, std::max<std::uint32_t>(text_size, 1), vm::Perm::RX);
    mem.map(place.data_base, std::max<std::uint32_t>(data_size, 1), vm::Perm::RW);
    mem.raw_write(place.code_base, image.text);
    mem.raw_write(place.data_base, image.data);

    for (const auto& rel : image.relocs) {
        const std::uint32_t site = section_base(place, rel.section) + rel.offset;
        const std::uint32_t target = section_base(place, rel.target_section) + rel.target_offset;
        if (rel.kind == RelocKind::Abs32) {
            mem.raw_write32(site, target);
        } else {
            mem.raw_write32(site, target - (site + 4));
        }
    }

    out.descriptor.name = name;
    out.descriptor.code_base = place.code_base;
    out.descriptor.code_size = text_size;
    out.descriptor.data_base = place.data_base;
    out.descriptor.data_size = data_size;
    for (const std::uint32_t off : image.entry_offsets) {
        out.descriptor.entry_points.push_back(place.code_base + off);
    }
    out.measurement = measure_module(image, place);

    if (install_protection) {
        out.machine_index = machine.add_protected_module(out.descriptor);
    }
    // Entry points are legitimate indirect-branch targets for host CFI.
    for (const std::uint32_t e : out.descriptor.entry_points) {
        machine.add_cfi_target(e);
    }
    return out;
}

objfmt::ObjectFile make_import_stubs(const Image& module_image, const ModulePlacement& place,
                                     const std::vector<std::string>& names) {
    std::string src = ".text\n";
    for (const auto& name : names) {
        const auto sym = module_image.try_symbol(name);
        if (!sym || sym->section != SectionKind::Text) {
            throw Error("module does not export '" + name + "'");
        }
        const std::uint32_t addr = place.code_base + sym->offset;
        src += ".global " + name + "\n.func " + name + "\n" + name + ":\n";
        src += "  mov r7, " + std::to_string(addr) + "\n";
        src += "  jmp r7\n";
    }
    return assembler::assemble(src, "pma_imports");
}

} // namespace swsec::pma
