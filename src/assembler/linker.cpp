#include "assembler/linker.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace swsec::assembler {

using objfmt::Image;
using objfmt::ImageReloc;
using objfmt::ImageSymbol;
using objfmt::ObjectFile;
using objfmt::RelocKind;
using objfmt::SectionKind;

objfmt::Image link(std::span<const ObjectFile> objects) {
    std::vector<const ObjectFile*> ptrs;
    ptrs.reserve(objects.size());
    for (const ObjectFile& obj : objects) {
        ptrs.push_back(&obj);
    }
    return link(ptrs);
}

objfmt::Image link(std::span<const ObjectFile* const> objects) {
    Image img;

    // Per-object placement bias within the merged sections.
    struct Bias {
        std::uint32_t text = 0;
        std::uint32_t data = 0;
        std::uint32_t bss = 0;
    };
    std::vector<Bias> biases;
    biases.reserve(objects.size());

    std::size_t text_total = 0;
    std::size_t data_total = 0;
    for (const ObjectFile* obj : objects) {
        text_total += obj->text.size() + 3; // + the word-alignment padding
        data_total += obj->data.size() + 3;
    }
    img.text.reserve(text_total);
    img.data.reserve(data_total);

    std::uint32_t bss_cursor = 0;
    for (const ObjectFile* obj : objects) {
        Bias b;
        b.text = static_cast<std::uint32_t>(img.text.size());
        b.data = static_cast<std::uint32_t>(img.data.size());
        b.bss = bss_cursor;
        biases.push_back(b);
        img.text.insert(img.text.end(), obj->text.begin(), obj->text.end());
        img.data.insert(img.data.end(), obj->data.begin(), obj->data.end());
        bss_cursor += obj->bss_size;
        // Word-align the next unit's sections so mid-image symbols stay aligned.
        while (img.text.size() % 4 != 0) {
            img.text.push_back(0x90); // NOP padding
        }
        while (img.data.size() % 4 != 0) {
            img.data.push_back(0x00);
        }
    }
    img.bss_size = bss_cursor;
    // bss lives after all initialised data: bias symbol offsets accordingly.
    const auto data_init_size = static_cast<std::uint32_t>(img.data.size());

    // Define symbols.
    for (std::size_t i = 0; i < objects.size(); ++i) {
        for (const auto& sym : objects[i]->symbols) {
            ImageSymbol is;
            is.section = sym.section;
            is.offset = sym.offset + (sym.section == SectionKind::Text ? biases[i].text
                                                                       : biases[i].data);
            is.is_func = sym.is_func;
            is.is_entry = sym.is_entry;
            const auto [it, inserted] = img.symbols.emplace(sym.name, is);
            if (!inserted) {
                throw Error("duplicate symbol '" + sym.name + "' (unit " + objects[i]->name + ")");
            }
            if (sym.is_func && sym.section == SectionKind::Text) {
                img.func_offsets.push_back(is.offset);
            }
            if (sym.is_entry && sym.section == SectionKind::Text) {
                img.entry_offsets.push_back(is.offset);
            }
        }
    }
    (void)data_init_size;

    // Merge debug line tables.  Offsets are biased per unit, so entries stay
    // sorted; the inter-unit NOP padding inherits the previous unit's last
    // entry, which is harmless (padding only executes as a stray gadget).
    for (std::size_t i = 0; i < objects.size(); ++i) {
        if (objects[i]->lines.empty()) {
            continue;
        }
        const std::string& file = objects[i]->source_file.empty() ? objects[i]->name
                                                                 : objects[i]->source_file;
        std::uint16_t file_id = 0;
        const auto found = std::find(img.line_files.begin(), img.line_files.end(), file);
        if (found == img.line_files.end()) {
            file_id = static_cast<std::uint16_t>(img.line_files.size());
            img.line_files.push_back(file);
        } else {
            file_id = static_cast<std::uint16_t>(found - img.line_files.begin());
        }
        for (const auto& le : objects[i]->lines) {
            img.line_table.push_back(
                objfmt::ImageLineEntry{le.offset + biases[i].text, le.line, file_id});
        }
    }

    // Merge sanitizer redzones (data-section offsets, biased per unit).
    for (std::size_t i = 0; i < objects.size(); ++i) {
        for (const auto& rz : objects[i]->redzones) {
            img.redzones.push_back({rz.offset + biases[i].data, rz.size});
        }
    }

    // Resolve relocations.
    for (std::size_t i = 0; i < objects.size(); ++i) {
        for (const auto& rel : objects[i]->relocs) {
            const auto it = img.symbols.find(rel.symbol);
            if (it == img.symbols.end()) {
                throw Error("undefined symbol '" + rel.symbol + "' referenced from unit " +
                            objects[i]->name);
            }
            ImageReloc ir;
            ir.section = rel.section;
            ir.offset = rel.offset +
                        (rel.section == SectionKind::Text ? biases[i].text : biases[i].data);
            ir.target_section = it->second.section;
            ir.target_offset = it->second.offset + static_cast<std::uint32_t>(rel.addend);
            ir.kind = rel.kind;
            img.relocs.push_back(ir);
        }
    }

    std::sort(img.func_offsets.begin(), img.func_offsets.end());
    std::sort(img.entry_offsets.begin(), img.entry_offsets.end());
    return img;
}

} // namespace swsec::assembler
