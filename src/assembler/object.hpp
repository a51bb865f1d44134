// Object file and linked-image formats.
//
// The assembler produces ObjectFile values; the Linker merges them into a
// relocatable Image.  Crucially the Image *keeps* its relocations: the final
// segment bases are chosen by the OS loader, which is what makes Address
// Space Layout Randomization possible (Section III-C1) — the same image can
// be placed at a different randomized base on every run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace swsec::objfmt {

enum class SectionKind : std::uint8_t { Text, Data };

enum class RelocKind : std::uint8_t {
    Abs32, // write absolute address of (symbol + addend)
    Rel32, // write (symbol + addend) - (site + 4): IP-relative branch field
};

/// A symbol defined in an object file, at `offset` within `section`.
struct Symbol {
    std::string name;
    SectionKind section = SectionKind::Text;
    std::uint32_t offset = 0;
    bool is_global = false;
    bool is_func = false;   // function start (coarse-CFI target metadata)
    bool is_entry = false;  // PMA entry point (Section IV)
};

/// A fixup: patch 4 bytes at `offset` within `section` once addresses are known.
struct Reloc {
    SectionKind section = SectionKind::Text;
    std::uint32_t offset = 0;
    std::string symbol;
    RelocKind kind = RelocKind::Abs32;
    std::int32_t addend = 0;
};

/// Debug line table entry: instructions at text offsets in
/// [offset, next entry's offset) were emitted for source line `line`.
/// MiniC units carry MiniC line numbers (via `.line`); hand-written assembly
/// falls back to the assembly source line, so every emitted instruction has
/// one.  Offsets are section-relative, which keeps the table valid under any
/// ASLR placement — symbolization only needs the loader's text base.
struct LineEntry {
    std::uint32_t offset = 0;
    std::uint32_t line = 0;
};

/// A sanitizer redzone in the data section: [offset, offset+size) holds no
/// program object and is poisoned into the shadow region by the loader when
/// the process runs under `sanitize_address`.  Emitted by the `.redzone`
/// directive (the compiler places one between/around globals); offsets are
/// granule-aligned by construction.
struct Redzone {
    std::uint32_t offset = 0; // data-section offset
    std::uint32_t size = 0;
};

/// Output of one assembler run.
struct ObjectFile {
    std::string name;
    std::string source_file; // for line-table attribution; defaults to `name`
    std::vector<std::uint8_t> text;
    std::vector<std::uint8_t> data;
    std::uint32_t bss_size = 0; // zero-initialised space appended after data
    std::vector<Symbol> symbols;
    std::vector<Reloc> relocs;
    std::vector<LineEntry> lines; // sorted by offset (emission order)
    std::vector<Redzone> redzones; // data-section sanitizer redzones

    [[nodiscard]] const Symbol* find_symbol(const std::string& sym) const noexcept;
};

/// A resolved symbol in a linked image: section + offset within it.
struct ImageSymbol {
    SectionKind section = SectionKind::Text;
    std::uint32_t offset = 0;
    bool is_func = false;
    bool is_entry = false;
};

/// A resolved relocation in a linked image.
struct ImageReloc {
    SectionKind section = SectionKind::Text; // where the fixup lives
    std::uint32_t offset = 0;
    SectionKind target_section = SectionKind::Text;
    std::uint32_t target_offset = 0;
    RelocKind kind = RelocKind::Abs32;
};

/// A line-table entry in a linked image; `file` indexes Image::line_files.
struct ImageLineEntry {
    std::uint32_t offset = 0; // text-section offset of the first covered byte
    std::uint32_t line = 0;
    std::uint16_t file = 0;
};

/// A fully linked, relocatable program image.
struct Image {
    std::vector<std::uint8_t> text;
    std::vector<std::uint8_t> data; // initialised data; bss_size zero bytes follow
    std::uint32_t bss_size = 0;
    std::unordered_map<std::string, ImageSymbol> symbols;
    std::vector<ImageReloc> relocs;
    std::vector<std::uint32_t> func_offsets;  // text offsets of function starts
    std::vector<std::uint32_t> entry_offsets; // text offsets of PMA entry points
    std::vector<ImageLineEntry> line_table;   // sorted by offset
    std::vector<std::string> line_files;      // source file names, indexed by `file`
    std::vector<Redzone> redzones;            // data-section sanitizer redzones

    /// Initialised data plus bss, summed in 64 bits: a hostile image's sum
    /// may exceed the 32-bit address space, which the loaders reject.
    [[nodiscard]] std::uint64_t data_total_size() const noexcept {
        return static_cast<std::uint64_t>(data.size()) + bss_size;
    }
    /// Offset of a named symbol; throws swsec::Error when undefined.
    [[nodiscard]] const ImageSymbol& symbol(const std::string& name) const;
    [[nodiscard]] std::optional<ImageSymbol> try_symbol(const std::string& name) const noexcept;
};

} // namespace swsec::objfmt
