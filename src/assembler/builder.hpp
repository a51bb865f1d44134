// The one object builder (internal to the assembler library): statements in,
// an ObjectFile out.  build_object feeds it a whole AsmList; the text
// assembler feeds it each line's statements as it parses them, so a
// builder error surfaces in line order among the parser's own.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "assembler/asm_list.hpp"
#include "isa/encoder.hpp"

namespace swsec::assembler {

class ObjectBuilder {
public:
    explicit ObjectBuilder(const std::string& unit_name);

    [[nodiscard]] objfmt::SectionKind section() const noexcept { return section_; }

    /// Lay out one statement; its names and bytes are read from `strtab`.
    void add(const AsmStmt& s, std::string_view strtab);

    /// Resolve `.global`/`.func`/`.entry` and hand over the object.
    [[nodiscard]] objfmt::ObjectFile finish();

private:
    struct Label {
        objfmt::SectionKind section = objfmt::SectionKind::Text;
        std::uint32_t offset = 0;
        bool is_global = false;
        bool is_func = false;
        bool is_entry = false;
    };

    [[nodiscard]] std::uint32_t here() const noexcept;
    /// Append to the current section.
    void emit(std::span<const std::uint8_t> bytes);
    void insn(const AsmStmt& s, std::string_view strtab);
    void reloc(std::uint32_t offset, const AsmOperand& sym, std::string_view strtab,
               objfmt::RelocKind kind);
    void word(const AsmOperand& o, std::string_view strtab);
    void zeros(std::int64_t n, int line);

    objfmt::ObjectFile obj_; // text and data move in at finish()
    isa::Encoder text_;
    std::vector<std::uint8_t> data_;
    objfmt::SectionKind section_ = objfmt::SectionKind::Text;
    // Current `.line` value (0 = none seen: fall back to the assembly line).
    std::uint32_t cur_line_ = 0;
    std::unordered_map<std::string, Label> labels_;
    std::vector<std::string> globals_;
    std::vector<std::string> funcs_;
    std::vector<std::string> entries_;
};

} // namespace swsec::assembler
