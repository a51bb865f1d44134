#include "assembler/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "isa/encoder.hpp"
#include "isa/isa.hpp"

namespace swsec::assembler {

namespace {

using isa::Op;
using isa::Reg;
using objfmt::ObjectFile;
using objfmt::Reloc;
using objfmt::RelocKind;
using objfmt::SectionKind;
using objfmt::Symbol;

// Number literals span the int32 and uint32 ranges, so both "-1" and
// "0xFFFFFFFF" denote the all-ones word.
constexpr std::int64_t kMinLiteral = -(std::int64_t{1} << 31);
constexpr std::int64_t kMaxLiteral = (std::int64_t{1} << 32) - 1;

// ---------------------------------------------------------------------------
// Operand model
// ---------------------------------------------------------------------------

// Names are views into the source text, which outlives the assembler run.
struct SymRef {
    std::string_view name;
    std::int32_t addend = 0;
};

struct Operand {
    enum class Kind { Reg, Imm, Sym, Mem } kind = Kind::Imm;
    Reg reg = Reg::R0;       // Kind::Reg
    std::int32_t imm = 0;    // Kind::Imm
    SymRef sym;              // Kind::Sym
    Reg base = Reg::R0;      // Kind::Mem
    std::int32_t disp = 0;   // Kind::Mem
};

// ---------------------------------------------------------------------------
// Lexical helpers: every line is scanned as views into the source text
// ---------------------------------------------------------------------------

std::string_view strip_comment(std::string_view line) {
    bool in_str = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (c == '"' && (i == 0 || line[i - 1] != '\\')) {
            in_str = !in_str;
        }
        if (!in_str && (c == ';' || c == '#')) {
            return line.substr(0, i);
        }
    }
    return line;
}

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

std::string_view trim(std::string_view s) {
    while (!s.empty() && is_space(s.front())) {
        s.remove_prefix(1);
    }
    while (!s.empty() && is_space(s.back())) {
        s.remove_suffix(1);
    }
    return s;
}

/// Split "name rest" at the first blank: {name, trimmed rest}.
std::pair<std::string_view, std::string_view> split_head(std::string_view line) {
    const std::size_t sp = line.find_first_of(" \t");
    if (sp == std::string_view::npos) {
        return {line, {}};
    }
    return {line.substr(0, sp), trim(line.substr(sp))};
}

bool is_ident_start(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '.' || c == '$';
}
bool is_ident_char(char c) {
    return is_ident_start(c) || std::isdigit(static_cast<unsigned char>(c)) != 0;
}

int digit_value(char c, int base) {
    const char d = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (d >= '0' && d <= '9') {
        return d - '0';
    }
    if (base == 16 && d >= 'a' && d <= 'f') {
        return d - 'a' + 10;
    }
    return -1;
}

/// A decimal or 0x-hex literal with optional sign; nullopt when `tok` is not
/// one.  A literal outside [kMinLiteral, kMaxLiteral] is a ParseError: each
/// digit is range-checked before it is accumulated, so no literal can
/// overflow or silently wrap into a different word.
std::optional<std::int64_t> parse_number(std::string_view tok, int line) {
    if (tok.empty()) {
        return std::nullopt;
    }
    std::size_t i = 0;
    bool neg = false;
    if (tok[i] == '-' || tok[i] == '+') {
        neg = (tok[i] == '-');
        ++i;
    }
    if (i >= tok.size()) {
        return std::nullopt;
    }
    int base = 10;
    if (tok.size() - i > 2 && tok[i] == '0' && (tok[i + 1] == 'x' || tok[i + 1] == 'X')) {
        base = 16;
        i += 2;
    }
    std::int64_t value = 0;
    bool out_of_range = false;
    for (; i < tok.size(); ++i) {
        const int digit = digit_value(tok[i], base);
        if (digit < 0) {
            return std::nullopt;
        }
        if (value > (kMaxLiteral - digit) / base) {
            out_of_range = true; // keep scanning: a non-digit still means "not a number"
        } else if (!out_of_range) {
            value = value * base + digit;
        }
    }
    if (out_of_range || (neg && -value < kMinLiteral)) {
        throw ParseError("number out of range '" + std::string(tok) + "'", line);
    }
    return neg ? -value : value;
}

/// Calls `fn(token)` for each trimmed token of "a, b, c", respecting quotes
/// and brackets.  An empty last token is dropped, as for a trailing comma.
template <typename Fn> void for_each_operand(std::string_view s, Fn&& fn) {
    bool in_str = false;
    int depth = 0;
    std::size_t start = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '"' && (i == 0 || s[i - 1] != '\\')) {
            in_str = !in_str;
        }
        if (!in_str) {
            if (c == '[') {
                ++depth;
            } else if (c == ']') {
                --depth;
            } else if (c == ',' && depth == 0) {
                fn(trim(s.substr(start, i - start)));
                start = i + 1;
            }
        }
    }
    const std::string_view last = trim(s.substr(std::min(start, s.size())));
    if (!last.empty()) {
        fn(last);
    }
}

/// Appends the bytes of the string literal `tok` (quotes included) to `out`.
void unescape_string(std::string_view tok, int line, std::string& out) {
    if (tok.size() < 2 || tok.front() != '"' || tok.back() != '"') {
        throw ParseError("expected string literal, got '" + std::string(tok) + "'", line);
    }
    for (std::size_t i = 1; i + 1 < tok.size(); ++i) {
        char c = tok[i];
        if (c == '\\' && i + 2 < tok.size()) {
            ++i;
            switch (tok[i]) {
            case 'n':
                c = '\n';
                break;
            case 't':
                c = '\t';
                break;
            case '0':
                c = '\0';
                break;
            case '\\':
                c = '\\';
                break;
            case '"':
                c = '"';
                break;
            default:
                c = tok[i];
                break;
            }
        }
        out.push_back(c);
    }
}

// ---------------------------------------------------------------------------
// The mnemonic table
// ---------------------------------------------------------------------------

// Operand shape of a mnemonic; each shape has one emitter and one set of
// diagnostics in Assembler::emit_insn.
enum class Form : std::uint8_t {
    None,      // halt nop ret leave (operands are ignored)
    RegOnly,   // pop not neg callr jmpr
    Push,      // push reg | imm32 | sym
    PushImm,   // pushi imm32
    Alu,       // reg, reg | imm32 | sym  (op = register form, alt = immediate form)
    RegImm32,  // movi addi ... cmpi (explicit immediate forms, as disassembled)
    Shift,     // reg, reg | imm8  (op = register form, alt = immediate form)
    RegImm8,   // shli shri sari, and the capability ops cload cstore csetb
    RegReg,    // divs rems test
    Load,      // reg, [base+disp]
    Store,     // [base+disp], reg
    Branch,    // label | raw rel32
    JmpOrCall, // as Branch, or one register (alt = the register form)
    Sys,       // sys imm8
    CJmp,      // cjmp imm8
};

struct Mnemonic {
    Form form;
    Op op;
    Op alt = Op::Nop;
};

const Mnemonic* find_mnemonic(std::string_view mn) {
    static const std::unordered_map<std::string_view, Mnemonic> table = {
        {"halt", {Form::None, Op::Halt}},
        {"nop", {Form::None, Op::Nop}},
        {"ret", {Form::None, Op::Ret}},
        {"leave", {Form::None, Op::Leave}},
        {"pop", {Form::RegOnly, Op::Pop}},
        {"not", {Form::RegOnly, Op::Not}},
        {"neg", {Form::RegOnly, Op::Neg}},
        {"callr", {Form::RegOnly, Op::CallR}},
        {"jmpr", {Form::RegOnly, Op::JmpR}},
        {"push", {Form::Push, Op::Push, Op::PushI}},
        {"pushi", {Form::PushImm, Op::PushI}},
        {"mov", {Form::Alu, Op::MovR, Op::MovI}},
        {"add", {Form::Alu, Op::Add, Op::AddI}},
        {"sub", {Form::Alu, Op::Sub, Op::SubI}},
        {"mul", {Form::Alu, Op::Mul, Op::MulI}},
        {"and", {Form::Alu, Op::And, Op::AndI}},
        {"or", {Form::Alu, Op::Or, Op::OrI}},
        {"xor", {Form::Alu, Op::Xor, Op::XorI}},
        {"cmp", {Form::Alu, Op::Cmp, Op::CmpI}},
        {"movi", {Form::RegImm32, Op::MovI}},
        {"addi", {Form::RegImm32, Op::AddI}},
        {"subi", {Form::RegImm32, Op::SubI}},
        {"muli", {Form::RegImm32, Op::MulI}},
        {"andi", {Form::RegImm32, Op::AndI}},
        {"ori", {Form::RegImm32, Op::OrI}},
        {"xori", {Form::RegImm32, Op::XorI}},
        {"cmpi", {Form::RegImm32, Op::CmpI}},
        {"shl", {Form::Shift, Op::Shl, Op::ShlI}},
        {"shr", {Form::Shift, Op::Shr, Op::ShrI}},
        {"sar", {Form::Shift, Op::Sar, Op::SarI}},
        {"shli", {Form::RegImm8, Op::ShlI}},
        {"shri", {Form::RegImm8, Op::ShrI}},
        {"sari", {Form::RegImm8, Op::SarI}},
        {"cload", {Form::RegImm8, Op::CLoad}},
        {"cstore", {Form::RegImm8, Op::CStore}},
        {"csetb", {Form::RegImm8, Op::CSetB}},
        {"divs", {Form::RegReg, Op::Divs}},
        {"rems", {Form::RegReg, Op::Rems}},
        {"test", {Form::RegReg, Op::Test}},
        {"load", {Form::Load, Op::Load}},
        {"load8", {Form::Load, Op::Load8}},
        {"lea", {Form::Load, Op::Lea}},
        {"store", {Form::Store, Op::Store}},
        {"store8", {Form::Store, Op::Store8}},
        {"jmp", {Form::JmpOrCall, Op::Jmp, Op::JmpR}},
        {"call", {Form::JmpOrCall, Op::Call, Op::CallR}},
        {"jz", {Form::Branch, Op::Jz}},
        {"jnz", {Form::Branch, Op::Jnz}},
        {"jl", {Form::Branch, Op::Jl}},
        {"jge", {Form::Branch, Op::Jge}},
        {"jg", {Form::Branch, Op::Jg}},
        {"jle", {Form::Branch, Op::Jle}},
        {"jb", {Form::Branch, Op::Jb}},
        {"jae", {Form::Branch, Op::Jae}},
        {"sys", {Form::Sys, Op::Sys}},
        {"cjmp", {Form::CJmp, Op::CJmp}},
    };
    const auto it = table.find(mn);
    return it == table.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// The assembler proper
// ---------------------------------------------------------------------------

class Assembler {
public:
    explicit Assembler(std::string unit_name) {
        obj_.name = std::move(unit_name);
        obj_.source_file = obj_.name;
    }

    ObjectFile run(std::string_view source) {
        std::size_t pos = 0;
        int line_no = 0;
        while (pos <= source.size()) {
            std::size_t end = source.find('\n', pos);
            if (end == std::string_view::npos) {
                end = source.size();
            }
            ++line_no;
            process_line(trim(strip_comment(source.substr(pos, end - pos))), line_no);
            pos = end + 1;
        }
        finalize();
        return std::move(obj_);
    }

private:
    struct Label {
        SectionKind section = SectionKind::Text;
        std::uint32_t offset = 0;
        bool is_global = false;
        bool is_func = false;
        bool is_entry = false;
    };

    ObjectFile obj_;
    isa::Encoder text_;
    std::vector<std::uint8_t> data_;
    SectionKind section_ = SectionKind::Text;
    // Current `.line` value (0 = none seen: fall back to the assembly line).
    std::uint32_t cur_line_ = 0;
    std::unordered_map<std::string, Label> labels_;
    std::vector<std::string> globals_;
    std::vector<std::string> funcs_;
    std::vector<std::string> entries_;
    // Per-line buffers, reused so that a line allocates nothing.
    std::string mnemonic_;
    std::string string_bytes_;
    std::vector<Operand> ops_;

    [[nodiscard]] std::uint32_t here() const noexcept {
        return section_ == SectionKind::Text ? text_.size()
                                             : static_cast<std::uint32_t>(data_.size());
    }

    void define_label(std::string_view name, int line) {
        if (!labels_.try_emplace(std::string(name), Label{section_, here()}).second) {
            throw ParseError("duplicate label '" + std::string(name) + "'", line);
        }
    }

    void process_line(std::string_view rest, int line_no) {
        // Labels (possibly several on one line).
        while (!rest.empty() && is_ident_start(rest[0])) {
            std::size_t j = 0;
            while (j < rest.size() && is_ident_char(rest[j])) {
                ++j;
            }
            if (j == rest.size() || rest[j] != ':') {
                break;
            }
            define_label(rest.substr(0, j), line_no);
            rest = trim(rest.substr(j + 1));
        }
        if (rest.empty()) {
            return;
        }
        if (rest[0] == '.') {
            directive(rest, line_no);
        } else {
            instruction(rest, line_no);
        }
    }

    void directive(std::string_view line, int line_no) {
        const auto [name, args] = split_head(line);
        if (name == ".line") {
            const auto v = parse_number(args, line_no);
            if (!v || *v <= 0) {
                throw ParseError("bad .line operand", line_no);
            }
            cur_line_ = static_cast<std::uint32_t>(*v);
        } else if (name == ".text") {
            section_ = SectionKind::Text;
        } else if (name == ".data") {
            section_ = SectionKind::Data;
        } else if (name == ".global") {
            globals_.emplace_back(args);
        } else if (name == ".func") {
            funcs_.emplace_back(args);
        } else if (name == ".entry") {
            entries_.emplace_back(args);
        } else if (name == ".word") {
            for_each_operand(args, [&](std::string_view tok) { emit_word_expr(tok, line_no); });
        } else if (name == ".byte") {
            for_each_operand(args, [&](std::string_view tok) {
                const auto v = parse_number(tok, line_no);
                if (!v) {
                    throw ParseError("bad .byte operand '" + std::string(tok) + "'", line_no);
                }
                emit_byte(static_cast<std::uint8_t>(*v & 0xff));
            });
        } else if (name == ".ascii" || name == ".asciz") {
            string_bytes_.clear();
            unescape_string(args, line_no, string_bytes_);
            for (const char c : string_bytes_) {
                emit_byte(static_cast<std::uint8_t>(c));
            }
            if (name == ".asciz") {
                emit_byte(0);
            }
        } else if (name == ".space") {
            const auto v = parse_number(args, line_no);
            if (!v || *v < 0) {
                throw ParseError("bad .space operand", line_no);
            }
            emit_zeros(*v, line_no);
        } else if (name == ".redzone") {
            // Sanitizer redzone: reserve zero-filled data bytes and record
            // the range so the loader can poison it in shadow memory.
            const auto v = parse_number(args, line_no);
            if (!v || *v <= 0) {
                throw ParseError("bad .redzone operand", line_no);
            }
            if (section_ != SectionKind::Data) {
                throw ParseError(".redzone is only valid in the data section", line_no);
            }
            const std::uint32_t at = here();
            emit_zeros(*v, line_no);
            obj_.redzones.push_back({at, static_cast<std::uint32_t>(*v)});
        } else if (name == ".align") {
            const auto v = parse_number(args, line_no);
            if (!v || *v <= 0) {
                throw ParseError("bad .align operand", line_no);
            }
            if (*v > kMaxAlign) {
                throw ParseError(".align operand exceeds " + std::to_string(kMaxAlign), line_no);
            }
            while (here() % static_cast<std::uint32_t>(*v) != 0) {
                emit_byte(section_ == SectionKind::Text ? 0x90 : 0x00); // NOP-pad text
            }
        } else if (name == ".file") {
            obj_.source_file.clear();
            unescape_string(args, line_no, obj_.source_file);
        } else if (name == ".bss") {
            const auto v = parse_number(args, line_no);
            if (!v || *v < 0) {
                throw ParseError("bad .bss operand", line_no);
            }
            if (obj_.bss_size + *v > kMaxSectionBytes) {
                throw ParseError("bss would exceed " + std::to_string(kMaxSectionBytes) +
                                     " bytes",
                                 line_no);
            }
            obj_.bss_size += static_cast<std::uint32_t>(*v);
        } else {
            throw ParseError("unknown directive '" + std::string(name) + "'", line_no);
        }
    }

    void emit_byte(std::uint8_t b) {
        if (section_ == SectionKind::Text) {
            const std::uint8_t one[] = {b};
            text_.raw(one);
        } else {
            data_.push_back(b);
        }
    }

    /// `n` zero bytes, refused when they would grow the section past the cap.
    void emit_zeros(std::int64_t n, int line_no) {
        if (here() + n > kMaxSectionBytes) {
            throw ParseError("section would exceed " + std::to_string(kMaxSectionBytes) +
                                 " bytes",
                             line_no);
        }
        if (section_ == SectionKind::Data) {
            data_.resize(data_.size() + static_cast<std::size_t>(n));
            return;
        }
        for (std::int64_t i = 0; i < n; ++i) {
            emit_byte(0);
        }
    }

    void emit_word_expr(std::string_view tok, int line_no) {
        if (const auto v = parse_number(tok, line_no)) {
            const auto u = static_cast<std::uint32_t>(*v);
            emit_byte(static_cast<std::uint8_t>(u & 0xff));
            emit_byte(static_cast<std::uint8_t>((u >> 8) & 0xff));
            emit_byte(static_cast<std::uint8_t>((u >> 16) & 0xff));
            emit_byte(static_cast<std::uint8_t>((u >> 24) & 0xff));
            return;
        }
        const SymRef ref = parse_symref(tok, line_no);
        obj_.relocs.push_back(
            Reloc{section_, here(), std::string(ref.name), RelocKind::Abs32, ref.addend});
        for (int i = 0; i < 4; ++i) {
            emit_byte(0);
        }
    }

    static SymRef parse_symref(std::string_view tok, int line_no) {
        // name, name+N or name-N
        if (tok.empty() || !is_ident_start(tok[0])) {
            throw ParseError("expected symbol, got '" + std::string(tok) + "'", line_no);
        }
        std::size_t j = 0;
        while (j < tok.size() && is_ident_char(tok[j])) {
            ++j;
        }
        SymRef ref;
        ref.name = tok.substr(0, j);
        const std::string_view rest = trim(tok.substr(j));
        if (!rest.empty()) {
            const auto v = parse_number(rest, line_no);
            if (!v) {
                throw ParseError("bad symbol addend '" + std::string(rest) + "'", line_no);
            }
            ref.addend = static_cast<std::int32_t>(*v);
        }
        return ref;
    }

    static Operand parse_operand(std::string_view tok, int line_no) {
        Operand op;
        if (!tok.empty() && tok.front() == '[') {
            if (tok.back() != ']') {
                throw ParseError("unterminated memory operand '" + std::string(tok) + "'",
                                 line_no);
            }
            const std::string_view inner = trim(tok.substr(1, tok.size() - 2));
            const std::size_t split = inner.find_first_of("+-");
            const std::string_view reg_part = trim(inner.substr(0, split));
            const auto base = isa::parse_reg(reg_part);
            if (!base) {
                throw ParseError("bad base register '" + std::string(reg_part) + "'", line_no);
            }
            op.kind = Operand::Kind::Mem;
            op.base = *base;
            if (split != std::string_view::npos) {
                const auto v = parse_number(trim(inner.substr(split)), line_no);
                if (!v) {
                    throw ParseError("bad displacement in '" + std::string(tok) + "'", line_no);
                }
                op.disp = static_cast<std::int32_t>(*v);
            }
            return op;
        }
        if (const auto r = isa::parse_reg(tok)) {
            op.kind = Operand::Kind::Reg;
            op.reg = *r;
            return op;
        }
        if (const auto v = parse_number(tok, line_no)) {
            op.kind = Operand::Kind::Imm;
            op.imm = static_cast<std::int32_t>(*v);
            return op;
        }
        op.kind = Operand::Kind::Sym;
        op.sym = parse_symref(tok, line_no);
        return op;
    }

    void add_text_reloc(std::uint32_t field_offset, const SymRef& ref, RelocKind kind) {
        obj_.relocs.push_back(
            Reloc{SectionKind::Text, field_offset, std::string(ref.name), kind, ref.addend});
    }

    void instruction(std::string_view line, int line_no) {
        if (section_ != SectionKind::Text) {
            throw ParseError("instruction outside .text", line_no);
        }
        // Line table: MiniC line if a `.line` is active, else the assembly
        // source line — so every instruction symbolizes to function:line.
        const std::uint32_t src_line = cur_line_ != 0 ? cur_line_
                                                      : static_cast<std::uint32_t>(line_no);
        if (obj_.lines.empty() || obj_.lines.back().line != src_line) {
            obj_.lines.push_back(objfmt::LineEntry{text_.size(), src_line});
        }
        const auto [mn, args] = split_head(line);
        mnemonic_.assign(mn);
        for (auto& c : mnemonic_) {
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        // Every operand is parsed before the mnemonic is judged, so a bad
        // operand is reported ahead of an unknown mnemonic or a wrong count.
        ops_.clear();
        for_each_operand(args,
                         [&](std::string_view tok) { ops_.push_back(parse_operand(tok, line_no)); });
        const Mnemonic* m = find_mnemonic(mnemonic_);
        if (m == nullptr) {
            throw ParseError("unknown mnemonic '" + mnemonic_ + "'", line_no);
        }
        emit_insn(*m, line_no);
    }

    void expect_ops(std::size_t n, int line_no) const {
        if (ops_.size() != n) {
            throw ParseError("'" + mnemonic_ + "' expects " + std::to_string(n) + " operand(s)",
                             line_no);
        }
    }

    /// The shape check of the common two-operand forms.
    void expect_kinds(Operand::Kind a, Operand::Kind b, const char* shape, int line_no) const {
        expect_ops(2, line_no);
        if (ops_[0].kind != a || ops_[1].kind != b) {
            throw ParseError("'" + mnemonic_ + "' expects" + shape, line_no);
        }
    }

    // Emit an ALU-style instruction with reg/imm/sym overloading.
    void alu(Op rr, Op ri, int line_no) {
        expect_ops(2, line_no);
        if (ops_[0].kind != Operand::Kind::Reg) {
            throw ParseError("'" + mnemonic_ + "' first operand must be a register", line_no);
        }
        switch (ops_[1].kind) {
        case Operand::Kind::Reg:
            text_.reg_reg(rr, ops_[0].reg, ops_[1].reg);
            break;
        case Operand::Kind::Imm:
            text_.reg_imm32(ri, ops_[0].reg, ops_[1].imm);
            break;
        case Operand::Kind::Sym: {
            const std::uint32_t at = text_.reg_imm32(ri, ops_[0].reg, 0);
            add_text_reloc(at + 2, ops_[1].sym, RelocKind::Abs32);
            break;
        }
        default:
            throw ParseError("'" + mnemonic_ + "' cannot take a memory operand", line_no);
        }
    }

    void shift(Op rr, Op ri, int line_no) {
        expect_ops(2, line_no);
        if (ops_[0].kind != Operand::Kind::Reg) {
            throw ParseError("'" + mnemonic_ + "' first operand must be a register", line_no);
        }
        if (ops_[1].kind == Operand::Kind::Reg) {
            text_.reg_reg(rr, ops_[0].reg, ops_[1].reg);
        } else if (ops_[1].kind == Operand::Kind::Imm) {
            text_.reg_imm8(ri, ops_[0].reg, static_cast<std::uint8_t>(ops_[1].imm & 0xff));
        } else {
            throw ParseError("bad shift operand", line_no);
        }
    }

    void branch(Op op, int line_no) {
        expect_ops(1, line_no);
        if (ops_[0].kind == Operand::Kind::Sym) {
            const std::uint32_t at = text_.rel32(op, 0);
            add_text_reloc(at + 1, ops_[0].sym, RelocKind::Rel32);
        } else if (ops_[0].kind == Operand::Kind::Imm) {
            text_.rel32(op, ops_[0].imm); // raw relative displacement
        } else {
            throw ParseError("'" + mnemonic_ + "' expects a label", line_no);
        }
    }

    /// One operand of kind `k`, else `mn + message`.
    const Operand& single(Operand::Kind k, const char* message, int line_no) const {
        expect_ops(1, line_no);
        if (ops_[0].kind != k) {
            throw ParseError(mnemonic_ + message, line_no);
        }
        return ops_[0];
    }

    void emit_insn(const Mnemonic& m, int line_no) {
        using Kind = Operand::Kind;
        switch (m.form) {
        case Form::None:
            text_.none(m.op);
            break;
        case Form::RegOnly:
            text_.reg(m.op, single(Kind::Reg, " expects a register", line_no).reg);
            break;
        case Form::Push:
            expect_ops(1, line_no);
            if (ops_[0].kind == Kind::Reg) {
                text_.reg(m.op, ops_[0].reg);
            } else if (ops_[0].kind == Kind::Imm) {
                text_.imm32(m.alt, ops_[0].imm);
            } else if (ops_[0].kind == Kind::Sym) {
                const std::uint32_t at = text_.imm32(m.alt, 0);
                add_text_reloc(at + 1, ops_[0].sym, RelocKind::Abs32);
            } else {
                throw ParseError("bad push operand", line_no);
            }
            break;
        case Form::PushImm:
            text_.imm32(m.op, single(Kind::Imm, " expects an immediate", line_no).imm);
            break;
        case Form::Alu:
            alu(m.op, m.alt, line_no);
            break;
        case Form::RegImm32:
            expect_kinds(Kind::Reg, Kind::Imm, ": reg, imm32", line_no);
            text_.reg_imm32(m.op, ops_[0].reg, ops_[1].imm);
            break;
        case Form::Shift:
            shift(m.op, m.alt, line_no);
            break;
        case Form::RegImm8:
            expect_kinds(Kind::Reg, Kind::Imm, ": reg, imm8", line_no);
            text_.reg_imm8(m.op, ops_[0].reg, static_cast<std::uint8_t>(ops_[1].imm & 0xff));
            break;
        case Form::RegReg:
            expect_kinds(Kind::Reg, Kind::Reg, " two registers", line_no);
            text_.reg_reg(m.op, ops_[0].reg, ops_[1].reg);
            break;
        case Form::Load:
            expect_kinds(Kind::Reg, Kind::Mem, ": reg, [base+disp]", line_no);
            text_.reg_mem(m.op, ops_[0].reg, ops_[1].base, ops_[1].disp);
            break;
        case Form::Store:
            expect_kinds(Kind::Mem, Kind::Reg, ": [base+disp], reg", line_no);
            // Encoding packs (base << 4 | src).
            text_.reg_mem(m.op, ops_[0].base, ops_[1].reg, ops_[0].disp);
            break;
        case Form::JmpOrCall:
            if (ops_.size() == 1 && ops_[0].kind == Kind::Reg) {
                text_.reg(m.alt, ops_[0].reg);
            } else {
                branch(m.op, line_no);
            }
            break;
        case Form::Branch:
            branch(m.op, line_no);
            break;
        case Form::Sys: {
            const std::int32_t imm = single(Kind::Imm, " expects an immediate", line_no).imm;
            text_.imm8(m.op, static_cast<std::uint8_t>(imm & 0xff));
            break;
        }
        case Form::CJmp: {
            const std::int32_t imm =
                single(Kind::Imm, " expects a capability index", line_no).imm;
            text_.imm8(m.op, static_cast<std::uint8_t>(imm & 0xff));
            break;
        }
        }
    }

    void finalize() {
        obj_.text = text_.take();
        obj_.data = std::move(data_);
        // Validate that .global/.func/.entry names exist, and flag them.
        auto mark = [&](const std::vector<std::string>& names, const char* what, auto flag) {
            for (const auto& n : names) {
                const auto it = labels_.find(n);
                if (it == labels_.end()) {
                    throw Error(std::string(what) + " of undefined symbol '" + n + "' in unit " +
                                obj_.name);
                }
                flag(it->second);
            }
        };
        mark(globals_, ".global", [](Label& l) { l.is_global = true; });
        mark(funcs_, ".func", [](Label& l) { l.is_func = true; });
        mark(entries_, ".entry", [](Label& l) { l.is_entry = l.is_func = true; });
        obj_.symbols.reserve(labels_.size());
        for (const auto& [name, l] : labels_) {
            obj_.symbols.push_back(
                Symbol{name, l.section, l.offset, l.is_global, l.is_func, l.is_entry});
        }
    }
};

} // namespace

objfmt::ObjectFile assemble(const std::string& source, const std::string& unit_name) {
    Assembler as(unit_name);
    return as.run(source);
}

} // namespace swsec::assembler
