#include "assembler/assembler.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "assembler/builder.hpp"
#include "common/error.hpp"
#include "isa/isa.hpp"

namespace swsec::assembler {

namespace {

using isa::Op;
using objfmt::ObjectFile;
using objfmt::SectionKind;
using Kind = AsmOperand::Kind;

// Number literals span the int32 and uint32 ranges, so both "-1" and
// "0xFFFFFFFF" denote the all-ones word.
constexpr std::int64_t kMinLiteral = -(std::int64_t{1} << 31);
constexpr std::int64_t kMaxLiteral = (std::int64_t{1} << 32) - 1;

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

// Operand shape of a mnemonic; each shape has one set of diagnostics and one
// choice of opcode in Assembler::emit_insn.
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

using MnemonicTable = std::unordered_map<std::string_view, Mnemonic>;

const MnemonicTable& mnemonic_table() {
    static const MnemonicTable table = {
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
    return table;
}

const Mnemonic* find_mnemonic(std::string_view mn) {
    const MnemonicTable& table = mnemonic_table();
    const auto it = table.find(mn);
    return it == table.end() ? nullptr : &it->second;
}

/// The mnemonic an opcode is written with, the inverse of the table: the
/// overloaded name where the operand shape picks the encoding ("mov r0, 5"
/// is MovI, "call r0" CallR), else the opcode's own.
const char* written_mnemonic(Op op) {
    static const std::array<std::string_view, 256> names = [] {
        std::array<std::string_view, 256> t{};
        for (const auto& [name, m] : mnemonic_table()) {
            const bool overloaded = m.form == Form::Push || m.form == Form::Alu ||
                                    m.form == Form::Shift || m.form == Form::JmpOrCall;
            if (overloaded) {
                t[static_cast<std::uint8_t>(m.alt)] = name;
            }
            auto& own = t[static_cast<std::uint8_t>(m.op)];
            if (own.empty() || overloaded) {
                own = name;
            }
        }
        return t;
    }();
    const std::string_view name = names[static_cast<std::uint8_t>(op)];
    SWSEC_ASSERT(!name.empty(), "instruction list: not an opcode");
    return name.data();
}

// ---------------------------------------------------------------------------
// The parser: each line becomes statements for the object builder
// ---------------------------------------------------------------------------

// Every statement is handed to the builder as soon as its line is parsed, so
// a builder diagnostic (duplicate label, section cap) and a parser one are
// raised in line order, exactly as from one pass over the text.  Names are
// StrRefs into the source text, which serves as the string table.
class Assembler {
public:
    Assembler(std::string_view source, const std::string& unit_name)
        : source_(source), b_(unit_name) {}

    ObjectFile run() {
        std::size_t pos = 0;
        int line_no = 0;
        while (pos <= source_.size()) {
            std::size_t end = source_.find('\n', pos);
            if (end == std::string_view::npos) {
                end = source_.size();
            }
            ++line_no;
            process_line(trim(strip_comment(source_.substr(pos, end - pos))), line_no);
            pos = end + 1;
        }
        return b_.finish();
    }

private:
    std::string_view source_;
    ObjectBuilder b_;
    // Per-line buffers, reused so that a line allocates nothing.
    std::string mnemonic_;
    std::string string_bytes_;
    std::vector<AsmOperand> ops_;

    /// `s`, a view into the source (or empty), as a string-table reference.
    [[nodiscard]] StrRef ref(std::string_view s) const noexcept {
        if (s.empty()) {
            return {};
        }
        return StrRef{static_cast<std::uint32_t>(s.data() - source_.data()),
                      static_cast<std::uint32_t>(s.size())};
    }

    static AsmStmt stmt(AsmStmt::Kind kind, int line_no) {
        AsmStmt st;
        st.kind = kind;
        st.line = static_cast<std::uint32_t>(line_no);
        return st;
    }

    void add_named(AsmStmt::Kind kind, std::string_view name, int line_no) {
        AsmStmt st = stmt(kind, line_no);
        st.str = ref(name);
        b_.add(st, source_);
    }

    void add_value(AsmStmt::Kind kind, std::int64_t value, int line_no) {
        AsmStmt st = stmt(kind, line_no);
        st.value = value;
        b_.add(st, source_);
    }

    /// A statement whose bytes are string_bytes_ (unescaped literals).
    void add_bytes(AsmStmt::Kind kind, int line_no) {
        AsmStmt st = stmt(kind, line_no);
        st.str = StrRef{0, static_cast<std::uint32_t>(string_bytes_.size())};
        b_.add(st, string_bytes_);
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
            add_named(AsmStmt::Kind::Label, rest.substr(0, j), line_no);
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

    /// A directive's one number operand; `what` names it in the error.
    static std::int64_t number_operand(std::string_view args, const char* what, int line_no) {
        const auto v = parse_number(args, line_no);
        if (!v) {
            throw ParseError(std::string("bad ") + what + " operand", line_no);
        }
        return *v;
    }

    void directive(std::string_view line, int line_no) {
        using SK = AsmStmt::Kind;
        const auto [name, args] = split_head(line);
        if (name == ".line") {
            add_value(SK::Line, number_operand(args, ".line", line_no), line_no);
        } else if (name == ".text") {
            b_.add(stmt(SK::Text, line_no), source_);
        } else if (name == ".data") {
            b_.add(stmt(SK::Data, line_no), source_);
        } else if (name == ".global") {
            add_named(SK::Global, args, line_no);
        } else if (name == ".func") {
            add_named(SK::Func, args, line_no);
        } else if (name == ".entry") {
            add_named(SK::Entry, args, line_no);
        } else if (name == ".word") {
            for_each_operand(args, [&](std::string_view tok) {
                AsmStmt st = stmt(SK::Word, line_no);
                if (const auto v = parse_number(tok, line_no)) {
                    st.ops[0].kind = Kind::Imm;
                    st.ops[0].value = static_cast<std::int32_t>(*v);
                } else {
                    st.ops[0] = parse_symref(tok, line_no);
                }
                b_.add(st, source_);
            });
        } else if (name == ".byte") {
            for_each_operand(args, [&](std::string_view tok) {
                const auto v = parse_number(tok, line_no);
                if (!v) {
                    throw ParseError("bad .byte operand '" + std::string(tok) + "'", line_no);
                }
                add_value(SK::Byte, *v, line_no);
            });
        } else if (name == ".ascii" || name == ".asciz" || name == ".file") {
            string_bytes_.clear();
            unescape_string(args, line_no, string_bytes_);
            add_bytes(name == ".ascii" ? SK::Ascii : name == ".asciz" ? SK::Asciz : SK::File,
                      line_no);
        } else if (name == ".space") {
            add_value(SK::Space, number_operand(args, ".space", line_no), line_no);
        } else if (name == ".redzone") {
            add_value(SK::Redzone, number_operand(args, ".redzone", line_no), line_no);
        } else if (name == ".align") {
            add_value(SK::Align, number_operand(args, ".align", line_no), line_no);
        } else if (name == ".bss") {
            add_value(SK::Bss, number_operand(args, ".bss", line_no), line_no);
        } else {
            throw ParseError("unknown directive '" + std::string(name) + "'", line_no);
        }
    }

    /// name, name+N or name-N
    AsmOperand parse_symref(std::string_view tok, int line_no) const {
        if (tok.empty() || !is_ident_start(tok[0])) {
            throw ParseError("expected symbol, got '" + std::string(tok) + "'", line_no);
        }
        std::size_t j = 0;
        while (j < tok.size() && is_ident_char(tok[j])) {
            ++j;
        }
        AsmOperand op;
        op.kind = Kind::Sym;
        op.sym = ref(tok.substr(0, j));
        const std::string_view rest = trim(tok.substr(j));
        if (!rest.empty()) {
            const auto v = parse_number(rest, line_no);
            if (!v) {
                throw ParseError("bad symbol addend '" + std::string(rest) + "'", line_no);
            }
            op.value = static_cast<std::int32_t>(*v);
        }
        return op;
    }

    AsmOperand parse_operand(std::string_view tok, int line_no) const {
        AsmOperand op;
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
            op.kind = Kind::Mem;
            op.reg = *base;
            if (split != std::string_view::npos) {
                const auto v = parse_number(trim(inner.substr(split)), line_no);
                if (!v) {
                    throw ParseError("bad displacement in '" + std::string(tok) + "'", line_no);
                }
                op.value = static_cast<std::int32_t>(*v);
            }
            return op;
        }
        if (const auto r = isa::parse_reg(tok)) {
            op.kind = Kind::Reg;
            op.reg = *r;
            return op;
        }
        if (const auto v = parse_number(tok, line_no)) {
            op.kind = Kind::Imm;
            op.value = static_cast<std::int32_t>(*v);
            return op;
        }
        return parse_symref(tok, line_no);
    }

    void instruction(std::string_view line, int line_no) {
        if (b_.section() != SectionKind::Text) {
            throw ParseError("instruction outside .text", line_no);
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
        AsmStmt st = stmt(AsmStmt::Kind::Insn, line_no);
        st.op = emit_op(*m, line_no);
        if (m->form != Form::None) { // a none-form's operands are ignored
            st.nops = static_cast<std::uint8_t>(ops_.size());
            std::copy(ops_.begin(), ops_.end(), st.ops);
        }
        b_.add(st, source_);
    }

    void expect_ops(std::size_t n, int line_no) const {
        if (ops_.size() != n) {
            throw ParseError("'" + mnemonic_ + "' expects " + std::to_string(n) + " operand(s)",
                             line_no);
        }
    }

    /// The shape check of the common two-operand forms.
    void expect_kinds(Kind a, Kind b, const char* shape, int line_no) const {
        expect_ops(2, line_no);
        if (ops_[0].kind != a || ops_[1].kind != b) {
            throw ParseError("'" + mnemonic_ + "' expects" + shape, line_no);
        }
    }

    /// One operand of kind `k`, else `mn + message`.
    void single(Kind k, const char* message, int line_no) const {
        expect_ops(1, line_no);
        if (ops_[0].kind != k) {
            throw ParseError(mnemonic_ + message, line_no);
        }
    }

    /// Two operands, the first a register.
    void reg_first(int line_no) const {
        expect_ops(2, line_no);
        if (ops_[0].kind != Kind::Reg) {
            throw ParseError("'" + mnemonic_ + "' first operand must be a register", line_no);
        }
    }

    Op branch(Op op, int line_no) const {
        expect_ops(1, line_no);
        if (ops_[0].kind != Kind::Sym && ops_[0].kind != Kind::Imm) {
            throw ParseError("'" + mnemonic_ + "' expects a label", line_no);
        }
        return op; // a number is a raw relative displacement
    }

    /// Check the operands' shape against the mnemonic's form and pick the
    /// encoding it selects.
    Op emit_op(const Mnemonic& m, int line_no) const {
        switch (m.form) {
        case Form::None:
            return m.op;
        case Form::RegOnly:
            single(Kind::Reg, " expects a register", line_no);
            return m.op;
        case Form::Push:
            expect_ops(1, line_no);
            if (ops_[0].kind == Kind::Mem) {
                throw ParseError("bad push operand", line_no);
            }
            return ops_[0].kind == Kind::Reg ? m.op : m.alt;
        case Form::PushImm:
            single(Kind::Imm, " expects an immediate", line_no);
            return m.op;
        case Form::Alu:
            reg_first(line_no);
            if (ops_[1].kind == Kind::Mem) {
                throw ParseError("'" + mnemonic_ + "' cannot take a memory operand", line_no);
            }
            return ops_[1].kind == Kind::Reg ? m.op : m.alt;
        case Form::RegImm32:
            expect_kinds(Kind::Reg, Kind::Imm, ": reg, imm32", line_no);
            return m.op;
        case Form::Shift:
            reg_first(line_no);
            if (ops_[1].kind != Kind::Reg && ops_[1].kind != Kind::Imm) {
                throw ParseError("bad shift operand", line_no);
            }
            return ops_[1].kind == Kind::Reg ? m.op : m.alt;
        case Form::RegImm8:
            expect_kinds(Kind::Reg, Kind::Imm, ": reg, imm8", line_no);
            return m.op;
        case Form::RegReg:
            expect_kinds(Kind::Reg, Kind::Reg, " two registers", line_no);
            return m.op;
        case Form::Load:
            expect_kinds(Kind::Reg, Kind::Mem, ": reg, [base+disp]", line_no);
            return m.op;
        case Form::Store:
            expect_kinds(Kind::Mem, Kind::Reg, ": [base+disp], reg", line_no);
            return m.op;
        case Form::JmpOrCall:
            if (ops_.size() == 1 && ops_[0].kind == Kind::Reg) {
                return m.alt;
            }
            return branch(m.op, line_no);
        case Form::Branch:
            return branch(m.op, line_no);
        case Form::Sys:
            single(Kind::Imm, " expects an immediate", line_no);
            return m.op;
        case Form::CJmp:
            single(Kind::Imm, " expects a capability index", line_no);
            return m.op;
        }
        return m.op;
    }
};

} // namespace

objfmt::ObjectFile assemble(const std::string& source, const std::string& unit_name) {
    return Assembler(source, unit_name).run();
}

// ---------------------------------------------------------------------------
// Rendering: a statement list back to text
// ---------------------------------------------------------------------------

namespace {

/// unescape_string, inverted.
void append_escaped(std::string& out, std::string_view s) {
    for (const char c : s) {
        switch (c) {
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\0':
            out += "\\0";
            break;
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        default:
            out.push_back(c);
        }
    }
}

void append_operand(std::string& out, const AsmList& list, const AsmOperand& o) {
    switch (o.kind) {
    case Kind::Reg:
        out += isa::reg_name(o.reg);
        break;
    case Kind::Imm:
        out += std::to_string(o.value);
        break;
    case Kind::Sym:
        out += list.str(o.sym);
        if (o.value > 0) {
            out += '+';
        }
        if (o.value != 0) {
            out += std::to_string(o.value);
        }
        break;
    case Kind::Mem:
        out += '[';
        out += isa::reg_name(o.reg);
        if (o.value >= 0) {
            out += '+';
        }
        out += std::to_string(o.value);
        out += ']';
        break;
    }
}

void append_directive(std::string& out, const char* name, std::int64_t value) {
    out += name;
    out += std::to_string(value);
}

} // namespace

std::string render(const AsmList& list) {
    using SK = AsmStmt::Kind;
    std::string out;
    out.reserve(list.stmts.size() * 16 + list.strtab.size());
    for (std::size_t i = 0; i < list.stmts.size(); ++i) {
        const AsmStmt& s = list.stmts[i];
        switch (s.kind) {
        case SK::Insn:
            out += "  ";
            out += written_mnemonic(s.op);
            for (std::size_t k = 0; k < s.nops; ++k) {
                out += k == 0 ? " " : ", ";
                append_operand(out, list, s.ops[k]);
            }
            break;
        case SK::Label:
            out += list.str(s.str);
            out += ':';
            break;
        case SK::Text:
            out += ".text";
            break;
        case SK::Data:
            out += ".data";
            break;
        case SK::Global:
            out += ".global ";
            out += list.str(s.str);
            break;
        case SK::Func:
            out += ".func ";
            out += list.str(s.str);
            break;
        case SK::Entry:
            out += ".entry ";
            out += list.str(s.str);
            break;
        case SK::Line:
            append_directive(out, "  .line ", s.value);
            break;
        case SK::File:
        case SK::Ascii:
        case SK::Asciz:
            out += s.kind == SK::File ? ".file \"" : s.kind == SK::Ascii ? ".ascii \"" : ".asciz \"";
            append_escaped(out, list.str(s.str));
            out += '"';
            break;
        case SK::Word:
            out += ".word ";
            append_operand(out, list, s.ops[0]);
            break;
        case SK::Byte:
            append_directive(out, ".byte ", s.value);
            break;
        case SK::Space:
            append_directive(out, ".space ", s.value);
            break;
        case SK::Redzone:
            append_directive(out, ".redzone ", s.value);
            break;
        case SK::Align:
            append_directive(out, ".align ", s.value);
            break;
        case SK::Bss:
            append_directive(out, ".bss ", s.value);
            break;
        case SK::Comment:
            out += "  ; ";
            out += list.str(s.str);
            break;
        case SK::Blank:
            break;
        }
        const bool joined = s.kind == SK::Label && i + 1 < list.stmts.size() &&
                            list.stmts[i + 1].line == s.line;
        out += joined ? ' ' : '\n';
    }
    return out;
}

} // namespace swsec::assembler
