#include "fuzz/mutate.hpp"

#include <cstddef>
#include <limits>
#include <utility>

namespace swsec::fuzz {

namespace {

constexpr std::int32_t kIntMin = std::numeric_limits<std::int32_t>::min();

/// Render a value as a MiniC expression.  MiniC has no negative literals
/// (unary minus parses as an operator) and the lexer reads digits into
/// int64, so negatives (and INT_MIN in particular) are spelled
/// arithmetically.
std::string lit(std::int32_t v) {
    if (v == kIntMin) {
        return "(0 - 2147483647 - 1)";
    }
    if (v < 0) {
        return "(0 - " + std::to_string(-static_cast<std::int64_t>(v)) + ")";
    }
    return std::to_string(v);
}

/// Boundary-heavy leaf pool: the wrap/overflow corners live at the extremes.
constexpr std::int32_t kInteresting[] = {
    0,   1,   2,   3,    5,     7,          10,      31, 32,
    100, 255, 256, 4095, 65535, 2147483647, kIntMin, -1, -2,
    -8,  -100,
};

std::int32_t leaf_value(Rng& rng) {
    if (rng.below(4) == 0) {
        return static_cast<std::int32_t>(rng.next_u32());
    }
    return kInteresting[rng.below(sizeof(kInteresting) / sizeof(kInteresting[0]))];
}

const std::vector<const char*>& combine_ops() {
    static const std::vector<const char*> ops = {"^", "+", "-"};
    return ops;
}

// ---- expression rendering --------------------------------------------------

/// Run-time form: Var leaves resolve into `scope` (mod size).  Every reduce
/// happens here, so no model state can render out of range.
std::string render_rt(const Expr& e, const std::vector<std::string>& scope) {
    switch (e.kind) {
    case Expr::Kind::Var:
        if (!scope.empty()) {
            return scope[e.var % scope.size()];
        }
        [[fallthrough]];
    case Expr::Kind::Lit:
        return lit(e.lit);
    case Expr::Kind::Unary: {
        if (e.kids.empty()) {
            return lit(e.lit);
        }
        const auto& ops = unary_ops();
        return "(" + std::string(ops[e.op % ops.size()]) + render_rt(e.kids[0], scope) + ")";
    }
    case Expr::Kind::Binary: {
        if (e.kids.size() < 2) {
            return lit(e.lit);
        }
        const auto& ops = binary_ops();
        const BinOp& op = ops[e.op % ops.size()];
        const std::string a = render_rt(e.kids[0], scope);
        std::string b = render_rt(e.kids[1], scope);
        if (op.cls == 1) {
            b = "(" + b + " | 1)"; // never divide by zero
        }
        return "(" + a + " " + op.text + " " + b + ")";
    }
    }
    return "0";
}

/// Constant form, rendered twice: `folded` uses bare literals (the compiler
/// folds the global initialiser); `runtime` routes every leaf through
/// `__zero` so the VM's ALU recomputes it.  Var leaves degrade to their
/// `lit` payload — const expressions cannot name run-time state.
struct ConstText {
    std::string folded;
    std::string runtime;
};

ConstText render_const(const Expr& e) {
    switch (e.kind) {
    case Expr::Kind::Lit:
    case Expr::Kind::Var: {
        const std::string l = lit(e.lit);
        return {l, "(" + l + " + __zero)"};
    }
    case Expr::Kind::Unary: {
        if (e.kids.empty()) {
            const std::string l = lit(e.lit);
            return {l, "(" + l + " + __zero)"};
        }
        const auto& ops = unary_ops();
        const std::string op = ops[e.op % ops.size()];
        const ConstText sub = render_const(e.kids[0]);
        return {"(" + op + sub.folded + ")", "(" + op + sub.runtime + ")"};
    }
    case Expr::Kind::Binary: {
        if (e.kids.size() < 2) {
            const std::string l = lit(e.lit);
            return {l, "(" + l + " + __zero)"};
        }
        const auto& ops = binary_ops();
        const BinOp& op = ops[e.op % ops.size()];
        const ConstText a = render_const(e.kids[0]);
        ConstText b = render_const(e.kids[1]);
        if (op.cls == 1) {
            b.folded = "(" + b.folded + " | 1)";
            b.runtime = "(" + b.runtime + " | 1)";
        }
        return {"(" + a.folded + " " + op.text + " " + b.folded + ")",
                "(" + a.runtime + " " + op.text + " " + b.runtime + ")"};
    }
    }
    return {"0", "(0 + __zero)"};
}

// ---- expression generation -------------------------------------------------

Expr gen_expr(Rng& rng, int depth, bool allow_vars) {
    Expr e;
    if (depth <= 0 || rng.below(3) == 0) {
        if (allow_vars && rng.below(2) == 0) {
            e.kind = Expr::Kind::Var;
            e.var = rng.next_u32();
            e.lit = leaf_value(rng); // fallback payload if rendered const
        } else {
            e.kind = Expr::Kind::Lit;
            e.lit = leaf_value(rng);
        }
        return e;
    }
    if (rng.below(5) == 0) {
        e.kind = Expr::Kind::Unary;
        e.op = static_cast<std::uint8_t>(rng.below(static_cast<std::uint32_t>(unary_ops().size())));
        e.kids.push_back(gen_expr(rng, depth - 1, allow_vars));
        return e;
    }
    e.kind = Expr::Kind::Binary;
    e.op = static_cast<std::uint8_t>(rng.below(static_cast<std::uint32_t>(binary_ops().size())));
    e.kids.push_back(gen_expr(rng, depth - 1, allow_vars));
    e.kids.push_back(gen_expr(rng, depth - 1, allow_vars));
    return e;
}

// The flat statement kinds come first, so `rng.below(kFlatKinds)` draws
// exactly them; Str and Rec stay last.
static_assert(static_cast<int>(ChunkModel::Kind::FoldCheck) == 6 &&
              static_cast<int>(ChunkModel::Kind::Str) == 7 &&
              static_cast<int>(ChunkModel::Kind::Rec) == 8);
constexpr std::uint32_t kFlatKinds = 7;
constexpr std::uint32_t kAllKinds = 9;

/// Draw one chunk whose kind is among the first `kinds` ChunkModel kinds.
ChunkModel gen_chunk(Rng& rng, std::uint32_t kinds = kAllKinds) {
    ChunkModel c;
    c.kind = static_cast<ChunkModel::Kind>(rng.below(kinds));
    switch (c.kind) {
    case ChunkModel::Kind::Expr:
        c.e1 = gen_expr(rng, 3, true);
        break;
    case ChunkModel::Kind::Loop:
        c.c1 = leaf_value(rng);
        c.n = rng.next_u32();
        c.e1 = gen_expr(rng, 2, true);
        break;
    case ChunkModel::Kind::Array:
        c.n = rng.next_u32();
        c.e1 = gen_expr(rng, 1, true);
        break;
    case ChunkModel::Kind::Heap:
        c.n = rng.next_u32();
        c.c1 = static_cast<std::int32_t>(rng.next_u32());
        c.at = rng.next_u32();
        break;
    case ChunkModel::Kind::Call:
        c.e1 = gen_expr(rng, 1, true);
        c.e2 = gen_expr(rng, 1, true);
        c.target = static_cast<std::uint8_t>(rng.below(256));
        break;
    case ChunkModel::Kind::Branch:
        c.e1 = gen_expr(rng, 2, true);
        c.c1 = leaf_value(rng);
        c.c2 = leaf_value(rng);
        c.c3 = leaf_value(rng);
        break;
    case ChunkModel::Kind::FoldCheck:
        c.e1 = gen_expr(rng, 2 + static_cast<int>(rng.below(2)), false);
        break;
    case ChunkModel::Kind::Str:
        c.n = rng.next_u32();
        c.c1 = static_cast<std::int32_t>(rng.next_u32());
        c.c2 = static_cast<std::int32_t>(rng.next_u32());
        c.c3 = static_cast<std::int32_t>(rng.below(64));
        break;
    case ChunkModel::Kind::Rec:
        c.n = rng.next_u32();
        c.c1 = leaf_value(rng);
        c.target = static_cast<std::uint8_t>(rng.below(256));
        break;
    }
    return c;
}

// ---- chunk rendering -------------------------------------------------------

/// One deterministic string byte: nonzero (|1 keeps NUL out of the body, so
/// strlen is exact) and free to land anywhere in 1..255 — including the
/// >= 0x80 range the strcmp unsigned-char test cares about.
std::uint32_t str_byte(std::uint32_t seed, std::uint32_t stride, std::uint32_t k) {
    return ((seed + k * stride) & 0xFFu) | 1u;
}

std::string render_chunk(const ChunkModel& c, std::size_t idx,
                         const std::vector<std::string>& globals, std::size_t n_helpers,
                         std::vector<std::string>& extra_globals,
                         std::vector<std::string>& extra_helpers) {
    const std::string sfx = std::to_string(idx);
    switch (c.kind) {
    case ChunkModel::Kind::Expr: {
        return "  int t" + sfx + " = " + render_rt(c.e1, globals) + ";\n"
               "  print_int(t" + sfx + "); puts(\"\");\n";
    }
    case ChunkModel::Kind::Loop: {
        const std::string n = std::to_string(2 + c.n % 63);
        std::vector<std::string> vars = globals;
        vars.push_back("i" + sfx);
        vars.push_back("acc" + sfx);
        return "  int acc" + sfx + " = " + lit(c.c1) + ";\n"
               "  for (int i" + sfx + " = 0; i" + sfx + " < " + n + "; i" + sfx + " = i" + sfx +
               " + 1) {\n"
               "    acc" + sfx + " = acc" + sfx + " + " + render_rt(c.e1, vars) + ";\n"
               "  }\n"
               "  print_int(acc" + sfx + "); puts(\"\");\n";
    }
    case ChunkModel::Kind::Array: {
        const std::string n = std::to_string(2 + c.n % 7);
        std::vector<std::string> vars = globals;
        vars.push_back("i" + sfx);
        return "  int arr" + sfx + "[" + n + "];\n"
               "  for (int i" + sfx + " = 0; i" + sfx + " < " + n + "; i" + sfx + " = i" + sfx +
               " + 1) {\n"
               "    arr" + sfx + "[i" + sfx + "] = " + render_rt(c.e1, vars) + ";\n"
               "  }\n"
               "  int s" + sfx + " = 0;\n"
               "  for (int i" + sfx + " = 0; i" + sfx + " < " + n + "; i" + sfx + " = i" + sfx +
               " + 1) {\n"
               "    s" + sfx + " = s" + sfx + " + arr" + sfx + "[i" + sfx + "];\n"
               "  }\n"
               "  print_int(s" + sfx + "); puts(\"\");\n";
    }
    case ChunkModel::Kind::Heap: {
        const std::uint32_t bytes = 8 + 4 * (c.n % 15);
        const std::string fill = std::to_string(1 + static_cast<std::uint32_t>(c.c1) % 120);
        const std::string at = std::to_string(c.at % bytes);
        return "  char* p" + sfx + " = malloc(" + std::to_string(bytes) + ");\n"
               "  if ((int)p" + sfx + " != 0) {\n"
               "    memset(p" + sfx + ", " + fill + ", " + std::to_string(bytes) + ");\n"
               "    print_int(p" + sfx + "[" + at + "]); puts(\"\");\n"
               "    free(p" + sfx + ");\n"
               "  }\n";
    }
    case ChunkModel::Kind::Call: {
        const std::string fn = "mix" + std::to_string(n_helpers == 0 ? 0 : c.target % n_helpers);
        return "  print_int(" + fn + "(" + render_rt(c.e1, globals) + ", " +
               render_rt(c.e2, globals) + ")); puts(\"\");\n";
    }
    case ChunkModel::Kind::Branch: {
        return "  if (" + render_rt(c.e1, globals) + " < " + lit(c.c1) + ") {\n"
               "    print_int(" + lit(c.c2) + ");\n"
               "  } else {\n"
               "    print_int(" + lit(c.c3) + ");\n"
               "  }\n"
               "  puts(\"\");\n";
    }
    case ChunkModel::Kind::FoldCheck: {
        const ConstText ce = render_const(c.e1);
        const std::string g = "c" + sfx;
        extra_globals.push_back("int " + g + " = " + ce.folded + ";");
        return "  int r" + sfx + " = " + ce.runtime + ";\n"
               "  if (" + g + " != r" + sfx + ") {\n"
               "    puts(\"" + std::string(kFoldMismatchMarker) + "\");\n"
               "    print_int(" + g + "); puts(\"\");\n"
               "    print_int(r" + sfx + "); puts(\"\");\n"
               "  }\n";
    }
    case ChunkModel::Kind::Str: {
        const std::uint32_t len = 1 + c.n % 8;
        const std::uint32_t seed = static_cast<std::uint32_t>(c.c1);
        const std::uint32_t stride = static_cast<std::uint32_t>(c.c2);
        const std::uint32_t flip_at = static_cast<std::uint32_t>(c.c3) % len;
        std::string body;
        body += "  char* sa" + sfx + " = malloc(" + std::to_string(len + 1) + ");\n";
        body += "  char* sb" + sfx + " = malloc(" + std::to_string(len + 1) + ");\n";
        body += "  if ((int)sa" + sfx + " != 0) {\n";
        body += "  if ((int)sb" + sfx + " != 0) {\n";
        for (std::uint32_t k = 0; k < len; ++k) {
            const std::uint32_t a = str_byte(seed, stride, k);
            // The sibling string differs in exactly one position with the
            // high bit flipped: the strcmp sign depends on whether byte
            // comparison treats 0x80.. as negative or as 128..255.
            std::uint32_t b = a;
            if (k == flip_at) {
                b = ((a ^ 0x80u) & 0xFFu) | 1u;
            }
            body += "    sa" + sfx + "[" + std::to_string(k) + "] = " + std::to_string(a) + ";\n";
            body += "    sb" + sfx + "[" + std::to_string(k) + "] = " + std::to_string(b) + ";\n";
        }
        body += "    sa" + sfx + "[" + std::to_string(len) + "] = 0;\n";
        body += "    sb" + sfx + "[" + std::to_string(len) + "] = 0;\n";
        body += "    print_int(strlen(sa" + sfx + ")); puts(\"\");\n";
        body += "    print_int(strcmp(sa" + sfx + ", sb" + sfx + ")); puts(\"\");\n";
        body += "    print_int(strcmp(sb" + sfx + ", sa" + sfx + ")); puts(\"\");\n";
        body += "    strcpy(sa" + sfx + ", sb" + sfx + ");\n";
        body += "    print_int(strcmp(sa" + sfx + ", sb" + sfx + ")); puts(\"\");\n";
        body += "    free(sb" + sfx + ");\n";
        body += "    free(sa" + sfx + ");\n";
        body += "  }\n";
        body += "  }\n";
        return body;
    }
    case ChunkModel::Kind::Rec: {
        // Bounded linear self-recursion: each frame owns a char array (so a
        // per-frame canary and per-frame memcheck red zones exist) and the
        // unwind re-reads it.  Stresses call/ret/leave, shadow-stack depth,
        // and frame teardown — surface the flat chunks never touch.
        // Depth caps at ~98 frames: far under the 256 KiB stack even with
        // memcheck's fattened frames.
        const auto& ops = binary_ops();
        std::vector<const BinOp*> total;
        for (const auto& op : ops) {
            if (op.cls == 0) {
                total.push_back(&op);
            }
        }
        const BinOp& op = *total[c.target % total.size()];
        const std::string depth = std::to_string(2 + c.n % 96);
        const std::string fn = "rec" + sfx;
        extra_helpers.push_back(
            "int " + fn + "(int n) {\n"
            "  char pad" + sfx + "[8];\n"
            "  pad" + sfx + "[0] = (char)n;\n"
            "  pad" + sfx + "[7] = (char)(n + 1);\n"
            "  if (n <= 1) {\n"
            "    return pad" + sfx + "[0] + pad" + sfx + "[7];\n"
            "  }\n"
            "  return " + fn + "(n - 1) + (n " + op.text + " " + lit(c.c1) + ");\n"
            "}\n");
        return "  print_int(" + fn + "(" + depth + ")); puts(\"\");\n";
    }
    }
    return "";
}

// ---- havoc site collection -------------------------------------------------

void collect_nodes(Expr& e, std::vector<Expr*>& lits, std::vector<Expr*>& bins) {
    if (e.kind == Expr::Kind::Lit) {
        lits.push_back(&e);
    } else if (e.kind == Expr::Kind::Binary) {
        bins.push_back(&e);
    }
    for (auto& k : e.kids) {
        collect_nodes(k, lits, bins);
    }
}

void collect_model(ProgramModel& m, std::vector<Expr*>& lits, std::vector<Expr*>& bins) {
    for (auto& g : m.global_inits) {
        collect_nodes(g, lits, bins);
    }
    for (auto& c : m.chunks) {
        collect_nodes(c.e1, lits, bins);
        collect_nodes(c.e2, lits, bins);
        collect_nodes(c.e3, lits, bins);
    }
}

/// Rotate a binary operator to a *different* op of the same mutation class
/// (total ops stay total, guarded divisions stay guarded, comparisons stay
/// comparisons) so the benignity argument is untouched.
void rotate_op(Expr& e, Rng& rng) {
    const auto& ops = binary_ops();
    const std::size_t cur = e.op % ops.size();
    std::vector<std::uint8_t> same;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (i != cur && ops[i].cls == ops[cur].cls) {
            same.push_back(static_cast<std::uint8_t>(i));
        }
    }
    if (!same.empty()) {
        e.op = same[rng.below(static_cast<std::uint32_t>(same.size()))];
    }
}

constexpr std::size_t kMaxChunks = 12;

} // namespace

const std::vector<BinOp>& binary_ops() {
    static const std::vector<BinOp> ops = {
        {"+", 0}, {"-", 0}, {"*", 0},  {"&", 0},  {"|", 0},  {"^", 0},  {"<<", 0},
        {">>", 0}, {"/", 1}, {"%", 1}, {"<", 2},  {"<=", 2}, {"==", 2}, {"!=", 2},
    };
    return ops;
}

const std::vector<const char*>& unary_ops() {
    static const std::vector<const char*> ops = {"-", "~"};
    return ops;
}

GenProgram ProgramModel::render() const {
    GenProgram p;
    p.seed = seed;
    p.globals.push_back("int __zero = 0;");

    std::vector<std::string> names;
    names.reserve(global_inits.size());
    for (std::size_t i = 0; i < global_inits.size(); ++i) {
        std::string name = "g" + std::to_string(i);
        p.globals.push_back("int " + name + " = " + render_const(global_inits[i]).folded + ";");
        names.push_back(std::move(name));
    }

    for (std::size_t j = 0; j < helpers.size(); ++j) {
        const Helper& h = helpers[j];
        const auto& comb = combine_ops();
        p.helpers.push_back("int mix" + std::to_string(j) + "(int a, int b) {\n"
                            "  int r = a ^ (b << " + std::to_string(h.k1 % 31 + 1) + ");\n"
                            "  r = r + (a >> " + std::to_string(h.k2 % 31 + 1) + ");\n"
                            "  return r " + comb[h.op % comb.size()] + " " + lit(h.c) + ";\n"
                            "}\n");
    }

    std::vector<std::string> extra_globals;
    std::vector<std::string> extra_helpers;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        p.chunks.push_back(
            render_chunk(chunks[i], i, names, helpers.size(), extra_globals, extra_helpers));
    }
    for (auto& g : extra_globals) {
        p.globals.push_back(std::move(g));
    }
    for (auto& h : extra_helpers) {
        p.helpers.push_back(std::move(h));
    }
    return p;
}

namespace {

ProgramModel draw_model(std::uint64_t seed, std::uint32_t kinds) {
    ProgramModel m;
    m.seed = seed;
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xE001ULL);

    const int n_globals = 2 + static_cast<int>(rng.below(3));
    for (int i = 0; i < n_globals; ++i) {
        m.global_inits.push_back(gen_expr(rng, 1 + static_cast<int>(rng.below(2)), false));
    }

    const int n_helpers = 1 + static_cast<int>(rng.below(2));
    for (int j = 0; j < n_helpers; ++j) {
        ProgramModel::Helper h;
        h.k1 = rng.below(31) + 1;
        h.k2 = rng.below(31) + 1;
        h.c = leaf_value(rng);
        h.op = static_cast<std::uint8_t>(rng.below(3));
        m.helpers.push_back(h);
    }

    const int n_chunks = 3 + static_cast<int>(rng.below(5));
    for (int i = 0; i < n_chunks; ++i) {
        m.chunks.push_back(gen_chunk(rng, kinds));
    }
    return m;
}

int expr_depth(const Expr& e) {
    int d = 0;
    for (const Expr& k : e.kids) {
        const int kd = expr_depth(k);
        d = kd > d ? kd : d;
    }
    return d + 1;
}

} // namespace

ProgramModel generate_model(std::uint64_t seed) { return draw_model(seed, kAllKinds); }

GenProgram generate_program(std::uint64_t seed) { return draw_model(seed, kFlatKinds).render(); }

ProgramModel havoc(const ProgramModel& parent, Rng& rng) {
    ProgramModel m = parent;
    const int n_mut = 1 + static_cast<int>(rng.below(3));
    for (int t = 0; t < n_mut; ++t) {
        switch (rng.below(9)) {
        case 0: { // operator rotation, in class
            std::vector<Expr*> lits, bins;
            collect_model(m, lits, bins);
            if (!bins.empty()) {
                rotate_op(*bins[rng.below(static_cast<std::uint32_t>(bins.size()))], rng);
            }
            break;
        }
        case 1: { // literal replacement
            std::vector<Expr*> lits, bins;
            collect_model(m, lits, bins);
            if (!lits.empty()) {
                lits[rng.below(static_cast<std::uint32_t>(lits.size()))]->lit = leaf_value(rng);
            }
            break;
        }
        case 2: { // bound / scalar perturbation (renderer reduces into range)
            if (!m.chunks.empty()) {
                ChunkModel& c = m.chunks[rng.below(static_cast<std::uint32_t>(m.chunks.size()))];
                switch (rng.below(4)) {
                case 0: c.n = rng.next_u32(); break;
                case 1: c.at = rng.next_u32(); break;
                case 2: c.c1 = leaf_value(rng); break;
                default: c.c2 = leaf_value(rng); c.c3 = leaf_value(rng); break;
                }
            }
            break;
        }
        case 3: { // call-target flip
            if (!m.chunks.empty()) {
                m.chunks[rng.below(static_cast<std::uint32_t>(m.chunks.size()))].target =
                    static_cast<std::uint8_t>(rng.below(256));
            }
            break;
        }
        case 4: { // chunk duplication
            if (!m.chunks.empty() && m.chunks.size() < kMaxChunks) {
                const ChunkModel c = m.chunks[rng.below(static_cast<std::uint32_t>(m.chunks.size()))];
                m.chunks.insert(
                    m.chunks.begin() + rng.below(static_cast<std::uint32_t>(m.chunks.size()) + 1), c);
            }
            break;
        }
        case 5: { // chunk drop (always keep one)
            if (m.chunks.size() > 1) {
                m.chunks.erase(m.chunks.begin() +
                               rng.below(static_cast<std::uint32_t>(m.chunks.size())));
            }
            break;
        }
        case 6: { // chunk regeneration
            if (!m.chunks.empty()) {
                m.chunks[rng.below(static_cast<std::uint32_t>(m.chunks.size()))] = gen_chunk(rng);
            }
            break;
        }
        case 7: { // expression deepening (grows register pressure past the
                  // generator's depth cap; renderer keeps every op total)
            std::vector<Expr*> lits, bins;
            collect_model(m, lits, bins);
            std::vector<Expr*> nodes = lits;
            nodes.insert(nodes.end(), bins.begin(), bins.end());
            if (!nodes.empty()) {
                Expr& e = *nodes[rng.below(static_cast<std::uint32_t>(nodes.size()))];
                if (expr_depth(e) < 40) {
                    Expr wrapped;
                    wrapped.kind = Expr::Kind::Binary;
                    wrapped.op = static_cast<std::uint8_t>(
                        rng.below(static_cast<std::uint32_t>(binary_ops().size())));
                    Expr leaf;
                    leaf.kind = Expr::Kind::Lit;
                    leaf.lit = leaf_value(rng);
                    wrapped.kids.push_back(std::move(e));
                    wrapped.kids.push_back(std::move(leaf));
                    e = std::move(wrapped);
                }
            }
            break;
        }
        default: { // helper perturbation
            if (!m.helpers.empty()) {
                ProgramModel::Helper& h =
                    m.helpers[rng.below(static_cast<std::uint32_t>(m.helpers.size()))];
                h.k1 = rng.below(31) + 1;
                h.k2 = rng.below(31) + 1;
                if (rng.below(2) == 0) {
                    h.c = leaf_value(rng);
                }
                h.op = static_cast<std::uint8_t>(rng.below(3));
            }
            break;
        }
        }
    }
    return m;
}

ProgramModel splice(const ProgramModel& a, const ProgramModel& b, Rng& rng) {
    ProgramModel m;
    m.seed = a.seed;
    m.global_inits = a.global_inits;
    m.helpers = a.helpers;

    const std::uint32_t cut_a =
        a.chunks.empty() ? 0 : 1 + rng.below(static_cast<std::uint32_t>(a.chunks.size()));
    const std::uint32_t cut_b =
        b.chunks.empty() ? 0 : rng.below(static_cast<std::uint32_t>(b.chunks.size()));
    for (std::uint32_t i = 0; i < cut_a; ++i) {
        m.chunks.push_back(a.chunks[i]);
    }
    for (std::size_t i = cut_b; i < b.chunks.size() && m.chunks.size() < kMaxChunks; ++i) {
        m.chunks.push_back(b.chunks[i]);
    }
    if (m.chunks.empty()) {
        m.chunks.push_back(gen_chunk(rng));
    }
    return m;
}

} // namespace swsec::fuzz
