#include "cc/parser.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "cc/lexer.hpp"
#include "common/error.hpp"

namespace swsec::cc {

namespace {

class Parser {
public:
    explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

    Program run() {
        Program prog;
        while (!at(Tok::End)) {
            parse_top_level(prog);
        }
        return prog;
    }

private:
    std::vector<Token> toks_;
    std::size_t pos_ = 0;

    // --- token helpers ----------------------------------------------------
    [[nodiscard]] const Token& peek(int ahead = 0) const {
        const std::size_t i = pos_ + static_cast<std::size_t>(ahead);
        return i < toks_.size() ? toks_[i] : toks_.back();
    }
    [[nodiscard]] bool at(Tok k) const { return peek().kind == k; }
    const Token& advance() { return toks_[pos_++]; }
    bool accept(Tok k) {
        if (at(k)) {
            ++pos_;
            return true;
        }
        return false;
    }
    const Token& expect(Tok k, const char* what) {
        if (!at(k)) {
            throw ParseError(std::string("expected ") + what + ", got " + token_name(peek().kind),
                             peek().line);
        }
        return advance();
    }
    [[nodiscard]] int line() const { return peek().line; }

    // --- nesting (kMaxNesting) ----------------------------------------------
    // Two measures share the bound: depth_ counts the parser's own recursion
    // (top down), and Expr::height the tree it builds (bottom up: a chain
    // such as 1+1+1 is built by a loop, yet later passes recurse down it).
    int depth_ = 0;

    [[noreturn]] static void too_deep(int at_line) {
        throw ParseError("nesting deeper than " + std::to_string(kMaxNesting) + " levels",
                         at_line);
    }

    /// Go one level deeper at the current token.  A failed parse discards
    /// the parser, so only normal returns need to climb back out.
    void descend() {
        if (++depth_ > kMaxNesting) {
            too_deep(line());
        }
    }

    /// One level of nesting for the guard's lifetime.
    class Level {
    public:
        explicit Level(Parser& p) : p_(p) { p_.descend(); }
        ~Level() { --p_.depth_; }
        Level(const Level&) = delete;
        Level& operator=(const Level&) = delete;

    private:
        Parser& p_;
    };

    // --- types ------------------------------------------------------------
    [[nodiscard]] bool at_type_start() const {
        return at(Tok::KwInt) || at(Tok::KwChar) || at(Tok::KwVoid) || at(Tok::KwStatic);
    }

    TypePtr parse_base_type() {
        TypePtr base;
        if (accept(Tok::KwInt)) {
            base = Type::int_type();
        } else if (accept(Tok::KwChar)) {
            base = Type::char_type();
        } else if (accept(Tok::KwVoid)) {
            base = Type::void_type();
        } else {
            throw ParseError("expected type, got " + token_name(peek().kind), line());
        }
        const int outer = depth_;
        while (accept(Tok::Star)) {
            descend();
            base = Type::ptr_to(base);
        }
        depth_ = outer;
        return base;
    }

    /// base[n], refused when the array would exceed INT32_MAX bytes (a
    /// Type's size is an int).
    static TypePtr array_type(const TypePtr& base, const Token& n) {
        const std::int64_t bytes = std::int64_t{base->size()} * n.value;
        if (bytes > std::numeric_limits<std::int32_t>::max()) {
            throw ParseError("array of " + std::to_string(bytes) + " bytes is too large", n.line);
        }
        return Type::array_of(base, n.value);
    }

    /// Parse a declarator after the base type:
    ///   name            -> base
    ///   name[N]         -> base[N]
    ///   (*name)(params) -> pointer-to-function
    ///   name(params)    -> function-typed parameter (decays to pointer)
    /// `allow_func_param` enables the last two forms (parameter context).
    std::pair<std::string, TypePtr> parse_declarator(TypePtr base, bool allow_func_param) {
        if (accept(Tok::LParen)) {
            // (*name)(param-types)
            expect(Tok::Star, "'*' in function-pointer declarator");
            const std::string name = expect(Tok::Ident, "identifier").text;
            expect(Tok::RParen, "')'");
            expect(Tok::LParen, "'('");
            std::vector<TypePtr> params = parse_param_types();
            expect(Tok::RParen, "')'");
            return {name, Type::ptr_to(Type::func(base, std::move(params)))};
        }
        const std::string name = expect(Tok::Ident, "identifier").text;
        if (accept(Tok::LBracket)) {
            if (accept(Tok::RBracket)) {
                // unsized array parameter: decays to pointer
                return {name, Type::ptr_to(base)};
            }
            const Token& n = expect(Tok::Number, "array length");
            expect(Tok::RBracket, "']'");
            if (n.value <= 0) {
                throw ParseError("array length must be positive", n.line);
            }
            return {name, array_type(base, n)};
        }
        if (allow_func_param && at(Tok::LParen)) {
            // Fig. 4 style: "int get_pin()" as a parameter — a function type
            // that decays to pointer-to-function.
            advance();
            std::vector<TypePtr> params = parse_param_types();
            expect(Tok::RParen, "')'");
            return {name, Type::ptr_to(Type::func(base, std::move(params)))};
        }
        return {name, base};
    }

    std::vector<TypePtr> parse_param_types() {
        const Level level(*this);
        std::vector<TypePtr> out;
        if (at(Tok::RParen)) {
            return out;
        }
        if (at(Tok::KwVoid) && peek(1).kind == Tok::RParen) {
            advance();
            return out;
        }
        do {
            TypePtr base = parse_base_type();
            // optional parameter name and array suffix
            if (at(Tok::Ident)) {
                auto [name, ty] = parse_declarator(base, /*allow_func_param=*/true);
                (void)name;
                base = std::move(ty);
            }
            if (base->is_array()) {
                base = Type::ptr_to(base->pointee());
            }
            out.push_back(std::move(base));
        } while (accept(Tok::Comma));
        return out;
    }

    // --- top level ----------------------------------------------------------
    void parse_top_level(Program& prog) {
        const bool is_static = accept(Tok::KwStatic);
        TypePtr base = parse_base_type();
        auto [name, ty] = parse_declarator(base, /*allow_func_param=*/false);
        if (at(Tok::LParen)) {
            // function definition or prototype
            advance();
            FuncDef fn;
            fn.name = name;
            fn.ret = ty;
            fn.is_static = is_static;
            fn.line = line();
            if (!at(Tok::RParen)) {
                if (at(Tok::KwVoid) && peek(1).kind == Tok::RParen) {
                    advance();
                } else {
                    do {
                        TypePtr pbase = parse_base_type();
                        auto [pname, pty] = parse_declarator(pbase, /*allow_func_param=*/true);
                        if (pty->is_array()) {
                            pty = Type::ptr_to(pty->pointee());
                        }
                        fn.params.push_back(Param{pname, std::move(pty)});
                    } while (accept(Tok::Comma));
                }
            }
            expect(Tok::RParen, "')'");
            if (accept(Tok::Semi)) {
                prog.funcs.push_back(std::move(fn)); // prototype
                return;
            }
            fn.body = parse_block();
            prog.funcs.push_back(std::move(fn));
            return;
        }
        // global variable
        VarDecl g = finish_var_decl(std::move(name), std::move(ty), is_static);
        prog.globals.push_back(std::move(g));
    }

    VarDecl finish_var_decl(std::string name, TypePtr ty, bool is_static) {
        VarDecl d;
        d.name = std::move(name);
        d.type = std::move(ty);
        d.is_static = is_static;
        d.line = line();
        if (accept(Tok::Assign)) {
            if (at(Tok::StringLit)) {
                d.init_str = advance().text;
                d.has_init_str = true;
            } else {
                d.init = parse_assignment();
            }
        }
        expect(Tok::Semi, "';'");
        return d;
    }

    // --- statements ---------------------------------------------------------
    StmtPtr parse_block() {
        expect(Tok::LBrace, "'{'");
        auto blk = std::make_unique<Stmt>();
        blk->kind = Stmt::Kind::Block;
        blk->line = line();
        while (!at(Tok::RBrace)) {
            if (at(Tok::End)) {
                throw ParseError("unexpected end of input in block", line());
            }
            blk->body.push_back(parse_stmt());
        }
        expect(Tok::RBrace, "'}'");
        return blk;
    }

    StmtPtr parse_stmt() {
        const Level level(*this);
        auto s = std::make_unique<Stmt>();
        s->line = line();
        if (at(Tok::LBrace)) {
            return parse_block();
        }
        if (accept(Tok::Semi)) {
            s->kind = Stmt::Kind::Empty;
            return s;
        }
        if (at_type_start()) {
            const bool is_static = accept(Tok::KwStatic);
            TypePtr base = parse_base_type();
            auto [name, ty] = parse_declarator(base, /*allow_func_param=*/false);
            s->kind = Stmt::Kind::Decl;
            s->decl = finish_var_decl(std::move(name), std::move(ty), is_static);
            return s;
        }
        if (accept(Tok::KwIf)) {
            s->kind = Stmt::Kind::If;
            expect(Tok::LParen, "'('");
            s->expr = parse_expr();
            expect(Tok::RParen, "')'");
            s->then_branch = parse_stmt();
            if (accept(Tok::KwElse)) {
                s->else_branch = parse_stmt();
            }
            return s;
        }
        if (accept(Tok::KwWhile)) {
            s->kind = Stmt::Kind::While;
            expect(Tok::LParen, "'('");
            s->expr = parse_expr();
            expect(Tok::RParen, "')'");
            s->then_branch = parse_stmt();
            return s;
        }
        if (accept(Tok::KwFor)) {
            s->kind = Stmt::Kind::For;
            expect(Tok::LParen, "'('");
            if (!at(Tok::Semi)) {
                if (at_type_start()) {
                    const bool is_static = accept(Tok::KwStatic);
                    TypePtr base = parse_base_type();
                    auto [name, ty] = parse_declarator(base, false);
                    auto init = std::make_unique<Stmt>();
                    init->kind = Stmt::Kind::Decl;
                    init->line = s->line;
                    init->decl = finish_var_decl(std::move(name), std::move(ty), is_static);
                    s->init_stmt = std::move(init);
                } else {
                    auto init = std::make_unique<Stmt>();
                    init->kind = Stmt::Kind::ExprStmt;
                    init->line = s->line;
                    init->expr = parse_expr();
                    expect(Tok::Semi, "';'");
                    s->init_stmt = std::move(init);
                }
            } else {
                advance();
            }
            if (!at(Tok::Semi)) {
                s->expr = parse_expr();
            }
            expect(Tok::Semi, "';'");
            if (!at(Tok::RParen)) {
                s->step_expr = parse_expr();
            }
            expect(Tok::RParen, "')'");
            s->then_branch = parse_stmt();
            return s;
        }
        if (accept(Tok::KwReturn)) {
            s->kind = Stmt::Kind::Return;
            if (!at(Tok::Semi)) {
                s->expr = parse_expr();
            }
            expect(Tok::Semi, "';'");
            return s;
        }
        if (accept(Tok::KwBreak)) {
            s->kind = Stmt::Kind::Break;
            expect(Tok::Semi, "';'");
            return s;
        }
        if (accept(Tok::KwContinue)) {
            s->kind = Stmt::Kind::Continue;
            expect(Tok::Semi, "';'");
            return s;
        }
        s->kind = Stmt::Kind::ExprStmt;
        s->expr = parse_expr();
        expect(Tok::Semi, "';'");
        return s;
    }

    // --- expressions ----------------------------------------------------------
    ExprPtr parse_expr() { return parse_assignment(); }

    ExprPtr make_expr(Expr::Kind k) {
        auto e = std::make_unique<Expr>();
        e->kind = k;
        e->line = line();
        return e;
    }

    /// `e` once its operands are attached: one taller than its tallest
    /// operand, and refused past kMaxNesting.
    static ExprPtr seal(ExprPtr e) {
        int tallest = 0;
        for (const ExprPtr* operand : {&e->lhs, &e->rhs}) {
            if (*operand) {
                tallest = std::max(tallest, (*operand)->height);
            }
        }
        for (const ExprPtr& a : e->args) {
            tallest = std::max(tallest, a->height);
        }
        e->height = tallest + 1;
        if (e->height > kMaxNesting) {
            too_deep(e->line);
        }
        return e;
    }

    ExprPtr parse_assignment() {
        const Level level(*this);
        ExprPtr lhs = parse_conditional();
        if (at(Tok::Assign) || at(Tok::PlusAssign) || at(Tok::MinusAssign)) {
            const Tok op = advance().kind;
            ExprPtr rhs = parse_assignment();
            if (op != Tok::Assign) {
                // Desugar a += b into a = a + b (the lvalue is re-evaluated;
                // MiniC lvalues are side-effect free enough for this subset).
                auto bin = make_expr(Expr::Kind::Binary);
                bin->bin_op = (op == Tok::PlusAssign) ? BinOp::Add : BinOp::Sub;
                bin->lhs = clone_expr(*lhs);
                bin->rhs = std::move(rhs);
                rhs = seal(std::move(bin));
            }
            auto e = make_expr(Expr::Kind::Assign);
            e->lhs = std::move(lhs);
            e->rhs = std::move(rhs);
            return seal(std::move(e));
        }
        return lhs;
    }

    ExprPtr parse_conditional() {
        ExprPtr cond = parse_logical_or();
        if (!accept(Tok::Question)) {
            return cond;
        }
        auto e = make_expr(Expr::Kind::Cond);
        e->lhs = std::move(cond);
        e->rhs = parse_assignment(); // then-branch
        expect(Tok::Colon, "':'");
        const Level level(*this);
        e->args.push_back(parse_conditional()); // else-branch (right assoc)
        return seal(std::move(e));
    }

    // Clone of a (simple) expression tree; used for compound-assign desugar.
    static ExprPtr clone_expr(const Expr& src) {
        auto e = std::make_unique<Expr>();
        e->kind = src.kind;
        e->line = src.line;
        e->height = src.height;
        e->value = src.value;
        e->str = src.str;
        e->name = src.name;
        e->un_op = src.un_op;
        e->bin_op = src.bin_op;
        e->cast_type = src.cast_type;
        if (src.lhs) {
            e->lhs = clone_expr(*src.lhs);
        }
        if (src.rhs) {
            e->rhs = clone_expr(*src.rhs);
        }
        for (const auto& a : src.args) {
            e->args.push_back(clone_expr(*a));
        }
        return e;
    }

    ExprPtr parse_binary_chain(ExprPtr (Parser::*next)(), std::initializer_list<std::pair<Tok, BinOp>> ops) {
        ExprPtr lhs = (this->*next)();
        for (;;) {
            bool matched = false;
            for (const auto& [tok, op] : ops) {
                if (at(tok)) {
                    advance();
                    auto e = make_expr(Expr::Kind::Binary);
                    e->bin_op = op;
                    e->lhs = std::move(lhs);
                    e->rhs = (this->*next)();
                    lhs = seal(std::move(e));
                    matched = true;
                    break;
                }
            }
            if (!matched) {
                return lhs;
            }
        }
    }

    ExprPtr parse_logical_or() {
        return parse_binary_chain(&Parser::parse_logical_and, {{Tok::OrOr, BinOp::LogOr}});
    }
    ExprPtr parse_logical_and() {
        return parse_binary_chain(&Parser::parse_bit_or, {{Tok::AndAnd, BinOp::LogAnd}});
    }
    ExprPtr parse_bit_or() {
        return parse_binary_chain(&Parser::parse_bit_xor, {{Tok::Pipe, BinOp::BitOr}});
    }
    ExprPtr parse_bit_xor() {
        return parse_binary_chain(&Parser::parse_bit_and, {{Tok::Caret, BinOp::BitXor}});
    }
    ExprPtr parse_bit_and() {
        return parse_binary_chain(&Parser::parse_equality, {{Tok::Amp, BinOp::BitAnd}});
    }
    ExprPtr parse_equality() {
        return parse_binary_chain(&Parser::parse_relational,
                                  {{Tok::EqEq, BinOp::Eq}, {Tok::NotEq, BinOp::Ne}});
    }
    ExprPtr parse_relational() {
        return parse_binary_chain(&Parser::parse_shift, {{Tok::Lt, BinOp::Lt},
                                                         {Tok::Gt, BinOp::Gt},
                                                         {Tok::Le, BinOp::Le},
                                                         {Tok::Ge, BinOp::Ge}});
    }
    ExprPtr parse_shift() {
        return parse_binary_chain(&Parser::parse_additive,
                                  {{Tok::Shl, BinOp::Shl}, {Tok::Shr, BinOp::Shr}});
    }
    ExprPtr parse_additive() {
        return parse_binary_chain(&Parser::parse_multiplicative,
                                  {{Tok::Plus, BinOp::Add}, {Tok::Minus, BinOp::Sub}});
    }
    ExprPtr parse_multiplicative() {
        return parse_binary_chain(&Parser::parse_unary, {{Tok::Star, BinOp::Mul},
                                                         {Tok::Slash, BinOp::Div},
                                                         {Tok::Percent, BinOp::Rem}});
    }

    [[nodiscard]] bool at_cast() const {
        // '(' type-keyword ... ')' — distinguish from parenthesised exprs.
        if (!at(Tok::LParen)) {
            return false;
        }
        const Tok k = peek(1).kind;
        return k == Tok::KwInt || k == Tok::KwChar || k == Tok::KwVoid;
    }

    /// The operand of a prefix operator or a cast, one level deeper.
    ExprPtr unary_operand() {
        const Level level(*this);
        return parse_unary();
    }

    ExprPtr parse_unary() {
        static constexpr std::pair<Tok, UnOp> kPrefix[] = {{Tok::Minus, UnOp::Neg},
                                                           {Tok::Bang, UnOp::Not},
                                                           {Tok::Tilde, UnOp::BitNot},
                                                           {Tok::Star, UnOp::Deref},
                                                           {Tok::Amp, UnOp::AddrOf}};
        for (const auto& [tok, op] : kPrefix) {
            if (accept(tok)) {
                auto e = make_expr(Expr::Kind::Unary);
                e->un_op = op;
                e->lhs = unary_operand();
                return seal(std::move(e));
            }
        }
        if (at(Tok::PlusPlus) || at(Tok::MinusMinus)) {
            const bool inc = advance().kind == Tok::PlusPlus;
            auto e = make_expr(Expr::Kind::PreIncDec);
            e->value = inc ? 1 : -1;
            e->lhs = unary_operand();
            return seal(std::move(e));
        }
        if (accept(Tok::KwSizeof)) {
            auto e = make_expr(Expr::Kind::SizeofT);
            expect(Tok::LParen, "'('");
            if (at(Tok::KwInt) || at(Tok::KwChar) || at(Tok::KwVoid)) {
                TypePtr t = parse_base_type();
                if (accept(Tok::LBracket)) {
                    const Token& n = expect(Tok::Number, "array length");
                    expect(Tok::RBracket, "']'");
                    t = array_type(t, n);
                }
                e->cast_type = t; // sema folds to a constant
            } else {
                e->lhs = parse_expr(); // sema folds from the expression's type
            }
            expect(Tok::RParen, "')'");
            return seal(std::move(e));
        }
        if (at_cast()) {
            advance(); // '('
            TypePtr t = parse_base_type();
            expect(Tok::RParen, "')'");
            auto e = make_expr(Expr::Kind::Cast);
            e->cast_type = std::move(t);
            e->lhs = unary_operand();
            return seal(std::move(e));
        }
        return parse_postfix();
    }

    ExprPtr parse_postfix() {
        ExprPtr e = parse_primary();
        for (;;) {
            if (accept(Tok::LParen)) {
                auto call = make_expr(Expr::Kind::Call);
                call->lhs = std::move(e);
                if (!at(Tok::RParen)) {
                    do {
                        call->args.push_back(parse_assignment());
                    } while (accept(Tok::Comma));
                }
                expect(Tok::RParen, "')'");
                e = seal(std::move(call));
                continue;
            }
            if (accept(Tok::LBracket)) {
                auto idx = make_expr(Expr::Kind::Index);
                idx->lhs = std::move(e);
                idx->rhs = parse_expr();
                expect(Tok::RBracket, "']'");
                e = seal(std::move(idx));
                continue;
            }
            if (at(Tok::PlusPlus) || at(Tok::MinusMinus)) {
                const bool inc = advance().kind == Tok::PlusPlus;
                auto pe = make_expr(Expr::Kind::PostIncDec);
                pe->value = inc ? 1 : -1;
                pe->lhs = std::move(e);
                e = seal(std::move(pe));
                continue;
            }
            return e;
        }
    }

    ExprPtr parse_primary() {
        if (at(Tok::Number)) {
            auto e = make_expr(Expr::Kind::IntLit);
            e->value = advance().value;
            return e;
        }
        if (at(Tok::CharLit)) {
            auto e = make_expr(Expr::Kind::IntLit);
            e->value = advance().value;
            return e;
        }
        if (at(Tok::StringLit)) {
            auto e = make_expr(Expr::Kind::StrLit);
            e->str = advance().text;
            return e;
        }
        if (at(Tok::Ident)) {
            auto e = make_expr(Expr::Kind::Ident);
            e->name = advance().text;
            return e;
        }
        if (accept(Tok::LParen)) {
            ExprPtr e = parse_expr();
            expect(Tok::RParen, "')'");
            return e;
        }
        throw ParseError("expected expression, got " + token_name(peek().kind), line());
    }
};

} // namespace

Program parse(const std::string& source) {
    Parser p(lex(source));
    return p.run();
}

} // namespace swsec::cc
