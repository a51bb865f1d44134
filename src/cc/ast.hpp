// MiniC abstract syntax tree.
//
// The tree is produced by the parser and annotated in place by semantic
// analysis (cc/sema.cpp): every expression receives its value type and a
// resolved reference kind before code generation runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cc/type.hpp"

namespace swsec::cc {

enum class BinOp : std::uint8_t {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    LogAnd,
    LogOr,
};

enum class UnOp : std::uint8_t { Neg, Not, BitNot, Deref, AddrOf };

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// What an identifier resolved to (set by sema).
enum class RefKind : std::uint8_t { None, Global, Local, Param, Func };

struct Expr {
    enum class Kind : std::uint8_t {
        IntLit,
        StrLit,
        Ident,
        Unary,
        Binary,
        Assign,   // lhs = rhs (compound forms are desugared by the parser)
        Call,
        Index,    // base[index]
        Cast,
        SizeofT,  // sizeof(type) or sizeof(expr) folded to a constant
        PreIncDec, // ++x / --x   (delta = +1 / -1)
        PostIncDec, // x++ / x--
        Cond       // c ? a : b  (lhs = cond, rhs = then, args[0] = else)
    };

    Kind kind = Kind::IntLit;
    int line = 0;
    int height = 1; // parser: nodes on the longest path down (kMaxNesting)

    std::int32_t value = 0;   // IntLit, SizeofT (folded), inc/dec delta
    std::string str;          // StrLit contents
    std::string name;         // Ident
    UnOp un_op = UnOp::Neg;   // Unary
    BinOp bin_op = BinOp::Add; // Binary
    ExprPtr lhs;              // Unary sub / Binary lhs / Assign lhs / Call callee / Index base
    ExprPtr rhs;              // Binary rhs / Assign rhs / Index index
    std::vector<ExprPtr> args; // Call arguments
    TypePtr cast_type;        // Cast target

    // --- sema annotations ---
    TypePtr type;             // value type (after array decay)
    TypePtr object_type;      // pre-decay type for lvalues (arrays keep their length)
    RefKind ref = RefKind::None;
    bool is_lvalue = false;
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// A local or global variable declaration.
struct VarDecl {
    std::string name;
    TypePtr type;
    ExprPtr init;          // optional scalar initialiser
    std::string init_str;  // optional string initialiser for char arrays
    bool has_init_str = false;
    bool is_static = false;
    int line = 0;
    int slot = -1; // sema: local slot index (locals only)
};

struct Stmt {
    enum class Kind : std::uint8_t {
        ExprStmt,
        Decl,
        If,
        While,
        For,
        Return,
        Break,
        Continue,
        Block,
        Empty,
    };

    Kind kind = Kind::Empty;
    int line = 0;

    ExprPtr expr;                 // ExprStmt / Return value / If-While cond / For cond
    VarDecl decl;                 // Decl
    StmtPtr then_branch;          // If then / While-For body
    StmtPtr else_branch;          // If else
    StmtPtr init_stmt;            // For init
    ExprPtr step_expr;            // For step
    std::vector<StmtPtr> body;    // Block
};

struct Param {
    std::string name;
    TypePtr type;
};

struct FuncDef {
    std::string name;
    TypePtr ret;
    std::vector<Param> params;
    StmtPtr body; // null for a prototype
    bool is_static = false;
    int line = 0;

    // --- sema annotations ---
    /// One entry per local variable in declaration order; Expr::value on a
    /// RefKind::Local identifier indexes into this table.
    std::vector<TypePtr> local_slots;

    [[nodiscard]] TypePtr func_type() const {
        std::vector<TypePtr> ps;
        ps.reserve(params.size());
        for (const auto& p : params) {
            ps.push_back(p.type);
        }
        return Type::func(ret, ps);
    }
};

struct Program {
    std::vector<VarDecl> globals;
    std::vector<FuncDef> funcs;
};

} // namespace swsec::cc
