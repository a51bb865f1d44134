// Structured program models: the one program generator behind both fuzzers.
//
// Rendered text is opaque to mutation: a textual havoc cannot tell a loop
// bound from an array index, so any byte-level edit risks producing a
// non-benign program — and a non-benign program breaks the Defense oracle
// by *design* (bounds-checking configurations legitimately diverge from the
// unprotected baseline on an out-of-bounds access).
//
// This layer keeps each candidate as a small AST instead: expressions are
// operator trees whose leaves are literals or scope-relative variable
// references, and each statement chunk is a parameter record (kind, bounds,
// fill bytes, call target, expression trees) rendered to MiniC text on
// demand.  Every benignity invariant lives in the *renderer* — denominators
// are forced odd, array indices are reduced modulo the array length, loop
// trips are clamped, string bytes are forced non-zero — so any model,
// however mutated or spliced, renders to a valid, benign, deterministic
// program.  That is what "valid by construction" means here: the mutation
// operators are free to be dumb because the renderer cannot express an
// invalid program.  The one-shot fuzzer's generate_program
// (fuzz/generator.hpp) renders models too, so these rules guard both
// fuzzers.
//
// Mutation operators (AFL-style havoc, specialised to the model):
//   * operator rotation within a semantics-preserving class (total ops
//     among themselves; guarded / and % between themselves; comparisons
//     among themselves) — never rotates a total op into an unguarded
//     division,
//   * literal replacement from the boundary pool or the full u32 range,
//   * array/loop/heap bound perturbation within the renderer's valid range,
//   * call-target flips between the program's helper functions,
//   * chunk duplication / deletion / regeneration,
// plus two-parent *splice* (chunk-list crossover).  Chunks are
// self-contained (locals suffixed by chunk index, reads only of the
// always-present globals and helpers), so any chunk list renders.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fuzz/generator.hpp"

namespace swsec::fuzz {

/// Expression tree.  Var leaves are *scope-relative*: the renderer resolves
/// `var % scope.size()`, so an expression spliced into a program with fewer
/// globals still names a variable that exists.
struct Expr {
    enum class Kind : std::uint8_t { Lit, Var, Unary, Binary };
    Kind kind = Kind::Lit;
    std::int32_t lit = 0;    // Kind::Lit
    std::uint32_t var = 0;   // Kind::Var: index into the render scope (mod size)
    std::uint8_t op = 0;     // Unary: index into unary table; Binary: binary table
    std::vector<Expr> kids;  // 1 (Unary) or 2 (Binary)
};

/// Binary operator table with mutation classes.  Class 0 ops are total on
/// uint32 wrap semantics; class 1 ops render with an odd-forced right
/// operand; class 2 are comparisons.  Havoc only rotates within a class.
struct BinOp {
    const char* text;
    int cls;
};
[[nodiscard]] const std::vector<BinOp>& binary_ops();
[[nodiscard]] const std::vector<const char*>& unary_ops();

/// One self-contained statement chunk, parameterised.  Invalid field values
/// cannot exist: the renderer reduces every field into its valid range.
struct ChunkModel {
    enum class Kind : std::uint8_t {
        Expr,      // print one expression
        Loop,      // bounded accumulation loop
        Array,     // stack array fill + sum
        Heap,      // malloc/memset/read/free round trip
        Call,      // helper call
        Branch,    // two-armed comparison
        FoldCheck, // compile-time vs run-time fold probe (emits a global)
        Str,       // string build + strlen/strcmp (libc lane)
        Rec,       // bounded self-recursion (call/ret depth, per-frame locals)
    };
    Kind kind = Kind::Expr;
    Expr e1, e2, e3;         // role depends on kind
    std::int32_t c1 = 0;     // scalar: acc init / fill byte / string seed
    std::int32_t c2 = 0;     // scalar: branch consts / string stride
    std::int32_t c3 = 0;
    std::uint32_t n = 4;     // loop trips / array len / heap bytes / string len / rec depth
    std::uint32_t at = 0;    // heap probe index (reduced mod the usable size)
    std::uint8_t target = 0; // helper index (mod helper count) / rec op (mod total ops)
};

/// A whole program as a model: globals, helpers, chunks.  render() yields a
/// GenProgram (the minimizer's and repro pipeline's native currency) whose
/// chunk list corresponds 1:1 with `chunks`.
struct ProgramModel {
    std::uint64_t seed = 0;            // generation seed (identity only)
    std::vector<Expr> global_inits;    // const expressions for g0..gN-1
    struct Helper {
        std::uint32_t k1 = 7, k2 = 3;  // shift amounts, reduced mod 31 + 1
        std::int32_t c = 0;            // mixing constant
        std::uint8_t op = 0;           // final combine: index into {^, +, -}
    };
    std::vector<Helper> helpers;       // mix0..mixM-1
    std::vector<ChunkModel> chunks;

    [[nodiscard]] GenProgram render() const;
};

/// Deterministic model generation over all nine chunk kinds; an unmutated
/// model population is the "generator-only" baseline of the coverage
/// experiment.  generate_program draws the same way, limited to the seven
/// flat kinds.
[[nodiscard]] ProgramModel generate_model(std::uint64_t seed);

/// Havoc: 1..3 random perturbations of a copy of `parent`.  Deterministic
/// given the rng state; the result always renders to a valid benign program.
[[nodiscard]] ProgramModel havoc(const ProgramModel& parent, Rng& rng);

/// Splice: chunk-list crossover of two parents (a-prefix + b-suffix, capped),
/// globals and helpers from `a`.  Deterministic given the rng state.
[[nodiscard]] ProgramModel splice(const ProgramModel& a, const ProgramModel& b, Rng& rng);

} // namespace swsec::fuzz
