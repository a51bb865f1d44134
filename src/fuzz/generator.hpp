// Seeded MiniC programs for the differential fuzzer.
//
// generate_program draws a ProgramModel (fuzz/mutate.hpp) limited to the
// seven flat chunk kinds and renders it, so the one-shot fuzzer and the
// evolutionary stage share one renderer and one set of benignity rules.
// The string and recursion kinds are left to the evolutionary stage: they
// make each program 15-29% dearer to check (DESIGN.md §10).
//
// Every program is valid by construction and *benign*: loops are bounded,
// array indices stay in range, denominators are forced odd (never zero),
// reads never touch uninitialised or freed memory, and no pointer value
// ever reaches the output.  A benign program must behave identically under
// every deployed countermeasure — that is the semantics-preservation
// property the paper's countermeasures promise and the fuzzer checks.
//
// Observable behaviour is the byte stream on fd 1 (print_int/puts, one
// value per line) plus the final trap.  Each program also embeds
// compile-time-vs-run-time self checks: a global initialiser (folded by the
// compiler's fold_constant_expr) is compared against the identical
// expression recomputed at run time through the VM's ALU; on disagreement
// the program prints a FOLD-MISMATCH marker plus both values.
//
// The program is kept as a list of self-contained statement chunks so the
// minimizer can drop any subset and the rest still compiles: every chunk
// declares its own locals (names suffixed by chunk index) and only reads
// the always-present globals/helpers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace swsec::fuzz {

struct GenProgram {
    std::uint64_t seed = 0;
    std::vector<std::string> globals;  // global declarations (always kept)
    std::vector<std::string> helpers;  // helper function definitions (always kept)
    std::vector<std::string> chunks;   // removable, self-contained main statements

    /// The full program.
    [[nodiscard]] std::string render() const;
    /// The program with only chunks whose keep[i] is true (minimizer).
    [[nodiscard]] std::string render_subset(const std::vector<bool>& keep) const;
};

/// Deterministic: the same seed always yields the identical program.
/// Defined beside the model renderer in fuzz/mutate.cpp.
[[nodiscard]] GenProgram generate_program(std::uint64_t seed);

/// Marker printed by a program's embedded fold-vs-runtime self check on
/// disagreement; the ConstFold oracle scans run output for it.
inline constexpr const char* kFoldMismatchMarker = "FOLD-MISMATCH";

} // namespace swsec::fuzz
