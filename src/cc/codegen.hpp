// MiniC code generation (internal interface; use cc/compiler.hpp).
#pragma once

#include <string>

#include "assembler/asm_list.hpp"
#include "cc/ast.hpp"
#include "cc/compiler.hpp"

namespace swsec::cc {

/// Lower an analysed Program to an instruction list (assembler/asm_list.hpp):
/// assembler::build_object encodes it, assembler::render prints it.
[[nodiscard]] assembler::AsmList generate(const Program& prog, const CompilerOptions& opts,
                                          const std::string& unit_name);

/// Evaluate a constant expression (global initialiser) with the *machine's*
/// semantics: two's-complement wrap on +,-,*, the VM's defined results for
/// INT_MIN / -1 and INT_MIN % -1, shift counts masked to 5 bits, and
/// arithmetic >> — exactly what the same expression computes at run time.
/// Throws Error on non-constant sub-expressions and on division by zero.
[[nodiscard]] std::int32_t fold_constant_expr(const Expr& e);

} // namespace swsec::cc
