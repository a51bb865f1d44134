// MiniC recursive-descent parser.
#pragma once

#include <string>

#include "cc/ast.hpp"

namespace swsec::cc {

/// Deepest nesting the parser accepts; deeper input is a ParseError.  It
/// bounds the parser's own recursion, where each nested statement, block,
/// expression (a parenthesis, a call argument, an index, an initialiser),
/// parameter list, prefix operator and `*` of a type is one level.  It also
/// bounds the height of each expression tree, where every operator, call,
/// index and cast is one level, so `1+1+1` is three levels deep although
/// the parser reads it in a loop.  Sema, constant folding, code generation,
/// the analyzer and the tree's destructor all recurse down that tree, so
/// this bound keeps hostile source from exhausting the host's stack: under
/// ASan the heaviest level, a parenthesis, overflows an 8 MiB thread stack
/// at about 426.  Generated programs nest expressions at most 40 deep.
inline constexpr int kMaxNesting = 256;

/// Parse a MiniC translation unit.  Throws swsec::ParseError on bad input.
[[nodiscard]] Program parse(const std::string& source);

} // namespace swsec::cc
