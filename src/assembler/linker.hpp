// Static linker: merges object files into a relocatable Image.
//
// Symbol resolution is flat (C-style): every defined symbol is visible to
// every unit; duplicate definitions are an error.  Relocations against the
// merged section offsets are preserved in the Image so the loader can place
// segments at randomized bases (ASLR) and fix them up there.
#pragma once

#include <span>

#include "assembler/object.hpp"

namespace swsec::assembler {

/// Link objects in order, reading them in place.  Throws swsec::Error on
/// duplicate or undefined symbols.
[[nodiscard]] objfmt::Image link(std::span<const objfmt::ObjectFile* const> objects);

/// As above, for objects held by value.
[[nodiscard]] objfmt::Image link(std::span<const objfmt::ObjectFile> objects);

} // namespace swsec::assembler
