// Memoized scenario compilation — the other half of the harness hot path.
//
// A scenario compile costs ~0.1 ms even with the runtime memoized by
// cc::compile_program (cc/compiler.hpp), against a victim run of a few
// hundred instructions, and the harnesses recompile the *same* (source,
// options) pair for every cell and every fault window.  Scenario sources
// and CompilerOptions are pure values and compilation is deterministic, so
// the compiled Image can be memoized machine-wide.
//
// The cache is thread-safe (one mutex around the map; compilation happens
// outside the lock, and a racing duplicate compile is deterministic so
// either result is correct) and returns shared_ptr<const Image>: workers
// only read the image and copy it into their own Process.
//
// It holds scenario images only: the matrix, fault sweep, curves and the
// campaign's sabotage cell compile a fixed set of sources, so the cache is
// bounded by that set and needs no eviction.  Generated programs never
// reach it: the fuzz oracles compile each program through their own
// per-program memo, and chunk prioritization and triage call
// cc::compile_program directly, so a long fuzz or evolve campaign leaves
// the cache as it found it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "assembler/object.hpp"
#include "cc/compiler.hpp"

namespace swsec::core {

/// compile_program({source}, opts), memoized on (source,
/// cc::compiler_options_key(opts)).  For scenario sources only (see above).
[[nodiscard]] std::shared_ptr<const objfmt::Image>
cached_compile(const std::string& source, const cc::CompilerOptions& opts);

/// Drop every cached image and the compiler's memoized runtime objects
/// (cc::clear_runtime_memo), so the next compile is a cold start (tests; the
/// benchmark's set-up).  Also resets the hit tally.
void clear_image_cache();

/// Number of distinct (source, options) images currently cached.
[[nodiscard]] std::size_t image_cache_size();

/// Machine-wide cache-hit tally since start (or the last clear).  This is a
/// *schedule-dependent* number: with --jobs N two workers can race to
/// compile the same key and one insert loses, so the hit count differs
/// between equivalent runs.  It therefore feeds the metrics registry only
/// as a Volatile gauge, never a deterministic report.
[[nodiscard]] std::uint64_t image_cache_hits();

} // namespace swsec::core
