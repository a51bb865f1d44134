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
// Growth is bounded: the fuzzer and campaign driver feed a *new* program
// per seed, so an unbounded memo would grow linearly with campaign length
// (a million-cell fuzz campaign would pin a million images).  The cache
// therefore evicts least-recently-used entries beyond a capacity; eviction
// only costs a deterministic recompile, never correctness.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "assembler/object.hpp"
#include "cc/compiler.hpp"

namespace swsec::core {

/// compile_program({source}, opts), memoized on (source,
/// cc::compiler_options_key(opts)) with LRU eviction beyond the configured
/// capacity.
[[nodiscard]] std::shared_ptr<const objfmt::Image>
cached_compile(const std::string& source, const cc::CompilerOptions& opts);

/// Drop every cached image and the compiler's memoized runtime objects
/// (cc::clear_runtime_memo), so the next compile is a cold start (tests; the
/// benchmark's set-up; bounds memory in long campaigns).  Also resets the
/// hit and eviction tallies.
void clear_image_cache();

/// Cap the number of cached images (least-recently-used entries are evicted
/// past it); 0 means unbounded.  Shrinking below the current size evicts
/// immediately.  Returns the previous capacity.
std::size_t set_image_cache_capacity(std::size_t max_images);
[[nodiscard]] std::size_t image_cache_capacity();

/// Number of distinct (source, options) images currently cached.
[[nodiscard]] std::size_t image_cache_size();

/// Machine-wide cache-hit tally since start (or the last clear).  This is a
/// *schedule-dependent* number: with --jobs N two workers can race to
/// compile the same key and one insert loses, so the hit count differs
/// between equivalent runs.  It therefore feeds the metrics registry only
/// as a Volatile gauge, never a deterministic report.
[[nodiscard]] std::uint64_t image_cache_hits();

/// LRU evictions since start (or the last clear).  Schedule-dependent for
/// the same reason as the hit count: Volatile in the metrics registry.
[[nodiscard]] std::uint64_t image_cache_evictions();

} // namespace swsec::core
