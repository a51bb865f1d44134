// Deterministic random number generation.
//
// Every source of randomness in the library (ASLR offsets, stack canaries,
// platform keys, workload generators) draws from a seeded Rng so that each
// experiment is exactly reproducible.  The generator is xoshiro-style
// splitmix64: small, fast and statistically adequate for simulation.
#pragma once

#include <cstdint>
#include <span>

namespace swsec {

/// Deterministic 64-bit PRNG (splitmix64).
class Rng {
public:
    explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}

    /// Next 64 pseudo-random bits.
    [[nodiscard]] std::uint64_t next_u64() noexcept;

    /// Next 32 pseudo-random bits.
    [[nodiscard]] std::uint32_t next_u32() noexcept { return static_cast<std::uint32_t>(next_u64() >> 32); }

    /// Uniform value in [0, bound). bound must be > 0.
    [[nodiscard]] std::uint32_t below(std::uint32_t bound) noexcept;

    /// Uniform value in [lo, hi] inclusive.
    [[nodiscard]] std::int32_t between(std::int32_t lo, std::int32_t hi) noexcept;

    /// Fill a buffer with pseudo-random bytes.
    void fill(std::span<std::uint8_t> out) noexcept;

private:
    std::uint64_t state_;
};

/// splitmix64-style combiner: a derived seed is a pure function of a master
/// seed and a position in the schedule (cell, trial, round, slot) — never
/// of wall clock or thread interleaving.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept {
    std::uint64_t x = a + 0x9E3779B97F4A7C15ULL * (b + 0x632BE59BD9B4E019ULL);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
}

} // namespace swsec
