#pragma once
// Deterministic, seedable PRNG utilities for workload generation.
//
// xoshiro256++ is used instead of std::mt19937 because it is an order of
// magnitude faster for bulk array fills and has a trivially splittable seed
// sequence, which keeps multi-array workload generation reproducible across
// platforms and standard-library versions (std distributions are not
// implementation-portable).

#include <cstdint>
#include <span>

namespace tridsolve::util {

/// xoshiro256++ engine (public-domain algorithm by Blackman & Vigna).
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) noexcept;

  /// Next raw 64-bit value.
  result_type operator()() noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

 private:
  std::uint64_t s_[4];
};

/// Uniform double in [lo, hi).
double uniform(Xoshiro256& rng, double lo, double hi) noexcept;

/// Uniform integer in [lo, hi] (inclusive).
std::int64_t uniform_int(Xoshiro256& rng, std::int64_t lo,
                         std::int64_t hi) noexcept;

/// Fill `out` with uniforms in [lo, hi).
void fill_uniform(Xoshiro256& rng, std::span<float> out, float lo, float hi) noexcept;
void fill_uniform(Xoshiro256& rng, std::span<double> out, double lo, double hi) noexcept;

}  // namespace tridsolve::util
