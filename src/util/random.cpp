#include "util/random.hpp"

namespace tridsolve::util {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

// splitmix64: seeds the xoshiro state from a single 64-bit value, as
// recommended by the xoshiro authors (avoids correlated low-entropy states).
constexpr std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  for (auto& word : s_) word = splitmix64(seed);
}

Xoshiro256::result_type Xoshiro256::operator()() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double uniform(Xoshiro256& rng, double lo, double hi) noexcept {
  // 53 high bits -> [0,1) with full double resolution.
  const double unit = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  return lo + unit * (hi - lo);
}

std::int64_t uniform_int(Xoshiro256& rng, std::int64_t lo,
                         std::int64_t hi) noexcept {
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(rng() % range);
}

void fill_uniform(Xoshiro256& rng, std::span<float> out, float lo, float hi) noexcept {
  for (auto& v : out) v = static_cast<float>(uniform(rng, lo, hi));
}

void fill_uniform(Xoshiro256& rng, std::span<double> out, double lo, double hi) noexcept {
  for (auto& v : out) v = uniform(rng, lo, hi);
}

}  // namespace tridsolve::util
