#pragma once
// Closed-loop traffic generation for the solve service.
//
// The service bench needs arrival processes, not just batches: a stream
// of submit times whose offered load can be swept to trace a saturation
// curve. Two shapes cover the operating regimes docs/SERVICE.md tunes
// for:
//   * steady  (burst = 1) — Poisson arrivals at `rate_rps`: exponential
//     inter-arrival gaps, the classic open-loop model of many
//     independent clients.
//   * bursty  (burst > 1) — the same mean rate delivered in on/off
//     duty cycles: within each kBurstCycleUs period the generator is "on"
//     for 1/burst of the cycle at `burst * rate_rps`, then silent. Mean
//     load matches the steady case; the instantaneous load the batcher
//     sees is `burst` times higher, which is what stresses window
//     sizing and queue depth.
//
// Everything is deterministic in `seed` (xoshiro256++, no std
// distributions), so a sweep point is exactly reproducible.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tridiag/types.hpp"
#include "util/random.hpp"
#include "workloads/generators.hpp"

namespace tridsolve::workloads {

/// On/off period of a bursty schedule (burst > 1), microseconds.
inline constexpr double kBurstCycleUs = 20000.0;

struct TrafficConfig {
  double rate_rps = 1000.0;   ///< mean offered load, requests per second
  double burst = 1.0;         ///< duty-cycle factor; 1 = steady Poisson
  std::size_t requests = 1000;
  std::uint64_t seed = 42;
};

/// Submit times in microseconds from t = 0, non-decreasing, one per
/// request. Steady: cumulative exponential gaps at `rate_rps`. Bursty:
/// gaps drawn at `burst * rate_rps` on a virtual always-on clock, then
/// time-warped so each cycle's on-window occupies its first
/// kBurstCycleUs / burst microseconds.
[[nodiscard]] std::vector<double> arrival_times_us(const TrafficConfig& cfg);

/// One owned request system: matrix per `kind`, random rhs — the
/// per-client unit the service consumes (make_batch's single-system
/// sibling). Deterministic in the rng state.
[[nodiscard]] tridiag::TridiagSystem<double> make_request_system(
    Kind kind, std::size_t n, util::Xoshiro256& rng);

}  // namespace tridsolve::workloads
