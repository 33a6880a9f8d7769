#pragma once
// Empirical plan autotuner (ROADMAP item 4, the §V auto-tuning remark
// turned into infrastructure): instead of trusting the paper's static
// Table III heuristic, measure candidate (k, window variant, sub-tile c)
// plans for one (M, N) cell in the simulator and keep the fastest.
//
// Measurement discipline: every candidate runs on a freshly synthesized
// deterministic diagonally-dominant batch under exact instrumentation
// with faults and hazard checking off, so simulated times are
// reproducible. Candidates are planned by plan_from_request and executed
// as planned, so a loaded calibration never reaches the sweep. The Table
// III plan is always in the candidate set, so `best_us <= heuristic_us`
// holds by construction; a candidate only replaces the incumbent on
// strictly smaller simulated time, making the winner deterministic.
//
// Consumer: bench_autotune sweeps cells offline and writes a
// tridsolve-plan-v1 calibration JSON for PlanCache::load_calibration
// (--plan-file on any bench/example).

#include <cstddef>
#include <vector>

#include "gpu_solvers/plan_cache.hpp"
#include "gpusim/device_spec.hpp"

namespace tridsolve::gpu {

/// One measured candidate (for reporting; `plan` is fully resolved).
struct AutotuneCandidate {
  SolvePlan plan;
  double time_us = 0.0;
};

struct AutotuneResult {
  /// Fastest plan found; source = PlanSource::autotuned.
  SolvePlan best;
  double best_us = 0.0;
  unsigned heuristic_k = 0;     ///< what Table III would have chosen
  double heuristic_us = 0.0;    ///< its simulated time (>= best_us)
  std::vector<AutotuneCandidate> candidates;  ///< every plan measured
};

/// Sweep candidate plans for an M x N batch of element type T on `dev`.
/// Deterministic: same (dev, m, n, T) always returns the same winner.
/// Requires m >= 1 and n >= 1 (nothing to measure otherwise).
template <typename T>
AutotuneResult autotune_cell(const gpusim::DeviceSpec& dev, std::size_t m,
                             std::size_t n);

extern template AutotuneResult autotune_cell<float>(const gpusim::DeviceSpec&,
                                                    std::size_t, std::size_t);
extern template AutotuneResult autotune_cell<double>(const gpusim::DeviceSpec&,
                                                     std::size_t, std::size_t);

}  // namespace tridsolve::gpu
