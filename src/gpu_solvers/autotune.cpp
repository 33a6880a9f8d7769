#include "gpu_solvers/autotune.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "gpu_solvers/hybrid_solver.hpp"
#include "gpu_solvers/transition.hpp"
#include "gpusim/exec_engine.hpp"
#include "gpusim/fault_injector.hpp"
#include "tridiag/layout.hpp"

namespace tridsolve::gpu {

namespace {

/// Deterministic diagonally dominant cell batch: b = 4, a = c = -1 off the
/// ends, and a small exact-in-binary rhs ramp so candidate measurements
/// never depend on libm or platform rounding.
template <typename T>
tridiag::SystemBatch<T> make_cell_batch(std::size_t m, std::size_t n,
                                        tridiag::Layout layout) {
  tridiag::SystemBatch<T> batch(m, n, layout);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = batch.index(s, i);
      batch.a()[idx] = i == 0 ? T(0) : T(-1);
      batch.b()[idx] = T(4);
      batch.c()[idx] = i + 1 == n ? T(0) : T(-1);
      batch.d()[idx] = T(1) + T((i * 7 + s * 13) % 17) * T(0.0625);
    }
  }
  return batch;
}

/// Simulated time of one candidate plan on a fresh batch, with every
/// nondeterminism source pinned: exact instrumentation, faults and hazard
/// checking off.
template <typename T>
double measure_candidate(const gpusim::DeviceSpec& dev, std::size_t m,
                         std::size_t n, tridiag::Layout layout,
                         const SolvePlan& plan) {
  gpusim::ScopedInstrumentMode instrument(gpusim::InstrumentMode::exact);
  gpusim::ScopedHazardMode hazards(gpusim::HazardMode::off);
  gpusim::ScopedFaultPlan faults(gpusim::FaultPlan{});
  auto batch = make_cell_batch<T>(m, n, layout);
  const HybridReport report = hybrid_solve<T>(dev, batch, {}, plan);
  return report.total_us();
}

}  // namespace

template <typename T>
AutotuneResult autotune_cell(const gpusim::DeviceSpec& dev, std::size_t m,
                             std::size_t n) {
  if (m == 0 || n == 0) {
    throw std::invalid_argument("autotune_cell: m and n must be >= 1");
  }
  AutotuneResult result;

  // The Table III plan (heuristic k + Fig. 11 auto-pick), measured in the
  // layout it pairs with — every candidate shares the layout so
  // comparisons are apples to apples, and a calibration entry applies
  // only to a batch in that layout.
  const tridiag::Layout layout = preferred_layout(m, n);
  const SolvePlan heuristic_plan = plan_from_request(dev, m, n, layout, {});
  result.heuristic_k = heuristic_plan.k;
  result.heuristic_us =
      measure_candidate<T>(dev, m, n, layout, heuristic_plan);

  // Seed the incumbent with the heuristic plan so best_us <= heuristic_us
  // by construction; candidates only win on strictly smaller time.
  result.best = heuristic_plan;
  result.best.source = PlanSource::autotuned;
  result.best_us = result.heuristic_us;
  result.candidates.push_back({result.best, result.heuristic_us});

  // Candidate grid: every feasible k, all three Fig. 11 variants, c in
  // {1, 2}. k = 0 (pure p-Thomas) is one candidate.
  const unsigned cap = std::min<unsigned>(
      {16u, static_cast<unsigned>(std::bit_width(n) - 1),
       static_cast<unsigned>(
           std::bit_width(
               static_cast<std::size_t>(dev.max_threads_per_block)) -
           1)});
  const WindowVariant variants[] = {WindowVariant::one_block_per_system,
                                    WindowVariant::split_system,
                                    WindowVariant::multi_system_per_block};

  auto consider = [&](const HybridOptions& opts) {
    SolvePlan plan;
    double us = 0.0;
    try {
      plan = plan_from_request(dev, m, n, layout, opts);
      us = measure_candidate<T>(dev, m, n, layout, plan);
    } catch (const std::exception&) {
      return;  // infeasible candidate (shared memory, block limits, ...)
    }
    plan.source = PlanSource::autotuned;
    result.candidates.push_back({plan, us});
    if (us < result.best_us) {
      result.best = plan;
      result.best_us = us;
    }
  };

  {
    HybridOptions opts;
    opts.force_k = 0;
    consider(opts);
  }
  for (unsigned k = 1; k <= cap; ++k) {
    for (const WindowVariant variant : variants) {
      for (std::size_t c = 1; c <= 2; ++c) {
        HybridOptions opts;
        opts.force_k = static_cast<int>(k);
        opts.variant = variant;
        opts.sub_tile_c = c;
        consider(opts);
      }
    }
  }
  return result;
}

template AutotuneResult autotune_cell<float>(const gpusim::DeviceSpec&,
                                             std::size_t, std::size_t);
template AutotuneResult autotune_cell<double>(const gpusim::DeviceSpec&,
                                              std::size_t, std::size_t);

}  // namespace tridsolve::gpu
