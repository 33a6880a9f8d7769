#pragma once
// Planning for the hybrid solver, and the calibration table.
//
// Every hybrid solve plans on every call through plan_hybrid, as the
// paper does when it looks k up in Table III at run time. Planning sees
// the batch's layout (hybrid_solve passes batch.layout()). A forced
// request plans from its forced k; a default request takes the loaded
// calibration entry for its (device fingerprint, m, n, elem_size) if one
// exists and the batch is in preferred_layout(m, n), else the Table III
// heuristic as that layout reads it (transition.hpp heuristic_k with a
// layout). Planning costs nanoseconds (a table lookup and the Fig. 11
// variant pick), so nothing memoizes it.
//
// PlanCache is the calibration table: plans an offline autotuner
// (gpu_solvers/autotune.hpp, bench_autotune --out) measured, loaded from
// a tridsolve-plan-v1 file by --plan-file on any bench or example
// (schema-checked by tools/validate_telemetry --plan). Contracts:
//  * Read-only between loads: load_calibration() and clear() are the
//    only writers. While nothing is loaded a lookup takes no lock and
//    computes no device fingerprint.
//  * Shape-checked: an entry that cannot solve its own (m, n) (see
//    SolvePlan::fits), names no concrete variant, or carries an integer
//    field that is not a whole number in [0, 2^31) is rejected on load
//    and counted in gpu.plan_cache.rejected; its shape plans from the
//    heuristic.
//  * Bit-transparent: an entry pinning exactly what the heuristic plans
//    solves bit-identically to it, in solution and in simulated time.
//  * Layout-bound: autotune_cell measures an entry in preferred_layout(m,
//    n), so only a batch in that layout runs it.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>

#include "gpu_solvers/hybrid_solver.hpp"
#include "gpu_solvers/transition.hpp"
#include "gpusim/device_spec.hpp"
#include "obs/metrics.hpp"
#include "tridiag/layout.hpp"

namespace tridsolve::util {
class Cli;
}

namespace tridsolve::gpu {

/// The plan a request gets from itself alone for an (m, n) batch laid
/// out in `layout`: the transition point (heuristic_k(m, n, layout) or a
/// forced k), the Fig. 11 variant pick, split-system region count and
/// multi-system windows per block. Never reads the calibration table;
/// the autotuner measures its Table III incumbent with this. Throws
/// std::invalid_argument when a forced k is out of range for the shape or
/// device (2^k > N, or 2^k threads exceed a block); the heuristic clamps
/// instead, and each plan that runs a clamped Table III k counts once in
/// transition.clamped.
[[nodiscard]] SolvePlan plan_from_request(const gpusim::DeviceSpec& dev,
                                          std::size_t m, std::size_t n,
                                          tridiag::Layout layout,
                                          const HybridOptions& opts);

/// Every hybrid solve's planner, for an (m, n) batch laid out in
/// `layout`. A default request (no forced k, variant, sub-tile or fusion)
/// on a batch in preferred_layout(m, n) takes the loaded calibration
/// entry for (dev.fingerprint(), m, n, elem_size) when one exists; every
/// other request, and a default one without an entry, plans as
/// plan_from_request.
[[nodiscard]] SolvePlan plan_hybrid(const gpusim::DeviceSpec& dev,
                                    std::size_t m, std::size_t n,
                                    std::size_t elem_size,
                                    tridiag::Layout layout,
                                    const HybridOptions& opts);

/// plan_hybrid for a batch in preferred_layout(m, n), where the layout
/// never moves the plan off Table III.
[[nodiscard]] inline SolvePlan plan_hybrid(const gpusim::DeviceSpec& dev,
                                           std::size_t m, std::size_t n,
                                           std::size_t elem_size,
                                           const HybridOptions& opts) {
  return plan_hybrid(dev, m, n, elem_size, preferred_layout(m, n), opts);
}

/// Process-wide calibration table. See the file header for contracts.
class PlanCache {
 public:
  static PlanCache& instance();

  /// The calibrated plan for the default request of an (m, n) batch of
  /// elem_size-byte elements on `dev`, or nullopt.
  [[nodiscard]] std::optional<SolvePlan> find(const gpusim::DeviceSpec& dev,
                                              std::size_t m, std::size_t n,
                                              std::size_t elem_size) const;

  /// Load plans from a calibration JSON file (bench_autotune --out
  /// format), keyed by the file's device fingerprint; an entry for a
  /// shape already loaded replaces it. Entries that fail the shape check
  /// are rejected (counted, not fatal). Returns the number of plans
  /// accepted. Throws std::runtime_error on an unreadable or malformed
  /// file.
  std::size_t load_calibration(const std::string& path);

  /// Drop every loaded plan.
  void clear();

 private:
  PlanCache() = default;

  /// (device fingerprint, m, n, elem_size)
  using Key =
      std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t>;

  mutable std::mutex mu_;
  std::map<Key, SolvePlan> plans_;   ///< guarded by mu_
  std::atomic<bool> loaded_{false};  ///< !plans_.empty(), read without mu_

  obs::MetricsRegistry::Counter rejected_ =
      obs::counter_handle("gpu.plan_cache.rejected");
};

/// Apply the shared plan flag: --plan-file PATH loads a calibration file
/// into the PlanCache. Called by bench::Telemetry alongside
/// gpusim::configure_engine_from_cli.
void configure_plan_cache_from_cli(const util::Cli& cli);

}  // namespace tridsolve::gpu
