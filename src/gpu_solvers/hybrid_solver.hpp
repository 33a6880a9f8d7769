#pragma once
// The paper's contribution: the scalable hybrid tiled-PCR + p-Thomas
// tridiagonal solver (§III), orchestrated over the simulated GPU.
//
// Pipeline:
//   1. plan (gpu_solvers/plan_cache.hpp, plan_hybrid, on every call):
//      the transition point k from (M, N) and the batch's layout — the
//      Table III heuristic, a forced k, or a --plan-file calibration
//      entry — plus the window variant, sub-tile c and launch geometry;
//   2. k >= 1: run the tiled PCR kernel, which rewrites each system as
//      2^k independent interleaved systems (window variant per Fig. 11);
//   3. run p-Thomas over the 2^k * M reduced systems (or only its
//      backward pass when the forward sweep was fused into the PCR
//      kernel, §III.C);
//   4. the solution lands in the batch's d array.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "gpu_solvers/tiled_pcr_kernel.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/launch.hpp"
#include "tridiag/batch_status.hpp"
#include "tridiag/layout.hpp"

namespace tridsolve::gpu {

enum class WindowVariant {
  auto_select,            ///< pick from M and the device
  one_block_per_system,   ///< Fig. 11(a)
  split_system,           ///< Fig. 11(b): block group per system
  multi_system_per_block, ///< Fig. 11(c): several windows per block
};

/// Stable name for reports, metrics and telemetry records.
[[nodiscard]] const char* window_variant_name(WindowVariant v) noexcept;

/// Inverse of window_variant_name (calibration files name variants by
/// string). Returns nullopt for unknown names; "auto" maps to auto_select.
[[nodiscard]] std::optional<WindowVariant> window_variant_from_name(
    std::string_view name) noexcept;

/// Where a solve's plan (k, variant, c, geometry) came from. Reported
/// per solve via HybridReport::plan_source and the plan_* JSONL block —
/// unlike the transition.k gauge, which only holds the most recent
/// planning event (see transition.hpp).
enum class PlanSource : std::uint8_t {
  heuristic,   ///< Table III heuristic (the default)
  forced,      ///< HybridOptions::force_k / explicit variant request
  calibrated,  ///< loaded from a --plan-file calibration file
  autotuned,   ///< measured by autotune_cell (bench_autotune's records)
};

/// Stable name for telemetry ("heuristic", "forced", "calibrated",
/// "autotuned").
[[nodiscard]] const char* plan_source_name(PlanSource s) noexcept;

struct HybridOptions {
  int force_k = -1;             ///< >= 0 overrides the heuristic
  std::size_t sub_tile_c = 1;   ///< S = c * 2^k
  WindowVariant variant = WindowVariant::auto_select;
  bool fuse = false;            ///< fuse Thomas forward into PCR kernel
  /// Pivot guard (see DESIGN.md "Guarded solve path"): collect a
  /// per-system SolveStatus from the kernels' own elimination values.
  /// Read-only — it records no simulated cost and changes no arithmetic,
  /// so guarded runs are bit-identical to unguarded ones. Flagged systems
  /// are recovered by the registry's run_solver_resilient, not here.
  bool guard = true;
};

/// A fully resolved plan: everything hybrid_solve derives before touching
/// the batch. `variant` is never auto_select here.
struct SolvePlan {
  unsigned k = 0;
  WindowVariant variant = WindowVariant::one_block_per_system;
  std::size_t c = 1;                  ///< sub-tile multiplier, S = c * 2^k
  std::size_t blocks_per_system = 0;  ///< split_system region count (else 0)
  std::size_t systems_per_block = 1;  ///< windows per block (multi variant)
  PlanSource source = PlanSource::heuristic;

  /// Shape check: can this plan legally solve an (m, n) batch? 2^k
  /// reduced systems need at least one row each, the sub-tile S = c * 2^k
  /// needs c >= 1, and a split_system plan needs at least one region.
  [[nodiscard]] bool fits(std::uint64_t n) const noexcept {
    return k < 31 && (n >> k) >= 1 && c >= 1 &&
           (variant != WindowVariant::split_system || blocks_per_system >= 1);
  }
};

struct HybridReport {
  unsigned k = 0;
  WindowVariant variant = WindowVariant::one_block_per_system;
  gpusim::Timeline timeline;

  /// How the plan (k, variant, c, launch geometry) was chosen.
  PlanSource plan_source = PlanSource::heuristic;
  std::size_t plan_c = 1;  ///< sub-tile multiplier the plan selected

  std::size_t reduced_systems = 0;
  std::size_t eliminations_pcr = 0;
  std::size_t redundant_loads = 0;   ///< halo loads (split_system only)
  std::size_t pcr_shared_bytes = 0;  ///< window footprint per block

  /// Per-system guard outcome (empty when guard is off).
  tridiag::BatchStatus status;
  std::size_t flagged = 0;  ///< systems with a non-ok status

  /// Throws std::logic_error when the solve ran functional_only (no
  /// recorded costs, hence no meaningful timing) — see Timeline.
  [[nodiscard]] double total_us() const { return timeline.total_us(); }
  [[nodiscard]] double pcr_us() const { return timeline.time_with_prefix("pcr"); }
  [[nodiscard]] double thomas_us() const {
    return timeline.time_with_prefix("thomas");
  }
  /// Fraction of the runtime spent in tiled PCR (§IV reports 6.25%, 36.2%,
  /// ~55% for M = 256, 16, 1).
  [[nodiscard]] double pcr_fraction() const {
    return total_us() > 0.0 ? pcr_us() / total_us() : 0.0;
  }
};

/// Solve every system of `batch` in place (solution in d) on the simulated
/// device, with the plan plan_hybrid gives `opts` for this batch's shape
/// and layout. The layout determines the memory addresses the kernels
/// touch, so the plan reads it: a batch in preferred_layout plans from
/// Table III, and an interleaved batch that p-Thomas serves better where
/// it lies plans k = 0 (transition.hpp heuristic_k with a layout). Throws
/// std::invalid_argument, before any launch, for a forced k out of range
/// for the shape or device.
template <typename T>
HybridReport hybrid_solve(const gpusim::DeviceSpec& dev,
                          tridiag::SystemBatch<T>& batch,
                          const HybridOptions& opts = {});

/// Execute `plan` as given: it fixes k, variant, c and geometry, and
/// `opts` supplies only fuse and guard. The plan must come from
/// plan_hybrid (or plan_from_request) for these options and this N; it
/// may have been made for a larger batch, which is how the resilient
/// pipeline runs every retry chunk on its full batch's plan.
template <typename T>
HybridReport hybrid_solve(const gpusim::DeviceSpec& dev,
                          tridiag::SystemBatch<T>& batch,
                          const HybridOptions& opts, const SolvePlan& plan);

extern template HybridReport hybrid_solve<float>(const gpusim::DeviceSpec&,
                                                 tridiag::SystemBatch<float>&,
                                                 const HybridOptions&);
extern template HybridReport hybrid_solve<double>(const gpusim::DeviceSpec&,
                                                  tridiag::SystemBatch<double>&,
                                                  const HybridOptions&);
extern template HybridReport hybrid_solve<float>(const gpusim::DeviceSpec&,
                                                 tridiag::SystemBatch<float>&,
                                                 const HybridOptions&,
                                                 const SolvePlan&);
extern template HybridReport hybrid_solve<double>(const gpusim::DeviceSpec&,
                                                  tridiag::SystemBatch<double>&,
                                                  const HybridOptions&,
                                                  const SolvePlan&);

}  // namespace tridsolve::gpu
