#pragma once
// 2-D ADI (Peaceman-Rachford) diffusion integrator over the simulated
// GPU — the full pipeline the paper's fluid-dynamics applications
// ([2][4][5]) run per time step:
//
//   1. implicit x-sweep: M = ny batched tridiagonal systems of nx
//      unknowns -> hybrid solver;
//   2. implicit y-sweep: M = nx systems of ny unknowns.
//
// Each sweep hands the planner its systems in the layout the row-major
// field already gives them: x rows contiguous, y columns interleaved.
// When the plan pairs its k with that layout (gpu::paired_layout) the
// sweep solves in place; otherwise a tiled transpose re-lays the field
// before the solve and another one restores it. So 384^2 solves its y
// columns in place with p-Thomas, 64^2 transposes around a tiled-PCR
// y-sweep, and 1024^2 transposes around an interleaved p-Thomas x-sweep.
//
// The per-step timeline charges every kernel (the batched solves and any
// transposes), so the bench/example level can report where ADI time
// actually goes. Matrices are constant across steps; the right-hand
// sides are rebuilt on the host (they depend on the current field).

#include <cstddef>
#include <span>
#include <vector>

#include "gpu_solvers/hybrid_solver.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/launch.hpp"
#include "tridiag/layout.hpp"
#include "util/aligned_buffer.hpp"

namespace tridsolve::apps {

struct AdiOptions {
  double r = 0.4;  ///< alpha * dt / h^2 (same spacing both directions)
};

struct AdiStepReport {
  gpusim::Timeline timeline;
  unsigned x_k = 0;  ///< transition point the x-sweep's plan chose
  unsigned y_k = 0;  ///< transition point the y-sweep's plan chose
  /// Throws std::logic_error when the step ran functional_only — see
  /// Timeline.
  [[nodiscard]] double total_us() const { return timeline.total_us(); }
  [[nodiscard]] double solve_us() const { return timeline.time_with_prefix("sweep"); }
  [[nodiscard]] double transpose_us() const {
    return timeline.time_with_prefix("transpose");
  }
};

/// ADI integrator for u_t = alpha (u_xx + u_yy) on an nx x ny interior
/// grid with homogeneous Dirichlet boundaries.
template <typename T>
class AdiIntegrator {
 public:
  AdiIntegrator(gpusim::DeviceSpec dev, std::size_t nx, std::size_t ny,
                AdiOptions opts = {});

  /// Advance `field` (row-major ny x nx, interior points) one full step.
  AdiStepReport step(std::vector<T>& field);

 private:
  /// One implicit half-step on the row-major field: plan the sweep for
  /// the layout its lines have in the field, solve there or between two
  /// transposes, and return the plan's k.
  unsigned half_step(bool x_sweep, std::vector<T>& field,
                     AdiStepReport& report);

  /// One hybrid solve over the sweep's lines, which `u` holds in
  /// `layout` (line l's point i at SystemBatch index (l, i)); the
  /// solution replaces u, and the segments go to `report` as "sweep-x:" /
  /// "sweep-y:".
  void sweep(bool x_sweep, std::span<T> u, tridiag::Layout layout,
             const gpu::SolvePlan& plan, AdiStepReport& report) const;

  gpusim::DeviceSpec dev_;
  std::size_t nx_, ny_;
  AdiOptions opts_;
  /// Transposed field staging, allocated by the first sweep that re-lays.
  util::AlignedBuffer<T> scratch_;
};

extern template class AdiIntegrator<float>;
extern template class AdiIntegrator<double>;

}  // namespace tridsolve::apps
