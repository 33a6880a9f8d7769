#pragma once
// 2-D ADI (Peaceman-Rachford) diffusion integrator over the simulated
// GPU — the full pipeline the paper's fluid-dynamics applications
// ([2][4][5]) run per time step:
//
//   1. implicit x-sweep: M = ny batched tridiagonal systems of nx
//      unknowns, rows contiguous -> hybrid solver;
//   2. tiled transpose of the field (keeps step 3's systems contiguous
//      and its solves coalesced);
//   3. implicit y-sweep: M = nx systems of ny unknowns;
//   4. transpose back.
//
// The per-step timeline charges every kernel (two batched solves + two
// transposes), so the bench/example level can report where ADI time
// actually goes. Matrices are constant across steps; the right-hand
// sides are rebuilt on the host (they depend on the current field).

#include <cstddef>
#include <span>
#include <vector>

#include "gpusim/device_spec.hpp"
#include "gpusim/launch.hpp"
#include "util/aligned_buffer.hpp"

namespace tridsolve::apps {

struct AdiOptions {
  double r = 0.4;  ///< alpha * dt / h^2 (same spacing both directions)
};

struct AdiStepReport {
  gpusim::Timeline timeline;
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

  [[nodiscard]] std::size_t nx() const noexcept { return nx_; }
  [[nodiscard]] std::size_t ny() const noexcept { return ny_; }

 private:
  /// One implicit half-step in place on `field`, row-major (lines x
  /// line_len) in the sweep's own orientation: one hybrid solve over the
  /// lines, its segments added to `report` as "sweep-x:" / "sweep-y:".
  void sweep(bool x_sweep, std::span<T> field, AdiStepReport& report) const;

  gpusim::DeviceSpec dev_;
  std::size_t nx_, ny_;
  AdiOptions opts_;
  util::AlignedBuffer<T> scratch_;  ///< transposed field staging
};

extern template class AdiIntegrator<float>;
extern template class AdiIntegrator<double>;

}  // namespace tridsolve::apps
