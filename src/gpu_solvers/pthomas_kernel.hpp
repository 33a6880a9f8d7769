#pragma once
// p-Thomas kernel (paper §III.B): one thread per independent system, each
// running the classic Thomas algorithm over strided global memory.
//
// The systems are handed in as strided views, so the same kernel serves
//  * the post-tiled-PCR stage (system (m, r) at base m*N + r, stride 2^k —
//    consecutive threads touch consecutive addresses: coalesced), and
//  * the k = 0 path on an interleaved batch (base m, stride M — likewise
//    coalesced), and
//  * deliberately bad layouts in ablations (contiguous k = 0), where the
//    recorded transaction counts show the coalescing collapse.
//
// The solve is in place: c becomes c', d becomes d' and finally x.

#include <span>
#include <stdexcept>

#include "gpusim/device_spec.hpp"
#include "gpusim/launch.hpp"
#include "tridiag/types.hpp"

namespace tridsolve::gpu {

/// Forward+backward sweeps as two kernel launches (the backward pass is a
/// separate grid pass in real implementations as well: it needs the
/// forward pass complete for its own system only, but splitting keeps the
/// code one-phase-per-launch). Returns both launches' stats.
struct PthomasStats {
  gpusim::LaunchStats forward;
  gpusim::LaunchStats backward;
  /// Throws std::logic_error for functional_only launches, whose timing
  /// fields are meaningless.
  [[nodiscard]] double total_us() const {
    if (!forward.timed || !backward.timed) {
      throw std::logic_error(
          "PthomasStats::total_us: launch ran functional_only");
    }
    return forward.timing.time_us + backward.timing.time_us;
  }
};

/// Solve `systems` in place on the simulated device, one thread per
/// system and kPthomasBlockSystems (transition.hpp) threads per block;
/// the last block pads with idle lanes. If `xout` is non-empty it must parallel
/// `systems`; the backward pass then writes the solution there instead of
/// overwriting d (used when the reduced systems live in a scratch buffer
/// but the solution belongs in the caller's batch).
///
/// If `guard` is non-empty it must parallel `systems`: the forward sweep
/// checks every elimination pivot and writes a per-system SolveStatus
/// (zero_pivot at the first zero/non-finite denominator, plus the
/// pivot-growth estimate). Each system is owned by exactly one lane, so
/// the writes are race-free and deterministic. Detection is read-only:
/// it records no costs and changes no arithmetic, so guarded runs stay
/// bit-identical (outputs and timing) to unguarded ones. Entries for
/// empty systems are left untouched — pre-initialize them.
template <typename T>
PthomasStats pthomas_solve(const gpusim::DeviceSpec& dev,
                           std::span<const tridiag::SystemRef<T>> systems,
                           std::span<const tridiag::StridedView<T>> xout = {},
                           std::span<tridiag::SolveStatus> guard = {});

/// Backward sweep only, for the fused hybrid (whose PCR kernel already
/// performed the forward elimination, leaving c', d' in c, d).
template <typename T>
gpusim::LaunchStats pthomas_backward(const gpusim::DeviceSpec& dev,
                                     std::span<const tridiag::SystemRef<T>> systems,
                                     std::span<const tridiag::StridedView<T>> xout = {});

extern template PthomasStats pthomas_solve<float>(
    const gpusim::DeviceSpec&, std::span<const tridiag::SystemRef<float>>,
    std::span<const tridiag::StridedView<float>>,
    std::span<tridiag::SolveStatus>);
extern template PthomasStats pthomas_solve<double>(
    const gpusim::DeviceSpec&, std::span<const tridiag::SystemRef<double>>,
    std::span<const tridiag::StridedView<double>>,
    std::span<tridiag::SolveStatus>);
extern template gpusim::LaunchStats pthomas_backward<float>(
    const gpusim::DeviceSpec&, std::span<const tridiag::SystemRef<float>>,
    std::span<const tridiag::StridedView<float>>);
extern template gpusim::LaunchStats pthomas_backward<double>(
    const gpusim::DeviceSpec&, std::span<const tridiag::SystemRef<double>>,
    std::span<const tridiag::StridedView<double>>);

}  // namespace tridsolve::gpu
