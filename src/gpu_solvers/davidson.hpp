#pragma once
// Baseline: Davidson, Zhang & Owens [19]-style auto-tuned PCR-Thomas
// hybrid, reimplemented from the paper's §V description for the Fig. 14
// comparison.
//
// Structure (per §V):
//  * *stepped global PCR*: each PCR step runs as its own kernel over the
//    whole input, ping-ponging between two global buffers — a grid-wide
//    synchronization per step, paying kernel relaunch overhead and full
//    global traffic (12 loads + 4 stores per row per step);
//  * once each reduced subsystem fits in shared memory, a final kernel
//    maps one subsystem per block ("coarse-grained tiles ... maximally
//    occupy shared memory"), finishes the reduction in shared with a
//    barrier per step, and solves with thread-parallel Thomas in shared.
//
// The contrasts with our method that §V calls out all fall out of the
// model: large shared footprint -> 1 block/SM occupancy; one kernel +
// full array traffic per PCR step vs. a single streaming pass; strided
// (uncoalesced) subsystem loads in the final stage.

#include <cstddef>

#include "gpusim/device_spec.hpp"
#include "gpusim/launch.hpp"
#include "tridiag/layout.hpp"

namespace tridsolve::gpu {

struct DavidsonReport {
  unsigned global_steps = 0;  ///< stepped-PCR kernel launches
  gpusim::Timeline timeline;
  /// Throws std::logic_error when the solve ran functional_only — see
  /// Timeline.
  [[nodiscard]] double total_us() const { return timeline.total_us(); }
};

/// Solve every system of `batch` (contiguous layout) in place; the
/// solution lands in d. Global steps run until each subsystem fits a
/// 1024-row shared tile (or the device's block limit, if smaller); the
/// final kernel runs 128 threads per block.
template <typename T>
DavidsonReport davidson_solve(const gpusim::DeviceSpec& dev,
                              tridiag::SystemBatch<T>& batch);

extern template DavidsonReport davidson_solve<float>(const gpusim::DeviceSpec&,
                                                     tridiag::SystemBatch<float>&);
extern template DavidsonReport davidson_solve<double>(const gpusim::DeviceSpec&,
                                                      tridiag::SystemBatch<double>&);

}  // namespace tridsolve::gpu
