#pragma once
// Baseline: cyclic-reduction GPU kernel in the style of Sengupta et al. [3]
// and Göddeke & Strzodka [10] — one block per system, the whole system in
// shared memory (SoA arrays), forward reduction halving the active thread
// count each level, then backward substitution doubling it again.
//
// CR's stride-2^L shared accesses hit power-of-two bank patterns, so the
// naive layout serializes badly as the reduction deepens; [10]'s fix is
// index padding (one padding element per `banks/2` entries), which this
// kernel implements behind `pad_shared`. All shared accesses are routed
// through the simulator's bank tracker, so the conflict counts (and their
// time impact) are measured by the banks ablation bench rather than
// asserted.

#include <cstddef>

#include "gpusim/device_spec.hpp"
#include "gpusim/launch.hpp"
#include "tridiag/layout.hpp"

namespace tridsolve::gpu {

struct CrKernelOptions {
  bool pad_shared = false;  ///< Göddeke-style bank-conflict-avoiding padding
};

/// Solve every system of `batch` in place (solution in d), one 128-thread
/// block per system. Requires the padded system (next power of two, plus
/// padding if enabled) to fit in shared memory.
template <typename T>
gpusim::LaunchStats cr_kernel_solve(const gpusim::DeviceSpec& dev,
                                    tridiag::SystemBatch<T>& batch,
                                    const CrKernelOptions& opts = {});

extern template gpusim::LaunchStats cr_kernel_solve<float>(
    const gpusim::DeviceSpec&, tridiag::SystemBatch<float>&,
    const CrKernelOptions&);
extern template gpusim::LaunchStats cr_kernel_solve<double>(
    const gpusim::DeviceSpec&, tridiag::SystemBatch<double>&,
    const CrKernelOptions&);

}  // namespace tridsolve::gpu
