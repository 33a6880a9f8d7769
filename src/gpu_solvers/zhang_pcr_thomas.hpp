#pragma once
// Baseline: Zhang/Cohen/Owens [16][17]-style in-shared-memory PCR-Thomas
// hybrid for small systems. One thread block holds one entire system in
// shared memory, runs PCR steps (one barrier-synchronized step at a time)
// until there is one subsystem per thread, then finishes with
// thread-parallel Thomas — all in shared.
//
// Its limitation is the paper's §I critique of [16][17]: "their methods
// store an entire input system in shared memory. As a result, the limited
// capacity of shared memory considerably limits their availability for
// real use." `zhang_fits` exposes that capacity bound, and zhang_solve
// throws when exceeded. Our tiled method reduces to this solver when the
// input fits (Fig. 11(a) note).

#include <cstddef>

#include "gpusim/device_spec.hpp"
#include "gpusim/launch.hpp"
#include "tridiag/layout.hpp"

namespace tridsolve::gpu {

/// Largest system size a block can host in shared memory.
[[nodiscard]] std::size_t zhang_max_rows(const gpusim::DeviceSpec& dev,
                                         std::size_t elem_size);

[[nodiscard]] bool zhang_fits(const gpusim::DeviceSpec& dev, std::size_t n,
                              std::size_t elem_size);

/// Solve every system of `batch` in place (solution in d), one
/// 128-thread block per system.
/// Throws std::invalid_argument if a system does not fit in shared memory.
template <typename T>
gpusim::LaunchStats zhang_solve(const gpusim::DeviceSpec& dev,
                                tridiag::SystemBatch<T>& batch);

extern template gpusim::LaunchStats zhang_solve<float>(const gpusim::DeviceSpec&,
                                                       tridiag::SystemBatch<float>&);
extern template gpusim::LaunchStats zhang_solve<double>(const gpusim::DeviceSpec&,
                                                        tridiag::SystemBatch<double>&);

}  // namespace tridsolve::gpu
