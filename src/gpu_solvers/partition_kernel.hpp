#pragma once
// Register-packed block-partition solver on the simulated GPU — the GPU
// form of tridiag/partition.hpp and the structure of Davidson & Owens'
// register-packed CR [18] / cuSPARSE gtsv:
//
//   stage 1  one thread per packet: load the packet's p rows into
//            registers, run the downward and upward eliminations there,
//            store the per-row downward coefficients (needed later for
//            back-substitution) and the packet's boundary relations;
//   stage 2  one thread per system: 2x2 block Thomas over the packets'
//            boundary unknowns (the reduced system);
//   stage 3  one thread per packet: local back-substitution, x into d.
//
// Three launches with global traffic ~7 accesses/row — an interesting
// contrast to the hybrid in the solver-family ablation: no shared memory
// at all (occupancy never shared-limited), but packet-contiguous reads
// coalesce poorly in a contiguous batch layout, and the reduced stage has
// only M-way parallelism.

#include <cstddef>

#include "gpusim/device_spec.hpp"
#include "gpusim/launch.hpp"
#include "tridiag/layout.hpp"

namespace tridsolve::gpu {

/// Rows per thread (the "register packing" factor).
inline constexpr std::size_t kPartitionPacket = 8;

struct PartitionGpuReport {
  gpusim::Timeline timeline;
  /// Throws std::logic_error when the solve ran functional_only — see
  /// Timeline.
  [[nodiscard]] double total_us() const { return timeline.total_us(); }
};

/// Solve every system of `batch` in place (solution in d), 128 threads
/// per block.
template <typename T>
PartitionGpuReport partition_solve_gpu(const gpusim::DeviceSpec& dev,
                                       tridiag::SystemBatch<T>& batch);

extern template PartitionGpuReport partition_solve_gpu<float>(
    const gpusim::DeviceSpec&, tridiag::SystemBatch<float>&);
extern template PartitionGpuReport partition_solve_gpu<double>(
    const gpusim::DeviceSpec&, tridiag::SystemBatch<double>&);

}  // namespace tridsolve::gpu
