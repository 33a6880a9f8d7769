#pragma once
// Tiled matrix transpose on the simulated GPU.
//
// ADI integrators alternate row sweeps and column sweeps. When a sweep's
// plan pairs its k with the layout the field does not give its systems,
// apps/adi re-lays the field with this kernel before the solve and
// restores it after. The kernel is the canonical shared-memory tiled
// transpose: each block stages a TILE x TILE patch in shared memory so
// both the global read and the global write are unit-stride. Without the
// +1 padding column the shared stores/loads hit the same bank TILE ways —
// the textbook bank-conflict example, measurable here via the simulator's
// bank tracker.

#include <cstddef>

#include "gpusim/device_spec.hpp"
#include "gpusim/launch.hpp"

namespace tridsolve::gpu {

struct TransposeOptions {
  std::size_t tile = 32;    ///< tile side (threads per block = tile * rows_per_thread ...)
  std::size_t rows_per_thread = 4;  ///< each thread copies tile/rows_per_thread rows
  bool pad_shared = true;   ///< +1 column padding (bank-conflict free)
};

/// out[c * rows + r] = in[r * cols + c] for an (rows x cols) row-major
/// matrix. Functional + fully cost-accounted.
template <typename T>
gpusim::LaunchStats transpose(const gpusim::DeviceSpec& dev, const T* in, T* out,
                              std::size_t rows, std::size_t cols,
                              const TransposeOptions& opts = {});

extern template gpusim::LaunchStats transpose<float>(const gpusim::DeviceSpec&,
                                                     const float*, float*,
                                                     std::size_t, std::size_t,
                                                     const TransposeOptions&);
extern template gpusim::LaunchStats transpose<double>(const gpusim::DeviceSpec&,
                                                      const double*, double*,
                                                      std::size_t, std::size_t,
                                                      const TransposeOptions&);

}  // namespace tridsolve::gpu
