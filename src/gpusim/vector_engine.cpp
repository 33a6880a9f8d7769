#include "gpusim/vector_engine.hpp"

#include "obs/metrics.hpp"

namespace tridsolve::gpusim {

LanePool& host_lane_pool() noexcept {
  thread_local LanePool pool;
  return pool;
}

namespace detail {

void note_scratch(std::size_t acquires, std::size_t reuses) noexcept {
  static auto acq = obs::counter_handle("gpusim.scratch.acquires");
  static auto reu = obs::counter_handle("gpusim.scratch.reuses");
  if (acquires > 0) acq.add(static_cast<double>(acquires));
  if (reuses > 0) reu.add(static_cast<double>(reuses));
}

void note_vector_blocks(double n) noexcept {
  static auto blocks = obs::counter_handle("gpusim.vector.blocks");
  blocks.add(n);
}

}  // namespace detail

}  // namespace tridsolve::gpusim
