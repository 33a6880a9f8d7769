#pragma once
// Human-readable reports of simulated kernel launches and timelines:
// what ran, for how long, what bound it, how well it coalesced, and how
// occupied the SMs were. Benches and examples print these with --trace.
//
// Contracts: pure formatting over already-recorded LaunchStats — reads
// its inputs, mutates nothing, safe to call concurrently on distinct
// Timeline objects. Times render in microseconds (or ms where labeled);
// Timeline::total_us throws for functional-only runs rather than print
// a fabricated number.

#include <string>

#include "gpusim/device_spec.hpp"
#include "gpusim/launch.hpp"
#include "util/table.hpp"

namespace tridsolve::gpusim {

/// Table over all segments of a timeline: label, grid x block, time,
/// binding resource, occupancy, transactions, coalescing efficiency and
/// each segment's share of the total.
[[nodiscard]] util::Table timeline_table(const DeviceSpec& dev,
                                         const Timeline& timeline,
                                         std::string title = "timeline");

/// Aggregate counters over a whole timeline.
struct TimelineTotals {
  double time_us = 0.0;      ///< Timeline::total_us
  double overhead_us = 0.0;  ///< launch overhead inside the segments
  std::size_t launches = 0;  ///< one per segment
  std::size_t transactions = 0;
  std::size_t bytes_requested = 0;
  double bytes_moved = 0.0;  ///< transactions x transaction size

  [[nodiscard]] double coalescing_efficiency() const noexcept {
    return bytes_moved > 0.0 ? static_cast<double>(bytes_requested) / bytes_moved
                             : 1.0;
  }
};

[[nodiscard]] TimelineTotals summarize_timeline(const DeviceSpec& dev,
                                                const Timeline& timeline);

}  // namespace tridsolve::gpusim
