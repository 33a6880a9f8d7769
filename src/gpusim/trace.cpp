#include "gpusim/trace.hpp"


namespace tridsolve::gpusim {

util::Table timeline_table(const DeviceSpec& dev, const Timeline& timeline,
                           std::string title) {
  util::Table table(std::move(title));
  table.set_header({"kernel", "grid", "block", "time[us]", "share", "bound",
                    "occupancy", "transactions", "coalescing"});
  for (const auto& seg : timeline.segments()) {
    const auto& s = seg.stats;
    const double share =
        timeline.total_us() > 0.0 ? s.timing.time_us / timeline.total_us() : 0.0;
    table.add_row(
        {seg.label,
         std::to_string(s.config.grid_blocks),
         std::to_string(s.config.block_threads),
         util::Table::num(s.timing.time_us, 1),
         util::Table::num(100.0 * share, 1) + "%",
         s.costs.warps == 0 ? "-" : s.timing.bound(),
         util::Table::num(100.0 * s.timing.occupancy.fraction, 0) + "%",
         std::to_string(s.costs.transactions),
         util::Table::num(
             100.0 * s.costs.coalescing_efficiency(dev.transaction_bytes), 0) +
             "%"});
  }
  table.add_row({"total", "", "", util::Table::num(timeline.total_us(), 1),
                 "100.0%", "", "", "", ""});
  return table;
}

TimelineTotals summarize_timeline(const DeviceSpec& dev,
                                  const Timeline& timeline) {
  TimelineTotals totals;
  totals.time_us = timeline.total_us();
  for (const auto& seg : timeline.segments()) {
    ++totals.launches;
    totals.overhead_us += seg.stats.timing.overhead_us;
    totals.transactions += seg.stats.costs.transactions;
    totals.bytes_requested += seg.stats.costs.bytes_requested;
  }
  totals.bytes_moved = static_cast<double>(totals.transactions) *
                       static_cast<double>(dev.transaction_bytes);
  return totals;
}

}  // namespace tridsolve::gpusim
