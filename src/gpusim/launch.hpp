#pragma once
// Kernel launch front-end: validates the configuration, hands the grid to
// the execution engine (parallel blocks, pooled scratch, one recorded block
// per cost class — see exec_engine.hpp), and prices the launch with the
// timing model.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "gpusim/block_context.hpp"
#include "gpusim/costs.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/exec_engine.hpp"
#include "gpusim/timing_model.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace tridsolve::gpusim {

/// Grid geometry of one launch. Instrumentation and hazard detection
/// follow the engine's defaults (--instrument / ScopedInstrumentMode,
/// --check-hazards / ScopedHazardMode).
struct LaunchConfig {
  std::size_t grid_blocks = 1;
  int block_threads = 1;
  /// Cost class of each block (one dense id per block, see
  /// block_classes.hpp): blocks of one class record identical costs, so
  /// sampled mode records only the lowest block of each. Empty means one
  /// class per block. Read during the launch only; LaunchStats::config
  /// does not keep it.
  std::span<const std::uint32_t> block_class{};
};

/// Result of one simulated launch.
struct LaunchStats {
  LaunchConfig config;
  KernelCosts costs;
  KernelTiming timing;
  /// False iff the launch ran functional_only: outputs are valid but no
  /// costs were recorded, so the timing fields are meaningless and
  /// Timeline refuses to total them.
  bool timed = true;
  /// Blocks that recorded instrumentation: the grid size in exact mode,
  /// one per cost class in sampled mode (the grid size when the launch
  /// declared no classes), 0 in functional_only.
  std::size_t instrumented_blocks = 0;
  /// Shared-memory hazard findings (all zero when detection was off —
  /// `hazards.tracked` distinguishes "clean" from "not checked").
  HazardCounts hazards{};
  /// First finding by block id; invalid when the launch was clean.
  HazardExample hazard_example{};
  /// Injected-fault tallies (all zero when no FaultPlan was active). A
  /// nonzero `faults.timeouts` means timing.time_us already includes the
  /// per-block overrun stalls — and that the results are suspect.
  FaultCounts faults{};
};

/// Execute `body(BlockContext&)` for every block of the grid.
/// Throws std::invalid_argument for a malformed device spec
/// (DeviceSpec::validate) and for configurations a real driver would
/// reject (too many threads per block, shared memory over capacity).
template <typename KernelFn>
LaunchStats launch(const DeviceSpec& dev, LaunchConfig cfg, KernelFn&& body) {
  dev.validate();
  if (cfg.block_threads <= 0 || cfg.block_threads > dev.max_threads_per_block) {
    throw std::invalid_argument("launch: invalid block size " +
                                std::to_string(cfg.block_threads));
  }
  const InstrumentMode mode = ExecutionEngine::instance().default_instrument();
  const HazardMode hazards = ExecutionEngine::instance().default_hazards();

  using Fn = std::remove_reference_t<KernelFn>;
  detail::LaunchRequest req;
  req.dev = &dev;
  req.grid_blocks = cfg.grid_blocks;
  req.block_threads = cfg.block_threads;
  req.block_class = cfg.block_class;
  req.mode = mode;
  req.hazards = hazards;
  req.user = const_cast<void*>(static_cast<const void*>(std::addressof(body)));
  req.body = [](void* user, BlockContext& ctx) {
    (*static_cast<Fn*>(user))(ctx);
  };

  // Span tracing (read-only; every call below no-ops when the tracer is
  // disabled). The id is reserved up front so block 0's per-phase spans
  // can parent under this launch, and the span is emitted only after the
  // timing model prices the launch — carrying both clocks.
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  const std::uint64_t span_id = tracer.reserve_id();
  const double span_wall0 = span_id != 0 ? tracer.now_wall_us() : 0.0;
  const double span_sim0 = span_id != 0 ? tracer.sim_now() : 0.0;
  req.span_parent = span_id;

  const detail::LaunchOutcome outcome = detail::execute_grid(req);

  LaunchStats stats;
  stats.config = cfg;
  stats.config.block_class = {};
  stats.costs = outcome.costs;
  stats.instrumented_blocks = outcome.instrumented_blocks;
  stats.hazards = outcome.hazards;
  stats.hazard_example = outcome.hazard_example;
  stats.faults = outcome.faults;
  stats.timed = mode != InstrumentMode::functional_only;
  if (stats.timed) {
    const int warps_per_block =
        (cfg.block_threads + dev.warp_size - 1) / dev.warp_size;
    stats.costs.warps =
        cfg.grid_blocks * static_cast<std::size_t>(warps_per_block);
    stats.timing = predict_kernel_time(dev, cfg.grid_blocks, cfg.block_threads,
                                       stats.costs);
    if (!stats.timing.occupancy.launchable()) {
      throw std::invalid_argument("launch: kernel not launchable (" +
                                  stats.timing.occupancy.limiter + " limit)");
    }
    // Injected per-block timeouts stall the launch past its modelled
    // time; the overrun is pure wall-clock, not extra work.
    stats.timing.time_us += outcome.fault_overrun_us;
  }
  detail::note_launch(cfg.grid_blocks, stats.timed, stats.timing.time_us,
                      stats.timing.overhead_us, stats.costs);
  if (span_id != 0) {
    if (stats.timed) tracer.advance_sim(stats.timing.time_us);
    obs::Span s;
    s.id = span_id;
    s.parent = tracer.current_parent();
    s.name = "launch";
    s.thread_ordinal = tracer.thread_ordinal();
    s.wall_t0_us = span_wall0;
    s.wall_t1_us = tracer.now_wall_us();
    s.sim_t0_us = span_sim0;
    s.sim_t1_us = tracer.sim_now();
    s.attrs.emplace_back("grid", obs::JsonValue(cfg.grid_blocks));
    s.attrs.emplace_back("block", obs::JsonValue(cfg.block_threads));
    s.attrs.emplace_back("instrument", obs::JsonValue(instrument_mode_name(mode)));
    if (stats.timed) {
      s.attrs.emplace_back("time_us", obs::JsonValue(stats.timing.time_us));
      s.attrs.emplace_back("bound", obs::JsonValue(stats.timing.bound()));
    }
    tracer.emit(std::move(s));
  }
  return stats;
}

/// Accumulates the launches making up one logical solve (e.g. tiled PCR
/// kernel + p-Thomas kernel), preserving the per-phase breakdown the
/// paper reports in §IV ("the portion of tiled PCR in total execution
/// time is 6.25% and 36.2% ...").
class Timeline {
 public:
  void add(std::string label, const LaunchStats& stats) {
    total_us_ += stats.timing.time_us;
    if (!stats.timed) ++untimed_segments_;
    segments_.push_back({std::move(label), stats});
  }

  /// Total simulated time. Throws std::logic_error when any segment ran
  /// functional_only — such a timeline has no meaningful timing to report.
  [[nodiscard]] double total_us() const {
    require_timed();
    return total_us_;
  }

  /// One kernel launch of the solve.
  struct Segment {
    std::string label;
    LaunchStats stats;

    /// Always false: every segment is a kernel launch. Kept only for its
    /// last caller, TimelineCosts::add in perfbench/workloads.cpp; delete
    /// it together with that call.
    [[nodiscard]] bool is_host() const noexcept { return false; }
  };
  [[nodiscard]] const std::vector<Segment>& segments() const noexcept {
    return segments_;
  }

  /// True iff every segment carries valid timing.
  [[nodiscard]] bool timed() const noexcept { return untimed_segments_ == 0; }

  /// Total time of all segments whose label starts with `prefix`.
  /// Throws std::logic_error when the timeline holds untimed segments.
  [[nodiscard]] double time_with_prefix(const std::string& prefix) const {
    require_timed();
    double sum = 0.0;
    for (const auto& seg : segments_) {
      if (seg.label.rfind(prefix, 0) == 0) sum += seg.stats.timing.time_us;
    }
    return sum;
  }

 private:
  void require_timed() const {
    if (untimed_segments_ > 0) {
      throw std::logic_error(
          "Timeline: timing requested but " +
          std::to_string(untimed_segments_) +
          " segment(s) executed functional_only (no recorded costs); "
          "re-run with --instrument exact|sampled for timing");
    }
  }

  double total_us_ = 0.0;
  std::size_t untimed_segments_ = 0;
  std::vector<Segment> segments_;
};

}  // namespace tridsolve::gpusim
