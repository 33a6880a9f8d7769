// Tests for the fast-path execution engine (gpusim/exec_engine.hpp).
//
// The engine's contract is that none of its fast paths change a reported
// number: parallel block execution and instrumentation sampling must give
// bit-identical LaunchStats and bit-identical solver outputs versus the
// historical serial, fully-instrumented launch. functional_only is the
// one mode allowed to drop numbers — and it must refuse to report timing
// rather than report garbage.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpu_solvers/registry.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/exec_engine.hpp"
#include "gpusim/launch.hpp"
#include "obs/metrics.hpp"
#include "tridiag/layout.hpp"
#include "workloads/generators.hpp"

namespace gs = tridsolve::gpusim;
namespace gp = tridsolve::gpu;
namespace td = tridsolve::tridiag;
namespace wl = tridsolve::workloads;
namespace obs = tridsolve::obs;

namespace {

void expect_costs_identical(const gs::KernelCosts& a, const gs::KernelCosts& b,
                            const std::string& what) {
  EXPECT_EQ(a.ops_f32, b.ops_f32) << what;
  EXPECT_EQ(a.ops_f64, b.ops_f64) << what;
  EXPECT_EQ(a.transactions, b.transactions) << what;
  EXPECT_EQ(a.bytes_requested, b.bytes_requested) << what;
  EXPECT_EQ(a.loads, b.loads) << what;
  EXPECT_EQ(a.stores, b.stores) << what;
  EXPECT_EQ(a.rounds_total, b.rounds_total) << what;
  EXPECT_EQ(a.warps, b.warps) << what;
  EXPECT_EQ(a.barriers, b.barriers) << what;
  EXPECT_EQ(a.shared_accesses, b.shared_accesses) << what;
  EXPECT_EQ(a.shared_serializations, b.shared_serializations) << what;
  EXPECT_EQ(a.shared_peak_bytes, b.shared_peak_bytes) << what;
}

void expect_stats_identical(const gs::LaunchStats& a, const gs::LaunchStats& b,
                            const std::string& what) {
  expect_costs_identical(a.costs, b.costs, what);
  EXPECT_EQ(a.timed, b.timed) << what;
  EXPECT_EQ(a.timing.time_us, b.timing.time_us) << what;
  EXPECT_EQ(a.timing.compute_us, b.timing.compute_us) << what;
  EXPECT_EQ(a.timing.latency_us, b.timing.latency_us) << what;
  EXPECT_EQ(a.timing.bandwidth_us, b.timing.bandwidth_us) << what;
  EXPECT_EQ(a.timing.overhead_us, b.timing.overhead_us) << what;
  EXPECT_EQ(a.timing.occupancy.blocks_per_sm, b.timing.occupancy.blocks_per_sm)
      << what;
  EXPECT_EQ(a.timing.occupancy.resident_warps_per_sm,
            b.timing.occupancy.resident_warps_per_sm)
      << what;
}

/// A block-homogeneous synthetic kernel: every block streams its own tile
/// through shared memory with identical arithmetic — the shape the
/// sampling estimator is specified for.
gs::LaunchStats run_stream_kernel(const gs::DeviceSpec& dev,
                                  std::vector<double>& data, std::size_t grid,
                                  int threads, gs::InstrumentMode mode) {
  const gs::ScopedInstrumentMode scoped(mode);
  gs::LaunchConfig cfg;
  cfg.grid_blocks = grid;
  cfg.block_threads = threads;
  return gs::launch(dev, cfg, [&](gs::BlockContext& ctx) {
    auto tile =
        ctx.shared<double>(static_cast<std::size_t>(ctx.block_threads()));
    ctx.phase([&](gs::ThreadCtx& t) {
      const std::size_t i =
          ctx.block_id() * static_cast<std::size_t>(ctx.block_threads()) +
          static_cast<std::size_t>(t.tid());
      const double v = t.load(&data[i]);
      t.sstore(&tile[t.tid()], v);
      t.flops<double>(2);
      t.end_round();
    });
    ctx.phase([&](gs::ThreadCtx& t) {
      const std::size_t i =
          ctx.block_id() * static_cast<std::size_t>(ctx.block_threads()) +
          static_cast<std::size_t>(t.tid());
      const double v = t.sload(&tile[t.tid()]);
      t.divs<double>(1);
      t.store(&data[i], 2.0 * v + 1.0);
    });
  });
}

std::vector<double> make_data(std::size_t n) {
  std::vector<double> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = 0.25 * static_cast<double>(i % 97) - 3.0;
  }
  return data;
}

/// Counters accumulated by `fn` starting from a clean registry (resetting
/// first keeps double-valued counters exact — subtracting a large running
/// total would round away low bits), minus the names whose values
/// legitimately depend on execution strategy: host wall-clock timers
/// (*.time_us) and the sampling self-check bookkeeping.
std::map<std::string, double> strategy_invariant_metric_delta(
    const std::function<void()>& fn) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  fn();
  std::map<std::string, double> delta;
  for (const auto& [name, value] : reg.counters()) {
    if (name.size() >= 7 && name.rfind("time_us") == name.size() - 7) continue;
    if (name.rfind("gpusim.sampling.", 0) == 0) continue;
    // Pooled-scratch and vectorized-sweep tallies are execution-strategy
    // telemetry: they vary with worker count and instrument mode by design
    // (more workers -> more pool warm-ups; exact mode takes no sweep).
    if (name.rfind("gpusim.scratch.", 0) == 0) continue;
    if (name.rfind("gpusim.vector.", 0) == 0) continue;
    if (value != 0.0) delta[name] = value;
  }
  return delta;
}

}  // namespace

TEST(InstrumentMode, ParsesAndNames) {
  EXPECT_EQ(gs::parse_instrument_mode("exact"), gs::InstrumentMode::exact);
  EXPECT_EQ(gs::parse_instrument_mode("sampled"), gs::InstrumentMode::sampled);
  EXPECT_EQ(gs::parse_instrument_mode("functional"),
            gs::InstrumentMode::functional_only);
  EXPECT_EQ(gs::parse_instrument_mode("functional_only"),
            gs::InstrumentMode::functional_only);
  EXPECT_THROW((void)gs::parse_instrument_mode("fast"), std::invalid_argument);
  EXPECT_STREQ(gs::instrument_mode_name(gs::InstrumentMode::exact), "exact");
  EXPECT_STREQ(gs::instrument_mode_name(gs::InstrumentMode::sampled),
               "sampled");
  EXPECT_STREQ(gs::instrument_mode_name(gs::InstrumentMode::functional_only),
               "functional_only");
}

TEST(ExecutionEngine, ThreadCountConfigurable) {
  auto& engine = gs::ExecutionEngine::instance();
  const std::size_t fallback = engine.threads();
  EXPECT_GE(fallback, 1u);
  {
    gs::ScopedSimThreads guard(3);
    EXPECT_EQ(engine.threads(), 3u);
  }
  EXPECT_EQ(engine.threads(), fallback);
  {
    gs::ScopedSimThreads guard(0);  // 0 restores the default
    EXPECT_GE(engine.threads(), 1u);
  }
}

TEST(ExecutionEngine, ParallelExactMatchesSerialExact) {
  const auto dev = gs::gtx480();
  const std::size_t grid = 100;
  const int threads = 64;
  const auto init = make_data(grid * static_cast<std::size_t>(threads));

  // Both runs use the same buffer (restored in place between them):
  // recorded transactions depend on the buffer's alignment, so distinct
  // allocations would not be comparable.
  auto data = init;
  gs::LaunchStats serial;
  {
    gs::ScopedSimThreads guard(1);
    serial = run_stream_kernel(dev, data, grid, threads,
                               gs::InstrumentMode::exact);
  }
  EXPECT_EQ(serial.instrumented_blocks, grid);
  const auto serial_out = data;

  std::copy(init.begin(), init.end(), data.begin());
  gs::LaunchStats parallel;
  {
    gs::ScopedSimThreads guard(8);
    parallel = run_stream_kernel(dev, data, grid, threads,
                                 gs::InstrumentMode::exact);
  }
  EXPECT_EQ(parallel.instrumented_blocks, grid);
  expect_stats_identical(serial, parallel, "1 vs 8 sim threads");
  EXPECT_EQ(data, serial_out);
}

TEST(ExecutionEngine, SampledMatchesExactOnHomogeneousKernel) {
  const auto dev = gs::gtx480();
  const std::size_t grid = 100;
  const int threads = 64;
  const auto init = make_data(grid * static_cast<std::size_t>(threads));

  auto data = init;
  gs::LaunchStats exact;
  {
    gs::ScopedSimThreads guard(1);
    exact = run_stream_kernel(dev, data, grid, threads,
                              gs::InstrumentMode::exact);
  }
  const auto exact_out = data;

  std::copy(init.begin(), init.end(), data.begin());
  gs::LaunchStats sampled;
  {
    gs::ScopedSimThreads guard(8);
    sampled = run_stream_kernel(dev, data, grid, threads,
                                gs::InstrumentMode::sampled);
  }
  // The sample is a strict subset of the grid, yet the scaled costs, the
  // predicted timing and the functional outputs are all bit-identical.
  EXPECT_LT(sampled.instrumented_blocks, grid);
  EXPECT_GE(sampled.instrumented_blocks, 2u);
  expect_stats_identical(exact, sampled, "exact vs sampled");
  EXPECT_EQ(data, exact_out);
}

TEST(ExecutionEngine, SampledCoversSmallGridsExactly) {
  const auto dev = gs::gtx480();
  const std::size_t grid = 8;  // below the sample target: every block records
  const int threads = 32;
  const auto init = make_data(grid * static_cast<std::size_t>(threads));

  auto data = init;
  const auto exact = run_stream_kernel(dev, data, grid, threads,
                                       gs::InstrumentMode::exact);
  const auto exact_out = data;
  std::copy(init.begin(), init.end(), data.begin());
  const auto sampled = run_stream_kernel(dev, data, grid, threads,
                                         gs::InstrumentMode::sampled);
  EXPECT_EQ(sampled.instrumented_blocks, grid);
  expect_stats_identical(exact, sampled, "small-grid sampled");
  EXPECT_EQ(data, exact_out);
}

TEST(ExecutionEngine, FunctionalOnlyComputesButRefusesTiming) {
  const auto dev = gs::gtx480();
  const std::size_t grid = 16;
  const int threads = 32;
  const auto init = make_data(grid * static_cast<std::size_t>(threads));

  auto exact_data = init;
  (void)run_stream_kernel(dev, exact_data, grid, threads,
                          gs::InstrumentMode::exact);

  auto functional_data = init;
  const auto stats = run_stream_kernel(dev, functional_data, grid, threads,
                                       gs::InstrumentMode::functional_only);
  // Outputs are still real...
  EXPECT_EQ(functional_data, exact_data);
  // ...but nothing was recorded and the launch says so.
  EXPECT_FALSE(stats.timed);
  EXPECT_EQ(stats.instrumented_blocks, 0u);
  EXPECT_EQ(stats.costs.transactions, 0u);
  EXPECT_EQ(stats.costs.ops_f64, 0.0);

  gs::Timeline timeline;
  timeline.add("functional", stats);
  EXPECT_FALSE(timeline.timed());
  EXPECT_THROW((void)timeline.total_us(), std::logic_error);
  EXPECT_THROW((void)timeline.time_with_prefix("functional"),
               std::logic_error);
}

TEST(ExecutionEngine, FunctionalOnlyRegistryRunsReportUnsupported) {
  const auto dev = gs::gtx480();
  const auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 64, 512,
                                            td::Layout::contiguous, 11);
  gp::SolverRunOptions opts;
  opts.instrument = gs::InstrumentMode::functional_only;
  for (const auto kind : gp::all_solver_kinds()) {
    const auto outcome = gp::run_solver(kind, dev, batch, opts);
    EXPECT_FALSE(outcome.supported) << gp::solver_name(kind);
    EXPECT_FALSE(outcome.detail.empty()) << gp::solver_name(kind);
  }
}

TEST(ExecutionEngine, RegistryDeterministicAcrossThreadsAndSampling) {
  const auto dev = gs::gtx480();
  // n = 512 keeps every solver in its block-homogeneous regime (Davidson's
  // heterogeneous final kernel only appears past n = 1536); m = 64 avoids
  // the hybrid's split-system variant (taken when m < 2 * num_sms).
  const auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 64, 512,
                                            td::Layout::contiguous, 11);

  struct Strategy {
    const char* name;
    std::size_t threads;
    gs::InstrumentMode mode;
  };
  const Strategy baseline{"exact-serial", 1, gs::InstrumentMode::exact};
  const Strategy variants[] = {
      {"exact-parallel", 8, gs::InstrumentMode::exact},
      {"sampled-serial", 1, gs::InstrumentMode::sampled},
      {"sampled-parallel", 8, gs::InstrumentMode::sampled},
  };

  for (const auto kind : gp::all_solver_kinds()) {
    gp::SolveOutcome base_outcome;
    td::SystemBatch<double> base_solution;
    const auto base_metrics = strategy_invariant_metric_delta([&] {
      gs::ScopedSimThreads guard(baseline.threads);
      gp::SolverRunOptions opts;
      opts.instrument = baseline.mode;
      base_outcome = gp::run_solver(kind, dev, batch, opts, &base_solution);
    });
    ASSERT_TRUE(base_outcome.supported)
        << gp::solver_name(kind) << ": " << base_outcome.detail;

    for (const auto& strat : variants) {
      const std::string what =
          std::string(gp::solver_name(kind)) + " / " + strat.name;
      gp::SolveOutcome outcome;
      td::SystemBatch<double> solution;
      const auto metrics = strategy_invariant_metric_delta([&] {
        gs::ScopedSimThreads guard(strat.threads);
        gp::SolverRunOptions opts;
        opts.instrument = strat.mode;
        outcome = gp::run_solver(kind, dev, batch, opts, &solution);
      });
      ASSERT_TRUE(outcome.supported) << what << ": " << outcome.detail;

      // The reported numbers are bit-identical, not merely close.
      EXPECT_EQ(outcome.time_us, base_outcome.time_us) << what;
      EXPECT_EQ(outcome.launches, base_outcome.launches) << what;

      // So is the solution the solver produced.
      ASSERT_EQ(solution.total_rows(), base_solution.total_rows()) << what;
      for (std::size_t i = 0; i < solution.total_rows(); ++i) {
        ASSERT_EQ(solution.d()[i], base_solution.d()[i])
            << what << " row " << i;
      }

      // And every strategy-invariant metric the run emitted.
      for (const auto& [name, value] : base_metrics) {
        const auto it = metrics.find(name);
        ASSERT_TRUE(it != metrics.end()) << what << " lost " << name;
        EXPECT_EQ(it->second, value)
            << what << " " << name << ": " << std::hexfloat << it->second
            << " vs " << value << std::defaultfloat;
      }
      for (const auto& [name, value] : metrics) {
        EXPECT_TRUE(base_metrics.count(name))
            << what << " gained " << name << " = " << value;
      }
    }
  }
}

TEST(ExecutionEngine, ExactModeSelfCheckPassesOverRegistry) {
  const auto dev = gs::gtx480();
  const auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 64, 512,
                                            td::Layout::contiguous, 11);
  auto& reg = obs::MetricsRegistry::instance();
  const double checks_before = reg.counter("gpusim.sampling.checks");
  const double mismatches_before = reg.counter("gpusim.sampling.mismatches");

  gp::SolverRunOptions opts;
  opts.instrument = gs::InstrumentMode::exact;
  for (const auto kind : gp::all_solver_kinds()) {
    const auto outcome = gp::run_solver(kind, dev, batch, opts);
    EXPECT_TRUE(outcome.supported)
        << gp::solver_name(kind) << ": " << outcome.detail;
  }

  // Every exact launch replayed the sampling estimator against ground
  // truth; on these block-homogeneous kernels it must never disagree.
  EXPECT_GT(reg.counter("gpusim.sampling.checks"), checks_before);
  EXPECT_EQ(reg.counter("gpusim.sampling.mismatches"), mismatches_before);
}
