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
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gpu_solvers/registry.hpp"
#include "gpusim/block_classes.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/exec_engine.hpp"
#include "gpusim/launch.hpp"
#include "obs/metrics.hpp"
#include "tridiag/layout.hpp"
#include "util/cli.hpp"
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

/// A synthetic streaming kernel: every block streams its own tile of
/// `data` through shared memory with identical arithmetic, and threads
/// past the end of `data` idle, so full blocks cost the same and a ragged
/// last block less. `classes` is the launch's cost-class table (empty:
/// one class per block).
gs::LaunchStats run_stream_kernel(const gs::DeviceSpec& dev,
                                  std::vector<double>& data, std::size_t grid,
                                  int threads, gs::InstrumentMode mode,
                                  std::span<const std::uint32_t> classes = {}) {
  const gs::ScopedInstrumentMode scoped(mode);
  gs::LaunchConfig cfg;
  cfg.grid_blocks = grid;
  cfg.block_threads = threads;
  cfg.block_class = classes;
  const std::size_t n = data.size();
  return gs::launch(dev, cfg, [&](gs::BlockContext& ctx) {
    auto tile =
        ctx.shared<double>(static_cast<std::size_t>(ctx.block_threads()));
    ctx.phase([&](gs::ThreadCtx& t) {
      const std::size_t i =
          ctx.block_id() * static_cast<std::size_t>(ctx.block_threads()) +
          static_cast<std::size_t>(t.tid());
      if (i >= n) return;
      const double v = t.load(&data[i]);
      t.sstore(&tile[t.tid()], v);
      t.flops<double>(2);
      t.end_round();
    });
    ctx.phase([&](gs::ThreadCtx& t) {
      const std::size_t i =
          ctx.block_id() * static_cast<std::size_t>(ctx.block_threads()) +
          static_cast<std::size_t>(t.tid());
      if (i >= n) return;
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

TEST(ExecutionEngine, ThreadCountIsBounded) {
  // Launches nothing, so no pool worker starts: only the configured count
  // and the CLI check are looked at.
  constexpr std::size_t kMax = gs::ExecutionEngine::kMaxThreads;
  auto& engine = gs::ExecutionEngine::instance();
  const gs::ScopedSimThreads restore(1);
  engine.set_threads(kMax + 1000);
  EXPECT_EQ(engine.threads(), kMax);

  const char* prev_env = std::getenv("TRIDSOLVE_SIM_THREADS");
  const std::optional<std::string> prev =
      prev_env ? std::optional<std::string>(prev_env) : std::nullopt;
  ::setenv("TRIDSOLVE_SIM_THREADS", "3", 1);
  engine.set_threads(0);
  EXPECT_EQ(engine.threads(), 3u);
  ::setenv("TRIDSOLVE_SIM_THREADS", std::to_string(kMax + 1).c_str(), 1);
  engine.set_threads(0);  // ignored like a malformed value
  EXPECT_EQ(engine.threads(),
            std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kMax));
  if (prev) {
    ::setenv("TRIDSOLVE_SIM_THREADS", prev->c_str(), 1);
  } else {
    ::unsetenv("TRIDSOLVE_SIM_THREADS");
  }

  const auto configure = [](const std::string& n) {
    const char* argv[] = {"prog", "--sim-threads", n.c_str()};
    const tridsolve::util::Cli cli(3, argv, tridsolve::util::with_obs_flags({}));
    gs::configure_engine_from_cli(cli);
  };
  configure(std::to_string(kMax));
  EXPECT_EQ(engine.threads(), kMax);
  EXPECT_THROW(configure(std::to_string(kMax + 1)), std::invalid_argument);
  EXPECT_THROW(configure("-1"), std::invalid_argument);
  EXPECT_EQ(engine.threads(), kMax);
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

// Sampled mode records the lowest block of each declared cost class and
// charges its costs to the whole class: 99 full tiles are one class, the
// ragged tail another, so two blocks record, and the costs, the predicted
// timing and the outputs match the exact run bit for bit at 1 and 8 sim
// threads.
TEST(ExecutionEngine, SampledRecordsOneBlockPerDeclaredClass) {
  const auto dev = gs::gtx480();
  const std::size_t grid = 100;
  const int threads = 64;
  const auto init =
      make_data((grid - 1) * static_cast<std::size_t>(threads) + 5);
  std::vector<std::uint32_t> classes(grid, 0);
  classes.back() = 1;

  auto data = init;
  gs::LaunchStats exact;
  {
    gs::ScopedSimThreads guard(1);
    exact = run_stream_kernel(dev, data, grid, threads,
                              gs::InstrumentMode::exact, classes);
  }
  EXPECT_EQ(exact.instrumented_blocks, grid);
  const auto exact_out = data;

  for (const std::size_t sim_threads : {1u, 8u}) {
    const std::string what =
        "exact vs sampled at " + std::to_string(sim_threads) + " sim threads";
    std::copy(init.begin(), init.end(), data.begin());
    gs::ScopedSimThreads guard(sim_threads);
    const auto sampled = run_stream_kernel(
        dev, data, grid, threads, gs::InstrumentMode::sampled, classes);
    EXPECT_EQ(sampled.instrumented_blocks, 2u) << what;
    expect_stats_identical(exact, sampled, what);
    EXPECT_EQ(data, exact_out) << what;
  }
}

// A launch that declares no classes is one class per block: sampled mode
// then records every block, exactly as exact mode does.
TEST(ExecutionEngine, SampledWithoutClassTableRecordsEveryBlock) {
  const auto dev = gs::gtx480();
  const std::size_t grid = 100;
  const int threads = 32;
  const auto init = make_data(grid * static_cast<std::size_t>(threads));

  auto data = init;
  const auto exact = run_stream_kernel(dev, data, grid, threads,
                                       gs::InstrumentMode::exact);
  const auto exact_out = data;
  for (const std::size_t sim_threads : {1u, 8u}) {
    const std::string what =
        "no table at " + std::to_string(sim_threads) + " sim threads";
    std::copy(init.begin(), init.end(), data.begin());
    gs::ScopedSimThreads guard(sim_threads);
    const auto sampled = run_stream_kernel(dev, data, grid, threads,
                                           gs::InstrumentMode::sampled);
    EXPECT_EQ(sampled.instrumented_blocks, grid) << what;
    expect_stats_identical(exact, sampled, what);
    EXPECT_EQ(data, exact_out) << what;
  }
}

// Exact mode verifies every declared table: a kernel that puts its
// ragged tail block in the full blocks' class is counted as a mismatch,
// and the correct table is not.
TEST(ExecutionEngine, ExactSelfCheckCountsMisdeclaredClasses) {
  const auto dev = gs::gtx480();
  const std::size_t grid = 10;
  const int threads = 64;
  auto data = make_data((grid - 1) * static_cast<std::size_t>(threads) + 5);
  auto& reg = obs::MetricsRegistry::instance();
  const auto run_exact = [&](std::span<const std::uint32_t> classes) {
    const double checks = reg.counter("gpusim.sampling.checks");
    const double mismatches = reg.counter("gpusim.sampling.mismatches");
    (void)run_stream_kernel(dev, data, grid, threads,
                            gs::InstrumentMode::exact, classes);
    return std::pair{reg.counter("gpusim.sampling.checks") - checks,
                     reg.counter("gpusim.sampling.mismatches") - mismatches};
  };

  const std::vector<std::uint32_t> one_class(grid, 0);
  EXPECT_EQ(run_exact(one_class), std::pair(1.0, 1.0));
  std::vector<std::uint32_t> right = one_class;
  right.back() = 1;
  EXPECT_EQ(run_exact(right), std::pair(1.0, 0.0));
  EXPECT_EQ(run_exact({}), std::pair(0.0, 0.0)) << "no table, nothing to check";
}

TEST(ExecutionEngine, RejectsMalformedClassTables) {
  const auto dev = gs::gtx480();
  auto data = make_data(4 * 32);
  const std::vector<std::uint32_t> too_short(3, 0);
  EXPECT_THROW((void)run_stream_kernel(dev, data, 4, 32,
                                       gs::InstrumentMode::sampled, too_short),
               std::invalid_argument);
  const std::vector<std::uint32_t> out_of_range = {0, 1, 2, 4};
  EXPECT_THROW((void)run_stream_kernel(dev, data, 4, 32,
                                       gs::InstrumentMode::sampled,
                                       out_of_range),
               std::invalid_argument);
}

// BlockClasses: blocks join a class only on an identical
// signature, and addresses count as offsets from the block's first one
// plus that address modulo the transaction size.
TEST(BlockClasses, GroupsBlocksByFullSignature) {
  gs::BlockClasses classes(128);
  const auto block = [&](std::uintptr_t base, std::int64_t rows) {
    classes.begin_block();
    classes.push(rows);
    classes.address(base);
    classes.address(base + 4096);
    classes.end_block();
  };
  block(1024, 7);         // class 0
  block(1024 + 512, 7);   // translated by whole transactions: class 0
  block(1024 + 8, 7);     // other residue: class 1
  block(1024 + 256, 6);   // other row count: class 2
  block(1024 + 136, 7);   // residue 8 again: class 1
  const std::vector<std::uint32_t> want = {0, 0, 1, 2, 1};
  EXPECT_TRUE(std::ranges::equal(classes.table(), want));
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
  // Split-system shapes and Davidson's heterogeneous final kernel are
  // covered by VectorEngine.RegistryWideBitIdentityVectorOnVsOff.
  const auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 64, 512,
                                            td::Layout::contiguous, 11);
  // The guarded pass solves a copy with zero pivots planted in systems
  // that land in different blocks of every kernel (row 0 breaks the first
  // Thomas pivot, row 200 two PCR combines), so pool workers write flagged
  // and ok guard slots side by side: under ThreadSanitizer (label `race`)
  // this pass checks those writes.
  auto broken = batch.clone();
  for (const std::size_t m : {3, 40}) broken.b()[broken.index(m, 0)] = 0.0;
  broken.b()[broken.index(17, 200)] = 0.0;

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

  const auto same_status = [](const td::SolveStatus& x,
                              const td::SolveStatus& y) {
    return x.code == y.code && x.index == y.index &&
           std::bit_cast<std::uint64_t>(x.pivot_growth) ==
               std::bit_cast<std::uint64_t>(y.pivot_growth);
  };
  for (const bool guard : {false, true}) {
    const td::SystemBatch<double>& input = guard ? broken : batch;
    const auto run = [&](gp::SolverKind kind, const Strategy& strat,
                         gp::SolveOutcome& outcome,
                         td::SystemBatch<double>& solution) {
      return strategy_invariant_metric_delta([&] {
        gs::ScopedSimThreads scoped(strat.threads);
        gp::SolverRunOptions opts;
        opts.instrument = strat.mode;
        opts.guard = guard;
        outcome = gp::run_solver(kind, dev, input, opts, &solution);
      });
    };
    for (const auto kind : gp::all_solver_kinds()) {
      gp::SolveOutcome base_outcome;
      td::SystemBatch<double> base_solution;
      const auto base_metrics =
          run(kind, baseline, base_outcome, base_solution);
      ASSERT_TRUE(base_outcome.supported)
          << gp::solver_name(kind) << ": " << base_outcome.detail;
      if (guard) {  // row 0 breaks every kind; row 200 only the PCR ones
        EXPECT_GE(base_outcome.flagged, 2u) << gp::solver_name(kind);
      }

      for (const auto& strat : variants) {
        const std::string what = std::string(gp::solver_name(kind)) + " / " +
                                 strat.name + (guard ? " guarded" : "");
        gp::SolveOutcome outcome;
        td::SystemBatch<double> solution;
        const auto metrics = run(kind, strat, outcome, solution);
        ASSERT_TRUE(outcome.supported) << what << ": " << outcome.detail;

        // The reported numbers are bit-identical, not merely close.
        EXPECT_EQ(outcome.time_us, base_outcome.time_us) << what;
        EXPECT_EQ(outcome.launches, base_outcome.launches) << what;

        // So is every system's guard status, and the solution of every
        // system the guard passed. A flagged system's output is left as
        // the solver produced it, and which bits that is (a NaN's sign,
        // say) is not pinned here.
        ASSERT_EQ(outcome.status.size(), base_outcome.status.size()) << what;
        for (std::size_t m = 0; m < outcome.status.size(); ++m) {
          EXPECT_TRUE(same_status(outcome.status[m], base_outcome.status[m]))
              << what << " system " << m;
        }
        ASSERT_EQ(solution.total_rows(), base_solution.total_rows()) << what;
        for (std::size_t m = 0; m < solution.num_systems(); ++m) {
          if (guard && !base_outcome.status[m].ok()) continue;
          for (std::size_t i = 0; i < solution.system_size(); ++i) {
            ASSERT_EQ(solution.d()[solution.index(m, i)],
                      base_solution.d()[base_solution.index(m, i)])
                << what << " system " << m << " row " << i;
          }
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

  // Every exact launch that declared cost classes checked them against
  // its full record; none may disagree.
  EXPECT_GT(reg.counter("gpusim.sampling.checks"), checks_before);
  EXPECT_EQ(reg.counter("gpusim.sampling.mismatches"), mismatches_before);
}
