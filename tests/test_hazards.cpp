// Tests for the shared-memory hazard detector (gpusim/hazard_tracker.hpp
// + the HazardMode wiring in the execution engine).
//
// Two halves, mirroring the detector's contract:
//  * Negative paths: deliberately defective kernels — racy same-word
//    writes, a missing barrier between neighbour write/read, a
//    write-after-read overlap, an out-of-bounds arena access, and
//    divergent intra-phase barriers — are each flagged with exactly the
//    right category (and only that category), deterministically for any
//    worker count; fatal mode turns the finding into an exception.
//  * Read-only guarantee: every shipping solver kind runs clean under
//    detect, with outputs and simulated time bit-identical to a run with
//    detection off — the PR-3-style "instrumentation changes nothing"
//    pin, extended to hazard checking. This mechanically certifies the
//    paper's claim that the buffered sliding window is race-free.

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
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

constexpr int kThreads = 32;

/// Launch `body` on a small grid with the given hazard mode.
template <typename F>
gs::LaunchStats run_hazard_kernel(gs::HazardMode mode, F&& body,
                                  std::size_t grid = 1) {
  const auto dev = gs::gtx480();
  const gs::ScopedHazardMode scoped(mode);
  gs::LaunchConfig cfg;
  cfg.grid_blocks = grid;
  cfg.block_threads = kThreads;
  // Wrap so plain function references work (launch passes the callable
  // through a void* user pointer, which function pointers cannot use).
  return gs::launch(dev, cfg,
                    [&](gs::BlockContext& ctx) { body(ctx); });
}

// ---- The seeded-defect kernels ---------------------------------------

/// Racy kernel: every thread of the block writes shared word 0 in the
/// same barrier interval. Pure WAW (no shared reads at all).
void racy_waw_kernel(gs::BlockContext& ctx) {
  auto s = ctx.shared<float>(kThreads);
  ctx.phase([&](gs::ThreadCtx& t) {
    t.sstore(&s[0], static_cast<float>(t.tid()));
  });
}

/// Missing-barrier kernel: each thread writes its own slot, then reads
/// its left neighbour's slot *in the same phase* — the classic bug of
/// dropping the __syncthreads() between produce and consume. Pure RAW.
void missing_barrier_kernel(gs::BlockContext& ctx) {
  auto s = ctx.shared<float>(kThreads);
  ctx.phase([&](gs::ThreadCtx& t) {
    t.sstore(&s[t.tid()], static_cast<float>(t.tid()));
    if (t.tid() > 0) (void)t.sload(&s[t.tid() - 1]);
  });
}

/// WAR kernel: each thread reads its right neighbour's slot, then writes
/// its own — overwriting, within the interval, a word another thread
/// already read. Pure WAR.
void war_kernel(gs::BlockContext& ctx) {
  auto s = ctx.shared<float>(kThreads + 1);
  ctx.phase([&](gs::ThreadCtx& t) {
    (void)t.sload(&s[t.tid() + 1]);
    t.sstore(&s[t.tid()], static_cast<float>(t.tid()));
  });
}

/// OOB kernel: a shared access past the allocated arena region (the span
/// has kThreads floats; slot kThreads is beyond the high-water mark).
/// The arena's backing store is zero-initialised and sized to device
/// capacity, so the stray read is memory-safe on the host — only wrong.
void oob_kernel(gs::BlockContext& ctx) {
  auto s = ctx.shared<float>(kThreads);
  ctx.phase([&](gs::ThreadCtx& t) {
    if (t.tid() == 0) (void)t.sload(s.data() + kThreads);
  });
}

/// Divergence kernel: half the block executes an intra-phase barrier the
/// other half skips — on hardware, a hang (or undefined behaviour).
void divergence_kernel(gs::BlockContext& ctx) {
  auto s = ctx.shared<float>(kThreads);
  ctx.phase([&](gs::ThreadCtx& t) {
    t.sstore(&s[t.tid()], 1.0f);
    if (t.tid() < kThreads / 2) t.sync();
  });
}

/// Clean kernel: the produce / barrier / consume discipline done right.
void clean_kernel(gs::BlockContext& ctx) {
  auto s = ctx.shared<float>(kThreads);
  ctx.phase([&](gs::ThreadCtx& t) {
    t.sstore(&s[t.tid()], static_cast<float>(t.tid()));
  });
  ctx.phase([&](gs::ThreadCtx& t) {
    if (t.tid() > 0) (void)t.sload(&s[t.tid() - 1]);
  });
}

void expect_only(const gs::HazardCounts& hz, std::size_t raw, std::size_t war,
                 std::size_t waw, std::size_t oob, std::size_t divergence,
                 const std::string& what) {
  EXPECT_EQ(hz.raw, raw) << what;
  EXPECT_EQ(hz.war, war) << what;
  EXPECT_EQ(hz.waw, waw) << what;
  EXPECT_EQ(hz.oob, oob) << what;
  EXPECT_EQ(hz.divergence, divergence) << what;
}

}  // namespace

TEST(HazardMode, ParsesAndNames) {
  EXPECT_EQ(gs::parse_hazard_mode("off"), gs::HazardMode::off);
  EXPECT_EQ(gs::parse_hazard_mode("detect"), gs::HazardMode::detect);
  EXPECT_EQ(gs::parse_hazard_mode("fatal"), gs::HazardMode::fatal);
  // Boolean-switch spellings of --check-hazards mean detect.
  EXPECT_EQ(gs::parse_hazard_mode("true"), gs::HazardMode::detect);
  EXPECT_EQ(gs::parse_hazard_mode("1"), gs::HazardMode::detect);
  EXPECT_THROW((void)gs::parse_hazard_mode("loud"), std::invalid_argument);
  EXPECT_STREQ(gs::hazard_mode_name(gs::HazardMode::off), "off");
  EXPECT_STREQ(gs::hazard_mode_name(gs::HazardMode::detect), "detect");
  EXPECT_STREQ(gs::hazard_mode_name(gs::HazardMode::fatal), "fatal");
}

TEST(HazardDetect, RacyKernelFlaggedAsWaw) {
  const auto stats = run_hazard_kernel(gs::HazardMode::detect, racy_waw_kernel);
  // Thread 0's write is first; every later thread conflicts with it.
  expect_only(stats.hazards, 0, 0, kThreads - 1, 0, 0, "racy kernel");
  ASSERT_TRUE(stats.hazard_example.valid);
  EXPECT_STREQ(stats.hazard_example.kind, "waw");
  EXPECT_EQ(stats.hazard_example.block, 0u);
  EXPECT_EQ(stats.hazard_example.byte_offset, 0u);
  EXPECT_NE(stats.hazard_example.tid_a, stats.hazard_example.tid_b);
  EXPECT_NE(stats.hazard_example.describe().find("waw"), std::string::npos);
}

TEST(HazardDetect, MissingBarrierFlaggedAsRaw) {
  const auto stats =
      run_hazard_kernel(gs::HazardMode::detect, missing_barrier_kernel);
  // Every thread but 0 reads the word its neighbour just wrote.
  expect_only(stats.hazards, kThreads - 1, 0, 0, 0, 0, "missing barrier");
  ASSERT_TRUE(stats.hazard_example.valid);
  EXPECT_STREQ(stats.hazard_example.kind, "raw");
}

TEST(HazardDetect, OverwriteOfReadWordFlaggedAsWar) {
  const auto stats = run_hazard_kernel(gs::HazardMode::detect, war_kernel);
  // Threads 1..N-1 overwrite a word their left neighbour already read.
  expect_only(stats.hazards, 0, kThreads - 1, 0, 0, 0, "war kernel");
  ASSERT_TRUE(stats.hazard_example.valid);
  EXPECT_STREQ(stats.hazard_example.kind, "war");
}

TEST(HazardDetect, OutOfBoundsArenaAccessFlagged) {
  const auto stats = run_hazard_kernel(gs::HazardMode::detect, oob_kernel);
  expect_only(stats.hazards, 0, 0, 0, 1, 0, "oob kernel");
  ASSERT_TRUE(stats.hazard_example.valid);
  EXPECT_STREQ(stats.hazard_example.kind, "oob");
}

TEST(HazardDetect, BarrierDivergenceFlagged) {
  const auto stats =
      run_hazard_kernel(gs::HazardMode::detect, divergence_kernel);
  expect_only(stats.hazards, 0, 0, 0, 0, 1, "divergence kernel");
  ASSERT_TRUE(stats.hazard_example.valid);
  EXPECT_STREQ(stats.hazard_example.kind, "divergence");
}

TEST(HazardDetect, CleanKernelReportsNothingButTracks) {
  const auto stats = run_hazard_kernel(gs::HazardMode::detect, clean_kernel);
  expect_only(stats.hazards, 0, 0, 0, 0, 0, "clean kernel");
  EXPECT_FALSE(stats.hazard_example.valid);
  // tracked > 0 distinguishes "inspected and clean" from "not watching".
  EXPECT_GT(stats.hazards.tracked, 0u);
  EXPECT_EQ(stats.hazard_example.describe(), "no hazard");
}

TEST(HazardDetect, OffModeTracksNothing) {
  const auto stats = run_hazard_kernel(gs::HazardMode::off, racy_waw_kernel);
  expect_only(stats.hazards, 0, 0, 0, 0, 0, "off mode");
  EXPECT_EQ(stats.hazards.tracked, 0u);
  EXPECT_FALSE(stats.hazard_example.valid);
}

TEST(HazardDetect, GlobalMemoryTrafficIsNotShared) {
  // Plain load/store outside the arena is ordinary global traffic: not
  // tracked, not OOB — even when every thread hits the same address.
  std::vector<double> global(kThreads, 1.0);
  const auto stats =
      run_hazard_kernel(gs::HazardMode::detect, [&](gs::BlockContext& ctx) {
        ctx.phase([&](gs::ThreadCtx& t) {
          (void)t.load(&global[0]);
          t.store(&global[static_cast<std::size_t>(t.tid())], 2.0);
        });
      });
  expect_only(stats.hazards, 0, 0, 0, 0, 0, "global traffic");
  EXPECT_EQ(stats.hazards.tracked, 0u);
}

TEST(HazardDetect, DeterministicAcrossWorkerCounts) {
  // A grid of racy blocks must report identical counts and the same
  // (lowest-block) example no matter how blocks land on workers.
  const std::size_t grid = 24;
  gs::LaunchStats serial, parallel;
  {
    gs::ScopedSimThreads guard(1);
    serial = run_hazard_kernel(gs::HazardMode::detect, racy_waw_kernel, grid);
  }
  {
    gs::ScopedSimThreads guard(8);
    parallel = run_hazard_kernel(gs::HazardMode::detect, racy_waw_kernel, grid);
  }
  EXPECT_EQ(serial.hazards.waw, grid * (kThreads - 1));
  expect_only(parallel.hazards, serial.hazards.raw, serial.hazards.war,
              serial.hazards.waw, serial.hazards.oob,
              serial.hazards.divergence, "1 vs 8 workers");
  EXPECT_EQ(parallel.hazards.tracked, serial.hazards.tracked);
  ASSERT_TRUE(serial.hazard_example.valid);
  ASSERT_TRUE(parallel.hazard_example.valid);
  EXPECT_EQ(parallel.hazard_example.block, serial.hazard_example.block);
  EXPECT_EQ(serial.hazard_example.block, 0u);
  EXPECT_STREQ(parallel.hazard_example.kind, serial.hazard_example.kind);
}

TEST(HazardFatal, FlaggedLaunchThrowsCleanLaunchDoesNot) {
  EXPECT_THROW((void)run_hazard_kernel(gs::HazardMode::fatal, racy_waw_kernel),
               std::runtime_error);
  try {
    (void)run_hazard_kernel(gs::HazardMode::fatal, missing_barrier_kernel);
    FAIL() << "fatal mode did not throw";
  } catch (const std::runtime_error& e) {
    // The diagnostic names the category and the colliding threads.
    EXPECT_NE(std::string(e.what()).find("raw"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("tid"), std::string::npos);
  }
  EXPECT_NO_THROW((void)run_hazard_kernel(gs::HazardMode::fatal, clean_kernel));
}

TEST(HazardFatal, RegistrySurfacesFindingAsUnsupported) {
  // run_solver converts the fatal throw into supported = false + detail,
  // so sweeps report defective kernels instead of crashing. Exercise via
  // a healthy solver under fatal: it must pass.
  const auto dev = gs::gtx480();
  const auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 8, 256,
                                            td::Layout::contiguous, 5);
  const gs::ScopedHazardMode fatal(gs::HazardMode::fatal);
  const auto outcome = gp::run_solver(gp::SolverKind::hybrid, dev, batch);
  EXPECT_TRUE(outcome.supported) << outcome.detail;
}

TEST(HazardMetrics, CountersAccumulatePerCategory) {
  auto& reg = obs::MetricsRegistry::instance();
  const double waw0 = reg.counter("gpusim.hazard.waw");
  const double raw0 = reg.counter("gpusim.hazard.raw");
  const double tracked0 = reg.counter("gpusim.hazard.tracked");
  (void)run_hazard_kernel(gs::HazardMode::detect, racy_waw_kernel);
  EXPECT_EQ(reg.counter("gpusim.hazard.waw"), waw0 + (kThreads - 1));
  EXPECT_EQ(reg.counter("gpusim.hazard.raw"), raw0);
  EXPECT_GT(reg.counter("gpusim.hazard.tracked"), tracked0);
}

TEST(HazardReadOnly, RegistrySweepCleanAndBitIdenticalUnderDetect) {
  const auto dev = gs::gtx480();
  // Same shape as the engine-determinism sweep: every solver supported,
  // block-homogeneous regime.
  const auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 64, 512,
                                            td::Layout::contiguous, 11);
  auto& reg = obs::MetricsRegistry::instance();

  for (const auto kind : gp::all_solver_kinds()) {
    const std::string what = gp::solver_name(kind);

    gp::SolveOutcome off_outcome;
    td::SystemBatch<double> off_solution;
    {
      const gs::ScopedHazardMode off(gs::HazardMode::off);
      off_outcome = gp::run_solver(kind, dev, batch, {}, &off_solution);
    }
    ASSERT_TRUE(off_outcome.supported) << what << ": " << off_outcome.detail;

    const double finding0 = reg.counter("gpusim.hazard.raw") +
                            reg.counter("gpusim.hazard.war") +
                            reg.counter("gpusim.hazard.waw") +
                            reg.counter("gpusim.hazard.oob") +
                            reg.counter("gpusim.hazard.divergence");
    const double tracked0 = reg.counter("gpusim.hazard.tracked");

    gp::SolveOutcome det_outcome;
    td::SystemBatch<double> det_solution;
    {
      const gs::ScopedHazardMode detect(gs::HazardMode::detect);
      det_outcome = gp::run_solver(kind, dev, batch, {}, &det_solution);
    }
    ASSERT_TRUE(det_outcome.supported) << what << ": " << det_outcome.detail;

    // Clean: not one finding across every launch of the solve.
    const double finding1 = reg.counter("gpusim.hazard.raw") +
                            reg.counter("gpusim.hazard.war") +
                            reg.counter("gpusim.hazard.waw") +
                            reg.counter("gpusim.hazard.oob") +
                            reg.counter("gpusim.hazard.divergence");
    EXPECT_EQ(finding1, finding0) << what << " reported hazards";

    // The detector really watched the kernels that use shared memory.
    switch (kind) {
      case gp::SolverKind::hybrid:
      case gp::SolverKind::hybrid_fused:
      case gp::SolverKind::zhang:
      case gp::SolverKind::cr:
      case gp::SolverKind::davidson:
        EXPECT_GT(reg.counter("gpusim.hazard.tracked"), tracked0)
            << what << " tracked no shared accesses";
        break;
      default:  // pthomas_only / partition keep data in registers+global
        break;
    }

    // Read-only: bit-identical simulated time and solution.
    EXPECT_EQ(det_outcome.time_us, off_outcome.time_us) << what;
    EXPECT_EQ(det_outcome.launches, off_outcome.launches) << what;
    ASSERT_EQ(det_solution.total_rows(), off_solution.total_rows()) << what;
    for (std::size_t i = 0; i < det_solution.total_rows(); ++i) {
      ASSERT_EQ(det_solution.d()[i], off_solution.d()[i])
          << what << " row " << i;
    }
  }
}

TEST(HazardReadOnly, DetectionPreservesStatsOnSampledRuns) {
  // Sampled instrumentation + hazard checking compose: unrecorded blocks
  // must still run the kernel bodies through ThreadCtx for coverage, yet
  // report the same numbers (the RawThread runs are pinned bit-exact).
  const auto dev = gs::gtx480();
  const auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 64, 512,
                                            td::Layout::interleaved, 7);

  gp::SolveOutcome plain, checked;
  td::SystemBatch<double> plain_sol, checked_sol;
  {
    gp::SolverRunOptions opts;
    opts.instrument = gs::InstrumentMode::sampled;
    plain = gp::run_solver(gp::SolverKind::pthomas_only, dev, batch, opts,
                           &plain_sol);
  }
  {
    gp::SolverRunOptions opts;
    opts.instrument = gs::InstrumentMode::sampled;
    const gs::ScopedHazardMode detect(gs::HazardMode::detect);
    checked = gp::run_solver(gp::SolverKind::pthomas_only, dev, batch, opts,
                             &checked_sol);
  }
  ASSERT_TRUE(plain.supported) << plain.detail;
  ASSERT_TRUE(checked.supported) << checked.detail;
  EXPECT_EQ(checked.time_us, plain.time_us);
  ASSERT_EQ(checked_sol.total_rows(), plain_sol.total_rows());
  for (std::size_t i = 0; i < checked_sol.total_rows(); ++i) {
    ASSERT_EQ(checked_sol.d()[i], plain_sol.d()[i]) << "row " << i;
  }
}
