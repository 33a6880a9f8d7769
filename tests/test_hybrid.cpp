// Hybrid solver tests: end-to-end correctness across (M, N) shapes,
// precisions, layouts, window variants, fusion, and the transition logic
// (Table II cost model + Table III heuristic read through the layout).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gpu_solvers/hybrid_solver.hpp"
#include "gpu_solvers/plan_cache.hpp"
#include "gpu_solvers/transition.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/exec_engine.hpp"
#include "tridiag/lu_pivot.hpp"
#include "workloads/generators.hpp"

namespace td = tridsolve::tridiag;
namespace wl = tridsolve::workloads;
namespace gp = tridsolve::gpu;
namespace gs = tridsolve::gpusim;

namespace {

template <typename T>
void check_solved(const td::SystemBatch<T>& solved, const td::SystemBatch<T>& orig,
                  double tol) {
  auto copy = orig.clone();
  std::vector<T> x(orig.system_size());
  for (std::size_t m = 0; m < orig.num_systems(); ++m) {
    auto sys = copy.system(m);
    ASSERT_TRUE(
        td::lu_gtsv<T>(sys, td::StridedView<T>(x.data(), x.size(), 1)).ok());
    for (std::size_t i = 0; i < orig.system_size(); ++i) {
      ASSERT_NEAR(solved.d()[solved.index(m, i)], x[i], tol)
          << "m=" << m << " i=" << i;
    }
  }
}

}  // namespace

// ---- Transition logic -----------------------------------------------------

TEST(Transition, Table3Heuristic) {
  // Exactly the paper's Table III (system size large enough not to clamp).
  EXPECT_EQ(gp::heuristic_k(1, 1 << 20), 8u);
  EXPECT_EQ(gp::heuristic_k(15, 1 << 20), 8u);
  EXPECT_EQ(gp::heuristic_k(16, 1 << 20), 7u);
  EXPECT_EQ(gp::heuristic_k(31, 1 << 20), 7u);
  EXPECT_EQ(gp::heuristic_k(32, 1 << 20), 6u);
  EXPECT_EQ(gp::heuristic_k(511, 1 << 20), 6u);
  EXPECT_EQ(gp::heuristic_k(512, 1 << 20), 5u);
  EXPECT_EQ(gp::heuristic_k(1023, 1 << 20), 5u);
  EXPECT_EQ(gp::heuristic_k(1024, 1 << 20), 0u);
  EXPECT_EQ(gp::heuristic_k(16384, 1 << 20), 0u);
}

TEST(Transition, HeuristicClampsToSystemSize) {
  EXPECT_LE(std::size_t{1} << gp::heuristic_k(1, 64), 32u);
  EXPECT_EQ(gp::heuristic_k(1, 2), 0u);
}

TEST(Transition, CostFormulasMatchTable2) {
  // Thomas, M <= P: span = 2*2^n - 1 regardless of M.
  EXPECT_DOUBLE_EQ(gp::cost_thomas(4, 9, 1024.0), 2.0 * 512 - 1);
  EXPECT_DOUBLE_EQ(gp::cost_thomas(1, 9, 1024.0), 2.0 * 512 - 1);
  // Thomas, M > P: amortized.
  EXPECT_DOUBLE_EQ(gp::cost_thomas(2048, 9, 1024.0), 2.0 * (2.0 * 512 - 1));
  // PCR always divides by P.
  EXPECT_DOUBLE_EQ(gp::cost_pcr(16, 9, 1024.0), 16.0 / 1024.0 * (9.0 * 512 + 1));
  // Hybrid with k = 0 equals Thomas' work term.
  EXPECT_DOUBLE_EQ(gp::cost_hybrid(2048, 9, 1024.0, 0),
                   2048.0 / 1024.0 * 2.0 * (512 - 1));
}

TEST(Transition, ModelPrefersLargeKForFewSystems) {
  const auto dev = gs::gtx480();
  const unsigned k_single = gp::model_best_k(1, 1 << 21, dev);
  const unsigned k_many = gp::model_best_k(16384, 512, dev);
  EXPECT_GE(k_single, 6u);
  EXPECT_EQ(k_many, 0u);
  // Monotone trend: more systems -> smaller or equal k.
  unsigned prev = 32;
  for (std::size_t m : {1u, 16u, 64u, 512u, 2048u, 16384u}) {
    const unsigned k = gp::model_best_k(m, 1 << 14, dev);
    EXPECT_LE(k, prev) << "M=" << m;
    prev = k;
  }
}

TEST(Transition, PairedLayoutIsThePapersPairing) {
  EXPECT_EQ(gp::paired_layout(0), td::Layout::interleaved);
  for (unsigned k = 1; k <= 8; ++k) {
    EXPECT_EQ(gp::paired_layout(k), td::Layout::contiguous) << k;
  }
  EXPECT_EQ(gp::preferred_layout(4096, 512), td::Layout::interleaved);
  EXPECT_EQ(gp::preferred_layout(384, 384), td::Layout::contiguous);
}

// The layout-aware plan over N in {64..1024} x M/N in {1/8..2}, M < 1024.
// A contiguous batch plans exactly the Table III plan: its k is
// heuristic_k(m, n), and variant and geometry are what a request forced
// to that k gets. An interleaved batch solves in no more simulated time
// than the Table III plan on the same batch, and in strictly less where
// the rule moves it to k = 0 (M > 128 and 2M >= N).
TEST(Transition, LayoutAwarePlanNeverLosesToTableIII) {
  const auto dev = gs::gtx480();
  const gs::ScopedInstrumentMode exact(gs::InstrumentMode::exact);
  struct Ratio {
    std::size_t num, den;
  };
  const Ratio ratios[] = {{1, 8}, {1, 4}, {1, 2}, {1, 1}, {2, 1}};
  int fired = 0;
  for (const std::size_t n : {64u, 128u, 256u, 512u, 1024u}) {
    for (const Ratio ratio : ratios) {
      const std::size_t m = n * ratio.num / ratio.den;
      if (m >= 1024) continue;
      const std::string where =
          "m=" + std::to_string(m) + " n=" + std::to_string(n);

      const gp::SolvePlan table3 = gp::plan_hybrid(
          dev, m, n, sizeof(double), td::Layout::contiguous, {});
      gp::HybridOptions forced;
      forced.force_k = static_cast<int>(gp::heuristic_k(m, n));
      const gp::SolvePlan at_k =
          gp::plan_hybrid(dev, m, n, sizeof(double), forced);
      EXPECT_EQ(table3.k, gp::heuristic_k(m, n)) << where;
      EXPECT_EQ(table3.source, gp::PlanSource::heuristic) << where;
      EXPECT_EQ(table3.variant, at_k.variant) << where;
      EXPECT_EQ(table3.c, at_k.c) << where;
      EXPECT_EQ(table3.blocks_per_system, at_k.blocks_per_system) << where;
      EXPECT_EQ(table3.systems_per_block, at_k.systems_per_block) << where;

      const bool rule = m > 128 && 2 * m >= n;
      const gp::SolvePlan plan = gp::plan_hybrid(
          dev, m, n, sizeof(double), td::Layout::interleaved, {});
      EXPECT_EQ(plan.k, rule ? 0u : table3.k) << where;
      const auto batch = wl::make_batch<double>(
          wl::Kind::random_dominant, m, n, td::Layout::interleaved, m + n);
      auto planned = batch.clone();
      auto paper = batch.clone();
      const double planned_us = gp::hybrid_solve(dev, planned).total_us();
      const double table3_us =
          gp::hybrid_solve(dev, paper, {}, table3).total_us();
      if (rule) {
        ++fired;
        EXPECT_LT(planned_us, table3_us) << where;
      } else {
        EXPECT_EQ(planned_us, table3_us) << where;
      }
    }
  }
  EXPECT_EQ(fired, 6);
}

// ---- Hybrid end-to-end ----------------------------------------------------

class HybridShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(HybridShapes, SolvesDominantBatch) {
  const auto [m, n] = GetParam();
  const auto dev = gs::gtx480();
  auto batch = wl::make_batch<double>(wl::Kind::random_dominant, m, n,
                                      gp::preferred_layout(m, n), m * 1000 + n);
  const auto orig = batch.clone();
  const auto report = gp::hybrid_solve(dev, batch);
  EXPECT_EQ(report.k, gp::heuristic_k(m, n));
  check_solved(batch, orig, 1e-8);
}

using MN = std::tuple<std::size_t, std::size_t>;
INSTANTIATE_TEST_SUITE_P(
    Shapes, HybridShapes,
    ::testing::Values(MN{1, 4096}, MN{1, 1000}, MN{4, 2048}, MN{16, 1024},
                      MN{40, 555}, MN{512, 128}, MN{600, 333}, MN{1024, 64},
                      MN{2048, 100}));

TEST(Hybrid, ForcedKValuesAllCorrect) {
  const auto dev = gs::gtx480();
  for (int k : {0, 1, 2, 3, 4, 5, 6, 7, 8}) {
    auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 4, 700,
                                        td::Layout::contiguous, 99 + k);
    const auto orig = batch.clone();
    gp::HybridOptions opts;
    opts.force_k = k;
    const auto report = gp::hybrid_solve(dev, batch, opts);
    EXPECT_EQ(report.k, static_cast<unsigned>(k));
    check_solved(batch, orig, 1e-8);
  }
}

TEST(Hybrid, AllVariantsAgree) {
  const auto dev = gs::gtx480();
  for (auto variant : {gp::WindowVariant::one_block_per_system,
                       gp::WindowVariant::split_system,
                       gp::WindowVariant::multi_system_per_block}) {
    auto batch = wl::make_batch<double>(wl::Kind::adi_sweep, 6, 2000,
                                        td::Layout::contiguous, 5);
    const auto orig = batch.clone();
    gp::HybridOptions opts;
    opts.force_k = 5;
    opts.variant = variant;
    const auto report = gp::hybrid_solve(dev, batch, opts);
    EXPECT_EQ(report.variant, variant);
    check_solved(batch, orig, 1e-8);
  }
}

TEST(Hybrid, SplitSystemReportsRedundantLoads) {
  const auto dev = gs::gtx480();
  auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 1, 65536,
                                      td::Layout::contiguous, 3);
  const auto orig = batch.clone();
  gp::HybridOptions opts;
  opts.force_k = 6;
  opts.variant = gp::WindowVariant::split_system;
  const auto report = gp::hybrid_solve(dev, batch, opts);
  EXPECT_GT(report.redundant_loads, 0u);
  check_solved(batch, orig, 1e-8);
}

TEST(Hybrid, FusedMatchesUnfused) {
  const auto dev = gs::gtx480();
  auto fused = wl::make_batch<double>(wl::Kind::random_dominant, 8, 1024,
                                      td::Layout::contiguous, 11);
  auto plain = fused.clone();
  const auto orig = fused.clone();

  gp::HybridOptions fo;
  fo.force_k = 5;
  fo.fuse = true;
  const auto fr = gp::hybrid_solve(dev, fused, fo);
  gp::HybridOptions po;
  po.force_k = 5;
  po.variant = gp::WindowVariant::one_block_per_system;
  const auto pr = gp::hybrid_solve(dev, plain, po);

  check_solved(fused, orig, 1e-8);
  // Fusion skips the separate forward kernel: fewer launches and less
  // global traffic.
  EXPECT_LT(fr.timeline.segments().size(), pr.timeline.segments().size());
  double fused_bytes = 0.0, plain_bytes = 0.0;
  for (const auto& s : fr.timeline.segments()) {
    fused_bytes += static_cast<double>(s.stats.costs.bytes_requested);
  }
  for (const auto& s : pr.timeline.segments()) {
    plain_bytes += static_cast<double>(s.stats.costs.bytes_requested);
  }
  EXPECT_LT(fused_bytes, plain_bytes * 0.75);
}

TEST(Hybrid, FloatPrecision) {
  const auto dev = gs::gtx480();
  auto batch = wl::make_batch<float>(wl::Kind::toeplitz, 32, 512,
                                     td::Layout::contiguous, 17);
  const auto orig = batch.clone();
  const auto report = gp::hybrid_solve(dev, batch);
  EXPECT_GT(report.k, 0u);
  check_solved(batch, orig, 2e-3);
}

TEST(Hybrid, KZeroUsesNoPcr) {
  const auto dev = gs::gtx480();
  auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 2048, 64,
                                      td::Layout::interleaved, 23);
  const auto orig = batch.clone();
  const auto report = gp::hybrid_solve(dev, batch);
  EXPECT_EQ(report.k, 0u);
  EXPECT_DOUBLE_EQ(report.pcr_us(), 0.0);
  EXPECT_EQ(report.reduced_systems, 2048u);
  check_solved(batch, orig, 1e-9);
}

TEST(Hybrid, ReducedSystemCountIsMTimes2K) {
  const auto dev = gs::gtx480();
  auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 4, 512,
                                      td::Layout::contiguous, 29);
  gp::HybridOptions opts;
  opts.force_k = 4;
  const auto report = gp::hybrid_solve(dev, batch, opts);
  EXPECT_EQ(report.reduced_systems, 4u * 16u);
}

TEST(Hybrid, PcrShareOfRuntime) {
  // §IV reports tiled PCR's share of the runtime: ~55% at M=1 and a
  // nonzero share whenever k >= 1; it is exactly zero in the k = 0 regime.
  // (The simulator reproduces the M=1 split well — 44% vs the paper's
  // ~55% at N=2M — but assigns PCR a larger share at mid-M than the
  // paper's quoted 6.25%/36.2%; see EXPERIMENTS.md for the analysis.)
  const auto dev = gs::gtx480();

  auto single = wl::make_batch<double>(wl::Kind::random_dominant, 1, 65536,
                                       td::Layout::contiguous, 1);
  const auto r1 = gp::hybrid_solve(dev, single);
  EXPECT_EQ(r1.k, 8u);
  EXPECT_GT(r1.pcr_fraction(), 0.2);
  EXPECT_LT(r1.pcr_fraction(), 0.8);

  auto mid = wl::make_batch<double>(wl::Kind::random_dominant, 16, 16384,
                                    td::Layout::contiguous, 2);
  const auto r2 = gp::hybrid_solve(dev, mid);
  EXPECT_GT(r2.pcr_fraction(), 0.0);
  EXPECT_GT(r2.thomas_us(), 0.0);

  auto many = wl::make_batch<double>(wl::Kind::random_dominant, 4096, 64,
                                     td::Layout::interleaved, 3);
  const auto r3 = gp::hybrid_solve(dev, many);
  EXPECT_EQ(r3.k, 0u);
  EXPECT_DOUBLE_EQ(r3.pcr_fraction(), 0.0);
}

TEST(Hybrid, WorkloadKindsAllSolve) {
  const auto dev = gs::gtx480();
  for (auto kind : {wl::Kind::toeplitz, wl::Kind::poisson1d, wl::Kind::adi_sweep,
                    wl::Kind::spline}) {
    auto batch =
        wl::make_batch<double>(kind, 48, 800, td::Layout::contiguous, 31);
    const auto orig = batch.clone();
    gp::hybrid_solve(dev, batch);
    check_solved(batch, orig, 1e-8);
  }
}
