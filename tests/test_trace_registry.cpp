// Tests for the trace/report module and the solver registry.

#include <gtest/gtest.h>

#include <algorithm>

#include "gpu_solvers/registry.hpp"
#include "gpusim/trace.hpp"
#include "workloads/generators.hpp"

namespace gs = tridsolve::gpusim;
namespace gp = tridsolve::gpu;
namespace td = tridsolve::tridiag;
namespace wl = tridsolve::workloads;

namespace {

gs::Timeline sample_timeline(const gs::DeviceSpec& dev) {
  gs::Timeline tl;
  std::vector<double> data(4096, 1.0);
  auto stats = gs::launch(dev, {4, 64}, [&](gs::BlockContext& ctx) {
    ctx.phase([&](gs::ThreadCtx& t) {
      (void)t.load(&data[static_cast<std::size_t>(t.tid())]);
      t.flops<double>(4);
    });
  });
  tl.add("loader", stats);
  return tl;
}

}  // namespace

TEST(Trace, TimelineTableHasAllSegmentsPlusTotal) {
  const auto dev = gs::gtx480();
  const auto tl = sample_timeline(dev);
  const auto text = gs::timeline_table(dev, tl).to_ascii();
  // Title, header and rule, then one line per row: loader + total.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);
  EXPECT_NE(text.find("loader"), std::string::npos);
  EXPECT_NE(text.find("total"), std::string::npos);
}

TEST(Trace, TotalsAggregate) {
  const auto dev = gs::gtx480();
  const auto tl = sample_timeline(dev);
  const auto totals = gs::summarize_timeline(dev, tl);
  EXPECT_EQ(totals.launches, 1u);
  EXPECT_DOUBLE_EQ(totals.time_us, tl.total_us());
  EXPECT_GT(totals.transactions, 0u);
  EXPECT_GT(totals.coalescing_efficiency(), 0.3);
  EXPECT_LE(totals.coalescing_efficiency(), 1.0);
}

TEST(Registry, NamesAreDistinct) {
  const auto kinds = gp::all_solver_kinds();
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    for (std::size_t j = i + 1; j < kinds.size(); ++j) {
      EXPECT_STRNE(gp::solver_name(kinds[i]), gp::solver_name(kinds[j]));
    }
  }
}

TEST(Registry, AllSolversRunOnSmallSystems) {
  const auto dev = gs::gtx480();
  const auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 32, 256,
                                            td::Layout::contiguous, 3);
  for (const auto kind : gp::all_solver_kinds()) {
    const auto outcome = gp::run_solver(kind, dev, batch);
    EXPECT_TRUE(outcome.supported) << gp::solver_name(kind) << ": "
                                   << outcome.detail;
    EXPECT_GT(outcome.time_us, 0.0) << gp::solver_name(kind);
    EXPECT_GE(outcome.launches, 1u) << gp::solver_name(kind);
  }
}

TEST(Registry, InSharedSolversRejectLargeSystems) {
  const auto dev = gs::gtx480();
  const auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 2, 8192,
                                            td::Layout::contiguous, 4);
  EXPECT_FALSE(gp::run_solver(gp::SolverKind::zhang, dev, batch).supported);
  EXPECT_FALSE(gp::run_solver(gp::SolverKind::cr, dev, batch).supported);
  EXPECT_TRUE(gp::run_solver(gp::SolverKind::hybrid, dev, batch).supported);
  EXPECT_TRUE(gp::run_solver(gp::SolverKind::davidson, dev, batch).supported);
}

TEST(Registry, DoesNotModifyInput) {
  const auto dev = gs::gtx480();
  const auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 4, 128,
                                            td::Layout::contiguous, 5);
  const auto before = batch.clone();
  (void)gp::run_solver(gp::SolverKind::hybrid, dev, batch);
  for (std::size_t i = 0; i < batch.total_rows(); ++i) {
    EXPECT_EQ(batch.d()[i], before.d()[i]);
    EXPECT_EQ(batch.b()[i], before.b()[i]);
  }
}

TEST(Registry, DavidsonAdaptsTileToDevice) {
  // GTX280 has 16 KB shared: the Davidson baseline must shrink its tile
  // instead of failing to launch.
  const auto dev = gs::gtx280();
  const auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 2, 4096,
                                            td::Layout::contiguous, 6);
  const auto outcome = gp::run_solver(gp::SolverKind::davidson, dev, batch);
  EXPECT_TRUE(outcome.supported) << outcome.detail;
}
