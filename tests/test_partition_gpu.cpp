// GPU register-packed partition solver tests: agreement with the host
// partition method and the pivoting-LU referee, timeline structure, and
// edge cases.

#include <gtest/gtest.h>

#include <vector>

#include "gpu_solvers/partition_kernel.hpp"
#include "gpusim/device_spec.hpp"
#include "tridiag/lu_pivot.hpp"
#include "tridiag/partition.hpp"
#include "workloads/generators.hpp"

namespace td = tridsolve::tridiag;
namespace wl = tridsolve::workloads;
namespace gp = tridsolve::gpu;
namespace gs = tridsolve::gpusim;

class PartitionGpuShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(PartitionGpuShapes, MatchesHostPartitionAndReferee) {
  const auto [m_count, n] = GetParam();
  const std::size_t p = gp::kPartitionPacket;
  const auto dev = gs::gtx480();
  auto batch = wl::make_batch<double>(wl::Kind::random_dominant, m_count, n,
                                      td::Layout::contiguous, m_count * n + p);
  const auto orig = batch.clone();

  gp::partition_solve_gpu<double>(dev, batch);

  std::vector<double> x_host(n), x_ref(n);
  for (std::size_t m = 0; m < m_count; ++m) {
    auto check = orig.clone();
    auto sys = check.system(m);
    ASSERT_TRUE(td::partition_solve<double>(
                    sys, td::StridedView<double>(x_host.data(), n, 1), p)
                    .ok());
    ASSERT_TRUE(
        td::lu_gtsv<double>(sys, td::StridedView<double>(x_ref.data(), n, 1)).ok());
    for (std::size_t i = 0; i < n; ++i) {
      // Same arithmetic as the host partition method: exact agreement.
      ASSERT_EQ(batch.d()[batch.index(m, i)], x_host[i])
          << "m=" << m << " i=" << i;
      ASSERT_NEAR(batch.d()[batch.index(m, i)], x_ref[i], 1e-9);
    }
  }
}

using MN = std::tuple<std::size_t, std::size_t>;
INSTANTIATE_TEST_SUITE_P(Shapes, PartitionGpuShapes,
                         ::testing::Values(MN{1, 64}, MN{4, 100}, MN{16, 257},
                                           MN{8, 1000}, MN{2, 33}, MN{3, 10},
                                           MN{3, 5}));

TEST(PartitionGpu, ThreeLaunches) {
  const auto dev = gs::gtx480();
  auto batch = wl::make_batch<double>(wl::Kind::toeplitz, 8, 256,
                                      td::Layout::contiguous, 7);
  const auto rep = gp::partition_solve_gpu<double>(dev, batch);
  ASSERT_EQ(rep.timeline.segments().size(), 3u);
  EXPECT_EQ(rep.timeline.segments()[0].label, "packet-sweeps");
  EXPECT_EQ(rep.timeline.segments()[1].label, "reduced-solve");
  EXPECT_EQ(rep.timeline.segments()[2].label, "back-substitution");
  EXPECT_GT(rep.total_us(), 0.0);
}

TEST(PartitionGpu, NoSharedMemoryUse) {
  // The register-packed solver never touches shared memory: its occupancy
  // is never shared-limited (contrast with the in-shared baselines).
  const auto dev = gs::gtx480();
  auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 4, 512,
                                      td::Layout::contiguous, 9);
  const auto rep = gp::partition_solve_gpu<double>(dev, batch);
  for (const auto& seg : rep.timeline.segments()) {
    EXPECT_EQ(seg.stats.costs.shared_peak_bytes, 0u) << seg.label;
  }
}

TEST(PartitionGpu, FloatPath) {
  const auto dev = gs::gtx480();
  auto batch = wl::make_batch<float>(wl::Kind::adi_sweep, 4, 200,
                                     td::Layout::contiguous, 10);
  const auto orig = batch.clone();
  gp::partition_solve_gpu<float>(dev, batch);
  std::vector<float> x(200);
  for (std::size_t m = 0; m < 4; ++m) {
    auto check = orig.clone();
    auto sys = check.system(m);
    ASSERT_TRUE(
        td::lu_gtsv<float>(sys, td::StridedView<float>(x.data(), 200, 1)).ok());
    for (std::size_t i = 0; i < 200; ++i) {
      EXPECT_NEAR(batch.d()[batch.index(m, i)], x[i], 2e-3);
    }
  }
}
