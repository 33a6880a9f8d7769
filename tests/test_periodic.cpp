// Periodic (cyclic) tridiagonal solver tests: Sherman-Morrison pieces,
// host solve, and the batched GPU composition — validated by the cyclic
// residual (with wraparound corners).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gpu_solvers/periodic_gpu.hpp"
#include "gpusim/device_spec.hpp"
#include "tridiag/periodic.hpp"
#include "tridiag/thomas.hpp"
#include "util/random.hpp"
#include "workloads/generators.hpp"

namespace td = tridsolve::tridiag;
namespace wl = tridsolve::workloads;
namespace gp = tridsolve::gpu;
using tridsolve::util::Xoshiro256;

namespace {

struct PeriodicProblem {
  td::TridiagSystem<double> sys;
  double alpha, beta;
};

PeriodicProblem make_problem(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  PeriodicProblem p{td::TridiagSystem<double>(n), 0.0, 0.0};
  wl::fill_matrix(wl::Kind::random_dominant, p.sys.ref(), rng);
  wl::fill_rhs_random(p.sys.ref(), rng);
  // Corners small enough to keep diagonal dominance.
  p.alpha = tridsolve::util::uniform(rng, -0.2, 0.2);
  p.beta = tridsolve::util::uniform(rng, -0.2, 0.2);
  return p;
}

/// max_i |(A_p x - d)_i| for the cyclic matrix.
double cyclic_residual(const PeriodicProblem& p, std::span<const double> x) {
  const std::size_t n = p.sys.size();
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double r = p.sys.b()[i] * x[i] - p.sys.d()[i];
    r += i > 0 ? p.sys.a()[i] * x[i - 1] : p.alpha * x[n - 1];
    r += i + 1 < n ? p.sys.c()[i] * x[i + 1] : p.beta * x[0];
    worst = std::max(worst, std::abs(r));
  }
  return worst;
}

}  // namespace

TEST(Periodic, CorrectMatrixAndU) {
  auto p = make_problem(8, 1);
  auto work = p.sys.clone();
  const double b0 = work.b()[0];
  const double bn = work.b()[7];
  const double gamma = td::periodic_correct_matrix(work.ref(), p.alpha, p.beta);
  EXPECT_DOUBLE_EQ(gamma, -b0);
  EXPECT_DOUBLE_EQ(work.b()[0], b0 - gamma);
  EXPECT_DOUBLE_EQ(work.b()[7], bn - p.alpha * p.beta / gamma);

  std::vector<double> u(8);
  td::periodic_fill_u(std::span<double>(u), gamma, p.beta);
  EXPECT_DOUBLE_EQ(u[0], gamma);
  EXPECT_DOUBLE_EQ(u[7], p.beta);
  for (std::size_t i = 1; i < 7; ++i) EXPECT_DOUBLE_EQ(u[i], 0.0);
}

class PeriodicSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PeriodicSizes, HostSolveHasTinyCyclicResidual) {
  const std::size_t n = GetParam();
  auto p = make_problem(n, n);
  auto work = p.sys.clone();
  std::vector<double> x(n);
  const auto st = td::periodic_solve(work.ref(), p.alpha, p.beta,
                                     td::StridedView<double>(x.data(), n, 1));
  ASSERT_TRUE(st.ok());
  EXPECT_LT(cyclic_residual(p, x), 1e-11) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, PeriodicSizes,
                         ::testing::Values<std::size_t>(3, 4, 5, 8, 17, 100,
                                                        257, 1024));

TEST(Periodic, ZeroCornersMatchPlainSolve) {
  auto p = make_problem(64, 5);
  p.alpha = p.beta = 0.0;
  auto work = p.sys.clone();
  std::vector<double> x(64);
  ASSERT_TRUE(td::periodic_solve(work.ref(), 0.0, 0.0,
                                 td::StridedView<double>(x.data(), 64, 1))
                  .ok());
  // Plain Thomas on the original.
  auto plain = p.sys.clone();
  std::vector<double> y(64);
  ASSERT_TRUE(td::thomas_solve(plain.ref(), td::StridedView<double>(y.data(), 64, 1))
                  .ok());
  for (std::size_t i = 0; i < 64; ++i) EXPECT_NEAR(x[i], y[i], 1e-11);
}

TEST(Periodic, RejectsTinySystems) {
  auto p = make_problem(2, 7);
  std::vector<double> x(2);
  const auto st = td::periodic_solve(p.sys.ref(), 0.1, 0.1,
                                     td::StridedView<double>(x.data(), 2, 1));
  EXPECT_EQ(st.code, td::SolveCode::bad_size);
}

TEST(PeriodicGpu, BatchedSolveMatchesHost) {
  const auto dev = tridsolve::gpusim::gtx480();
  const std::size_t m_count = 24, n = 400;

  std::vector<PeriodicProblem> problems;
  tridsolve::tridiag::SystemBatch<double> batch(m_count, n,
                                                td::Layout::contiguous);
  std::vector<gp::PeriodicCorners<double>> corners;
  for (std::size_t m = 0; m < m_count; ++m) {
    problems.push_back(make_problem(n, 100 + m));
    td::copy_system(problems.back().sys.ref(), batch.system(m));
    corners.push_back({problems.back().alpha, problems.back().beta});
  }

  const auto report = gp::periodic_solve_gpu<double>(dev, batch, corners);
  ASSERT_TRUE(report.status.ok());
  EXPECT_EQ(report.hybrid.reduced_systems % (2 * m_count), 0u);

  for (std::size_t m = 0; m < m_count; ++m) {
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = batch.d()[batch.index(m, i)];
    EXPECT_LT(cyclic_residual(problems[m], x), 1e-10) << "m=" << m;
  }
}

TEST(PeriodicGpu, ValidatesInputs) {
  const auto dev = tridsolve::gpusim::gtx480();
  tridsolve::tridiag::SystemBatch<double> batch(2, 100, td::Layout::contiguous);
  std::vector<gp::PeriodicCorners<double>> wrong(3, {0.1, 0.1});
  EXPECT_THROW(gp::periodic_solve_gpu<double>(dev, batch, wrong),
               std::invalid_argument);
  tridsolve::tridiag::SystemBatch<double> tiny(2, 2, td::Layout::contiguous);
  std::vector<gp::PeriodicCorners<double>> two(2, {0.1, 0.1});
  EXPECT_THROW(gp::periodic_solve_gpu<double>(dev, tiny, two),
               std::invalid_argument);
}

TEST(PeriodicGpu, FloatPrecision) {
  const auto dev = tridsolve::gpusim::gtx480();
  const std::size_t n = 128;
  Xoshiro256 rng(9);
  tridsolve::tridiag::SystemBatch<float> batch(4, n, td::Layout::contiguous);
  std::vector<gp::PeriodicCorners<float>> corners;
  for (std::size_t m = 0; m < 4; ++m) {
    auto sys = batch.system(m);
    wl::fill_matrix(wl::Kind::toeplitz, sys, rng);
    wl::fill_rhs_random(sys, rng);
    corners.push_back({0.2f, -0.1f});
  }
  auto orig = batch.clone();
  const auto report = gp::periodic_solve_gpu<float>(dev, batch, corners);
  ASSERT_TRUE(report.status.ok());
  for (std::size_t m = 0; m < 4; ++m) {
    // Cyclic residual in float tolerance.
    auto o = orig.system(m);
    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double r = static_cast<double>(o.b[i]) * batch.d()[batch.index(m, i)] -
                 static_cast<double>(o.d[i]);
      r += i > 0 ? static_cast<double>(o.a[i]) * batch.d()[batch.index(m, i - 1)]
                 : 0.2 * batch.d()[batch.index(m, n - 1)];
      r += i + 1 < n
               ? static_cast<double>(o.c[i]) * batch.d()[batch.index(m, i + 1)]
               : -0.1 * batch.d()[batch.index(m, 0)];
      worst = std::max(worst, std::abs(r));
    }
    EXPECT_LT(worst, 1e-3) << "m=" << m;
  }
}
