// Property-based suites over randomized shapes and workload kinds,
// double and single precision:
//  * every solver family agrees with the pivoting-LU referee,
//  * PCR reduction preserves diagonal dominance (the invariant that
//    makes the pivot-free pipeline safe on dominant systems),
//  * solutions are layout-invariant,
//  * strict reduction decoupling: after k steps, perturbing rows of one
//    residue class never changes another class's solve.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gpu_solvers/hybrid_solver.hpp"
#include "gpusim/device_spec.hpp"
#include "tridiag/lu_pivot.hpp"
#include "tridiag/pcr.hpp"
#include "tridiag/partition.hpp"
#include "tridiag/thomas.hpp"
#include "util/random.hpp"
#include "workloads/generators.hpp"

namespace td = tridsolve::tridiag;
namespace wl = tridsolve::workloads;
namespace gp = tridsolve::gpu;
using tridsolve::util::Xoshiro256;

namespace {

struct Shape {
  std::size_t m, n;
  wl::Kind kind;
  std::uint64_t seed;
};

std::vector<Shape> random_shapes(std::size_t count, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const wl::Kind kinds[] = {wl::Kind::random_dominant, wl::Kind::toeplitz,
                            wl::Kind::poisson1d, wl::Kind::adi_sweep,
                            wl::Kind::spline};
  std::vector<Shape> shapes;
  for (std::size_t i = 0; i < count; ++i) {
    shapes.push_back(Shape{
        static_cast<std::size_t>(tridsolve::util::uniform_int(rng, 1, 64)),
        static_cast<std::size_t>(tridsolve::util::uniform_int(rng, 3, 700)),
        kinds[rng() % std::size(kinds)], rng()});
  }
  return shapes;
}

}  // namespace

// ---- Hybrid vs referee over random shapes ---------------------------------

class HybridProperty : public ::testing::TestWithParam<int> {};

TEST_P(HybridProperty, AgreesWithRefereeOnRandomShape) {
  const auto shapes = random_shapes(40, 777);
  const Shape s = shapes[static_cast<std::size_t>(GetParam())];
  const auto dev = tridsolve::gpusim::gtx480();

  auto batch =
      wl::make_batch<double>(s.kind, s.m, s.n, td::Layout::contiguous, s.seed);
  const auto orig = batch.clone();
  gp::hybrid_solve(dev, batch);

  auto check = orig.clone();
  std::vector<double> x(s.n);
  for (std::size_t m = 0; m < s.m; ++m) {
    auto sys = check.system(m);
    ASSERT_TRUE(
        td::lu_gtsv<double>(sys, td::StridedView<double>(x.data(), s.n, 1)).ok());
    for (std::size_t i = 0; i < s.n; ++i) {
      const double scale = std::max(1.0, std::abs(x[i]));
      ASSERT_NEAR(batch.d()[batch.index(m, i)] / scale, x[i] / scale, 1e-7)
          << "shape M=" << s.m << " N=" << s.n << " kind="
          << wl::kind_name(s.kind) << " m=" << m << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, HybridProperty, ::testing::Range(0, 40));

// ---- Host solver cross-agreement over random shapes ------------------------

class HostSolverProperty : public ::testing::TestWithParam<int> {};

TEST_P(HostSolverProperty, AllHostSolversAgree) {
  const auto shapes = random_shapes(25, 4242);
  const Shape s = shapes[static_cast<std::size_t>(GetParam())];
  Xoshiro256 rng(s.seed);
  td::TridiagSystem<double> sys(s.n);
  wl::fill_matrix(s.kind, sys.ref(), rng);
  wl::fill_rhs_random(sys.ref(), rng);

  std::vector<double> x_lu(s.n), x_th(s.n), x_pcr(s.n), x_part(s.n);
  ASSERT_TRUE(
      td::lu_gtsv(sys.ref(), td::StridedView<double>(x_lu.data(), s.n, 1)).ok());
  {
    auto c = sys.clone();
    ASSERT_TRUE(
        td::thomas_solve(c.ref(), td::StridedView<double>(x_th.data(), s.n, 1)).ok());
  }
  {
    auto c = sys.clone();
    ASSERT_TRUE(
        td::pcr_solve(c.ref(), td::StridedView<double>(x_pcr.data(), s.n, 1)).ok());
  }
  if (s.n >= 2) {
    ASSERT_TRUE(td::partition_solve(
                    sys.ref(), td::StridedView<double>(x_part.data(), s.n, 1), 8)
                    .ok());
  } else {
    x_part = x_lu;
  }
  for (std::size_t i = 0; i < s.n; ++i) {
    const double scale = std::max(1.0, std::abs(x_lu[i]));
    EXPECT_NEAR(x_th[i] / scale, x_lu[i] / scale, 1e-8) << i;
    EXPECT_NEAR(x_pcr[i] / scale, x_lu[i] / scale, 1e-7) << i;
    EXPECT_NEAR(x_part[i] / scale, x_lu[i] / scale, 1e-7) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, HostSolverProperty,
                         ::testing::Range(0, 25));

// ---- Structural invariants --------------------------------------------------

TEST(PcrInvariants, PreservesDiagonalDominance) {
  // If |b| >= |a| + |c| + margin holds, it keeps holding at every PCR
  // level (with a possibly smaller margin) — the reason Thomas needs no
  // pivoting after the reduction.
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    td::TridiagSystem<double> sys(257);
    wl::fill_matrix(wl::Kind::random_dominant, sys.ref(), rng);
    wl::fill_rhs_random(sys.ref(), rng);
    for (unsigned k = 1; k <= 6; ++k) {
      auto c = sys.clone();
      td::pcr_reduce(c.ref(), k);
      for (std::size_t i = 0; i < c.size(); ++i) {
        EXPECT_GE(std::abs(c.b()[i]),
                  std::abs(c.a()[i]) + std::abs(c.c()[i]))
            << "k=" << k << " i=" << i;
      }
    }
  }
}

TEST(PcrInvariants, ReducedClassesAreIndependent) {
  // After k steps, rows i ≡ r (mod 2^k) form closed systems: changing the
  // rhs of one class must not change another class's solution.
  const unsigned k = 3;
  const std::size_t n = 128;
  Xoshiro256 rng(21);
  td::TridiagSystem<double> base(n);
  wl::fill_matrix(wl::Kind::random_dominant, base.ref(), rng);
  wl::fill_rhs_random(base.ref(), rng);

  auto reduced = base.clone();
  td::pcr_reduce(reduced.ref(), k);

  auto solve_class = [&](const td::TridiagSystem<double>& sys, std::size_t r) {
    const std::size_t stride = std::size_t{1} << k;
    const std::size_t count = (n - r + stride - 1) / stride;
    std::vector<double> x(count);
    auto copy = sys.clone();
    auto ref = copy.ref();
    td::SystemRef<double> cls{
        td::StridedView<double>(ref.a.ptr(r), count, static_cast<std::ptrdiff_t>(stride)),
        td::StridedView<double>(ref.b.ptr(r), count, static_cast<std::ptrdiff_t>(stride)),
        td::StridedView<double>(ref.c.ptr(r), count, static_cast<std::ptrdiff_t>(stride)),
        td::StridedView<double>(ref.d.ptr(r), count, static_cast<std::ptrdiff_t>(stride))};
    EXPECT_TRUE(
        td::thomas_solve(cls, td::StridedView<double>(x.data(), count, 1)).ok());
    return x;
  };
  const auto x2_before = solve_class(reduced, 2);

  // Perturb reduced class r=5's rhs only.
  auto perturbed = reduced.clone();
  for (std::size_t i = 5; i < n; i += (std::size_t{1} << k)) {
    perturbed.d()[i] += 10.0;
  }
  const auto x2_after = solve_class(perturbed, 2);
  for (std::size_t i = 0; i < x2_before.size(); ++i) {
    EXPECT_EQ(x2_before[i], x2_after[i]) << i;
  }
}

TEST(LayoutInvariance, HybridSolutionIndependentOfLayout) {
  const auto dev = tridsolve::gpusim::gtx480();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto cont = wl::make_batch<double>(wl::Kind::random_dominant, 48, 300,
                                       td::Layout::contiguous, seed);
    auto inter = td::convert_layout(cont, td::Layout::interleaved);
    gp::HybridOptions opts;
    opts.force_k = 4;
    gp::hybrid_solve(dev, cont, opts);
    gp::hybrid_solve(dev, inter, opts);
    for (std::size_t m = 0; m < 48; ++m) {
      for (std::size_t i = 0; i < 300; ++i) {
        EXPECT_EQ(cont.d()[cont.index(m, i)], inter.d()[inter.index(m, i)])
            << "seed=" << seed << " m=" << m << " i=" << i;
      }
    }
  }
}

TEST(FloatDoubleConsistency, HybridFloatTracksDouble) {
  const auto dev = tridsolve::gpusim::gtx480();
  auto d64 = wl::make_batch<double>(wl::Kind::toeplitz, 16, 256,
                                    td::Layout::contiguous, 5);
  tridsolve::tridiag::SystemBatch<float> d32(16, 256, td::Layout::contiguous);
  for (std::size_t i = 0; i < d64.total_rows(); ++i) {
    d32.a()[i] = static_cast<float>(d64.a()[i]);
    d32.b()[i] = static_cast<float>(d64.b()[i]);
    d32.c()[i] = static_cast<float>(d64.c()[i]);
    d32.d()[i] = static_cast<float>(d64.d()[i]);
  }
  gp::hybrid_solve(dev, d64);
  gp::hybrid_solve(dev, d32);
  for (std::size_t i = 0; i < d64.total_rows(); ++i) {
    EXPECT_NEAR(static_cast<double>(d32.d()[i]), d64.d()[i], 5e-4) << i;
  }
}
