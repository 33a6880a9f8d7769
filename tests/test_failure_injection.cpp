// Failure-injection and edge-case suite: bad launch configurations,
// shared-memory exhaustion, singular/NaN inputs, and degenerate shapes —
// every public entry point must fail loudly (status or exception), never
// hang or corrupt unrelated state.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "gpu_solvers/hybrid_solver.hpp"
#include "gpu_solvers/pthomas_kernel.hpp"
#include "gpu_solvers/registry.hpp"
#include "gpu_solvers/tiled_pcr_kernel.hpp"
#include "gpu_solvers/zhang_pcr_thomas.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/launch.hpp"
#include "obs/metrics.hpp"
#include "tridiag/batch_status.hpp"
#include "tridiag/lu_pivot.hpp"
#include "tridiag/pcr.hpp"
#include "tridiag/residual.hpp"
#include "tridiag/thomas.hpp"
#include "tridiag/tiled_pcr.hpp"
#include "workloads/generators.hpp"

namespace td = tridsolve::tridiag;
namespace wl = tridsolve::workloads;
namespace gp = tridsolve::gpu;
namespace gs = tridsolve::gpusim;
using tridsolve::util::Xoshiro256;

TEST(FailureInjection, NanInputsPropagateNotHang) {
  Xoshiro256 rng(1);
  td::TridiagSystem<double> sys(64);
  wl::fill_matrix(wl::Kind::random_dominant, sys.ref(), rng);
  wl::fill_rhs_random(sys.ref(), rng);
  sys.d()[17] = std::numeric_limits<double>::quiet_NaN();

  std::vector<double> x(64);
  const auto st =
      td::thomas_solve(sys.ref(), td::StridedView<double>(x.data(), 64, 1));
  ASSERT_TRUE(st.ok());  // Thomas has no NaN check; values must carry it
  bool any_nan = false;
  for (double v : x) any_nan |= std::isnan(v);
  EXPECT_TRUE(any_nan);
}

TEST(FailureInjection, SingularSystemsReportedByEveryDirectSolver) {
  td::TridiagSystem<double> sys(4);  // all-zero matrix
  std::vector<double> x(4);
  EXPECT_EQ(td::thomas_solve(sys.ref(), td::StridedView<double>(x.data(), 4, 1)).code,
            td::SolveCode::zero_pivot);
  EXPECT_EQ(td::lu_gtsv(sys.ref(), td::StridedView<double>(x.data(), 4, 1)).code,
            td::SolveCode::singular);
  auto copy = sys.clone();
  EXPECT_EQ(td::pcr_solve(copy.ref(), td::StridedView<double>(x.data(), 4, 1)).code,
            td::SolveCode::zero_pivot);
}

TEST(FailureInjection, MismatchedSizesAreBadSize) {
  Xoshiro256 rng(2);
  td::TridiagSystem<double> sys(8);
  wl::fill_matrix(wl::Kind::random_dominant, sys.ref(), rng);
  std::vector<double> x(7);  // wrong
  EXPECT_EQ(td::thomas_solve(sys.ref(), td::StridedView<double>(x.data(), 7, 1)).code,
            td::SolveCode::bad_size);
  EXPECT_EQ(td::lu_gtsv(sys.ref(), td::StridedView<double>(x.data(), 7, 1)).code,
            td::SolveCode::bad_size);
}

TEST(FailureInjection, EmptyAndUnitBatches) {
  const auto dev = gs::gtx480();
  td::SystemBatch<double> empty(0, 0, td::Layout::contiguous);
  const auto rep = gp::hybrid_solve(dev, empty);
  EXPECT_DOUBLE_EQ(rep.total_us(), 0.0);

  auto unit = wl::make_batch<double>(wl::Kind::random_dominant, 1, 1,
                                     td::Layout::contiguous, 3);
  const double b = unit.b()[0], d = unit.d()[0];
  gp::hybrid_solve(dev, unit);
  EXPECT_NEAR(unit.d()[0], d / b, 1e-14);
}

TEST(FailureInjection, HybridWithOversizedForcedK) {
  // force_k = 8 on a 100-row system: 2^k = 256 exceeds the system size.
  // Planning rejects this up front with a structured bad-argument error
  // (it used to reach the kernel and solve with mostly-empty reduced
  // classes); a forced k that fits must still solve correctly.
  const auto dev = gs::gtx480();
  auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 2, 100,
                                      td::Layout::contiguous, 4);
  const auto orig = batch.clone();
  gp::HybridOptions opts;
  opts.force_k = 8;
  EXPECT_THROW(gp::hybrid_solve(dev, batch, opts), std::invalid_argument);

  opts.force_k = 6;  // 64 <= 100: legal, and the solve must be correct
  gp::hybrid_solve(dev, batch, opts);
  auto check = orig.clone();
  std::vector<double> x(100);
  for (std::size_t m = 0; m < 2; ++m) {
    auto sys = check.system(m);
    ASSERT_TRUE(
        td::lu_gtsv<double>(sys, td::StridedView<double>(x.data(), 100, 1)).ok());
    for (std::size_t i = 0; i < 100; ++i) {
      EXPECT_NEAR(batch.d()[batch.index(m, i)], x[i], 1e-8);
    }
  }
}

TEST(FailureInjection, HybridRejectsImpossibleK) {
  const auto dev = gs::gtx480();
  auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 2, 64,
                                      td::Layout::contiguous, 5);
  gp::HybridOptions opts;
  opts.force_k = 11;  // 2048 threads > 1024/block: rejected at plan time
  EXPECT_THROW(gp::hybrid_solve(dev, batch, opts), std::invalid_argument);
  opts.force_k = 9;  // 512 > N = 64: also a plan-time bad argument
  EXPECT_THROW(gp::hybrid_solve(dev, batch, opts), std::invalid_argument);
  // Shared-memory exhaustion is still the launch layer's length_error:
  // k = 9 fits a 1024-row system thread- and shape-wise, but its window
  // (~65 KB of rows) exceeds the GTX480's 48 KB shared memory.
  auto big = wl::make_batch<double>(wl::Kind::random_dominant, 2, 1024,
                                    td::Layout::contiguous, 5);
  EXPECT_THROW(gp::hybrid_solve(dev, big, opts), std::length_error);
}

TEST(FailureInjection, TiledPcrSharedOverflowThrows) {
  const auto dev = gs::gtx480();
  const std::size_t n = 8192;
  auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 1, n,
                                      td::Layout::contiguous, 6);
  std::vector<gp::TiledPcrWork<double>> work{
      {batch.system(0), batch.system(0), 0, n}};
  gp::TiledPcrConfig cfg;
  cfg.k = 8;
  cfg.c = 8;  // window of ~2 * 8 * 256 rows * 32 B >> 48 KB
  EXPECT_THROW(gp::tiled_pcr_kernel<double>(dev, work, cfg), std::length_error);
}

TEST(FailureInjection, MultiWindowSharedOverflowThrows) {
  const auto dev = gs::gtx480();
  const std::size_t n = 4096;
  auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 8, n,
                                      td::Layout::contiguous, 7);
  std::vector<gp::TiledPcrWork<double>> work;
  for (std::size_t m = 0; m < 8; ++m) {
    work.push_back({batch.system(m), batch.system(m), 0, n});
  }
  gp::TiledPcrConfig cfg;
  cfg.k = 8;                  // ~32 KB per window
  cfg.systems_per_block = 4;  // 4 windows > 48 KB
  EXPECT_THROW(gp::tiled_pcr_kernel<double>(dev, work, cfg), std::length_error);
}

TEST(FailureInjection, GtsvWorkspaceTooSmall) {
  Xoshiro256 rng(8);
  td::TridiagSystem<double> sys(16);
  wl::fill_matrix(wl::Kind::random_dominant, sys.ref(), rng);
  std::vector<double> x(16), small(8);
  td::GtsvWorkspace<double> ws{std::span<double>(small), std::span<double>(small),
                               std::span<double>(small), std::span<double>(small)};
  EXPECT_EQ(td::lu_gtsv(sys.ref(), td::StridedView<double>(x.data(), 16, 1), ws).code,
            td::SolveCode::bad_size);
}

TEST(FailureInjection, ZhangThrowsBeyondShared) {
  const auto dev = gs::gtx480();
  auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 1, 1537,
                                      td::Layout::contiguous, 9);
  EXPECT_THROW(gp::zhang_solve<double>(dev, batch), std::invalid_argument);
}

TEST(FailureInjection, LaunchRejectsZeroThreads) {
  const auto dev = gs::gtx480();
  EXPECT_THROW(gs::launch(dev, {1, 0}, [](gs::BlockContext&) {}),
               std::invalid_argument);
}

TEST(FailureInjection, WeakDominanceStillSolvesPoisson) {
  // Poisson rows are only weakly dominant (|b| == |a|+|c| in the
  // interior); the pivot-free pipeline must still be accurate.
  const auto dev = gs::gtx480();
  auto batch = wl::make_batch<double>(wl::Kind::poisson1d, 4, 1000,
                                      td::Layout::contiguous, 10);
  const auto orig = batch.clone();
  gp::hybrid_solve(dev, batch);
  auto check = orig.clone();
  std::vector<double> x(1000);
  for (std::size_t m = 0; m < 4; ++m) {
    auto sys = check.system(m);
    ASSERT_TRUE(
        td::lu_gtsv<double>(sys, td::StridedView<double>(x.data(), 1000, 1)).ok());
    for (std::size_t i = 0; i < 1000; ++i) {
      EXPECT_NEAR(batch.d()[batch.index(m, i)], x[i], 1e-6);
    }
  }
}

// ---------------------------------------------------------------------------
// Guarded solve path (DESIGN.md "Guarded solve path"): detection must be
// read-only and batched recovery must touch only the flagged systems.

namespace {

/// Diagonally dominant batch with one deliberately broken system: a zero
/// diagonal entry keeps the matrix nonsingular (pivoting LU still solves
/// it) but breaks every pivot-free elimination.
td::SystemBatch<double> broken_batch(std::size_t m_count, std::size_t n,
                                     std::size_t target, std::uint64_t seed) {
  auto batch = wl::make_batch<double>(wl::Kind::random_dominant, m_count, n,
                                      td::Layout::contiguous, seed);
  batch.b()[batch.index(target, 0)] = 0.0;
  return batch;
}

}  // namespace

TEST(GuardedSolve, ResidualInfPropagatesNanNotZero) {
  Xoshiro256 rng(11);
  td::TridiagSystem<double> sys(16);
  wl::fill_matrix(wl::Kind::random_dominant, sys.ref(), rng);
  wl::fill_rhs_random(sys.ref(), rng);
  std::vector<double> x(16, std::numeric_limits<double>::quiet_NaN());
  const td::StridedView<const double> xv(x.data(), 16, 1);
  // A fully-NaN "solution" must report NaN, never a reassuring 0.0.
  EXPECT_TRUE(std::isnan(td::residual_inf(td::as_const(sys.ref()), xv)));
  EXPECT_TRUE(std::isnan(td::relative_residual(td::as_const(sys.ref()), xv)));
}

TEST(GuardedSolve, RelativeResidualZeroDenominatorIsNan) {
  td::TridiagSystem<double> zero(4);  // all-zero matrix, rhs and solution
  std::vector<double> x(4, 0.0);
  const td::StridedView<const double> xv(x.data(), 4, 1);
  EXPECT_TRUE(std::isnan(td::relative_residual(td::as_const(zero.ref()), xv)));
  // The NaN contract composes with NaN-safe gates: !(rel <= gate) flags it.
  const double rel = td::relative_residual(td::as_const(zero.ref()), xv);
  EXPECT_TRUE(!(rel <= 1e-8));
}

TEST(GuardedSolve, ThomasFlagsNanPivot) {
  Xoshiro256 rng(12);
  td::TridiagSystem<double> sys(32);
  wl::fill_matrix(wl::Kind::random_dominant, sys.ref(), rng);
  wl::fill_rhs_random(sys.ref(), rng);
  sys.b()[5] = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> x(32);
  const auto st =
      td::thomas_solve(sys.ref(), td::StridedView<double>(x.data(), 32, 1));
  EXPECT_EQ(st.code, td::SolveCode::zero_pivot);
  EXPECT_EQ(st.index, 5u);
}

TEST(GuardedSolve, ThomasGuardTracksPivotGrowth) {
  // Benign dominant system: growth stays far below the near-singular limit.
  Xoshiro256 rng(13);
  td::TridiagSystem<double> nice(64);
  wl::fill_matrix(wl::Kind::random_dominant, nice.ref(), rng);
  wl::fill_rhs_random(nice.ref(), rng);
  std::vector<double> x(64);
  std::vector<double> cprime(64);
  td::SolveStatus guard;
  ASSERT_TRUE(td::thomas_solve(nice.ref(),
                               td::StridedView<double>(x.data(), 64, 1),
                               std::span<double>(cprime), &guard)
                  .ok());
  EXPECT_GE(guard.pivot_growth, 1.0);
  EXPECT_LT(guard.pivot_growth, td::default_growth_limit<double>());

  // Tiny pivot with O(1) neighbours: growth explodes and the batch policy
  // upgrades the system to near_singular.
  td::TridiagSystem<double> wild(2);
  wild.b()[0] = 1e-9;
  wild.c()[0] = 1.0;
  wild.a()[1] = 1.0;
  wild.b()[1] = 4.0;
  wild.d()[0] = 1.0;
  wild.d()[1] = 1.0;
  std::vector<double> y(2), cp2(2);
  td::SolveStatus wild_guard;
  ASSERT_TRUE(td::thomas_solve(wild.ref(),
                               td::StridedView<double>(y.data(), 2, 1),
                               std::span<double>(cp2), &wild_guard)
                  .ok());
  EXPECT_GT(wild_guard.pivot_growth, 1e8);
  td::BatchStatus bs(1);
  bs.absorb(0, wild_guard);
  bs.apply_growth_limit(td::default_growth_limit<double>());
  EXPECT_EQ(bs[0].code, td::SolveCode::near_singular);
}

namespace {

// The pivot guards as they were written with branches and early returns:
// the oracles the branch-free guards must match bit for bit.
template <typename T>
void oracle_guard_pcr_combine(td::SolveStatus& guard, const td::Row<T>& lo,
                              const td::Row<T>& mid, const td::Row<T>& hi,
                              std::size_t pos) {
  const double blo = std::abs(static_cast<double>(lo.b));
  const double bhi = std::abs(static_cast<double>(hi.b));
  const bool bad = !(blo > 0.0) || !(bhi > 0.0) ||
                   !std::isfinite(blo) || !std::isfinite(bhi);
  if (bad) {
    if (guard.code == td::SolveCode::ok) {
      guard.code = td::SolveCode::zero_pivot;
      guard.index = pos;
    }
    return;
  }
  const double scale = std::max({std::abs(static_cast<double>(mid.a)),
                                 std::abs(static_cast<double>(mid.b)),
                                 std::abs(static_cast<double>(mid.c))});
  const double ratio = scale / std::min(blo, bhi);
  if (ratio > guard.pivot_growth) guard.pivot_growth = ratio;
}

template <typename T>
void oracle_guard_thomas_pivot(td::SolveStatus& guard, T a, T b, T c, T pivot,
                               std::size_t pos) {
  if (!td::detail::thomas_pivot_ok(pivot)) {
    if (guard.code == td::SolveCode::ok) {
      guard.code = td::SolveCode::zero_pivot;
      guard.index = pos;
    }
    return;
  }
  const double scale = std::max({std::abs(static_cast<double>(a)),
                                 std::abs(static_cast<double>(b)),
                                 std::abs(static_cast<double>(c))});
  const double ratio = scale / std::abs(static_cast<double>(pivot));
  if (ratio > guard.pivot_growth) guard.pivot_growth = ratio;
}

bool same_status(const td::SolveStatus& x, const td::SolveStatus& y) {
  return x.code == y.code && x.index == y.index &&
         std::bit_cast<std::uint64_t>(x.pivot_growth) ==
             std::bit_cast<std::uint64_t>(y.pivot_growth);
}

/// Every value of {+-0, +-denorm_min, +-1, +-big, +-inf, NaN} in every
/// argument position the guards read, from a fresh status, from one
/// already flagged and from an unflagged one at growth 7.
template <typename T>
void expect_guards_match_oracle() {
  using L = std::numeric_limits<T>;
  T big = T(1e30f);
  if constexpr (sizeof(T) == 8) big = T(1e300);
  const std::vector<T> values = {T(0),  -T(0), L::denorm_min(), -L::denorm_min(),
                                 T(1),  T(-1), big,             -big,
                                 L::infinity(), -L::infinity(), L::quiet_NaN()};
  const td::SolveStatus starts[] = {
      td::SolveStatus{},
      td::SolveStatus{td::SolveCode::zero_pivot, 3, 7.0},
      td::SolveStatus{td::SolveCode::ok, 0, 7.0}};
  std::size_t pos = 0;
  std::size_t mismatches = 0;
  for (const td::SolveStatus& start : starts) {
    for (const T lob : values) {
      for (const T hib : values) {
        for (const T ma : values) {
          for (const T mb : values) {
            for (const T mc : values) {
              const td::Row<T> lo{T(2), lob, T(3), T(4)};
              const td::Row<T> mid{ma, mb, mc, T(5)};
              const td::Row<T> hi{T(6), hib, T(7), T(8)};
              td::SolveStatus want = start, got = start;
              oracle_guard_pcr_combine(want, lo, mid, hi, ++pos);
              td::detail::guard_pcr_combine(got, lo, mid, hi, pos);
              mismatches += same_status(want, got) ? 0 : 1;
            }
          }
        }
      }
    }
    for (const T a : values) {
      for (const T b : values) {
        for (const T c : values) {
          for (const T pivot : values) {
            td::SolveStatus want = start, got = start;
            oracle_guard_thomas_pivot(want, a, b, c, pivot, ++pos);
            td::detail::guard_thomas_pivot(got, a, b, c, pivot, pos);
            mismatches += same_status(want, got) ? 0 : 1;
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << (sizeof(T) == 8 ? "double" : "float");
}

}  // namespace

// The branch-free guards (no early return, so they sit inside level and
// lane loops) keep the branchy guards' code, first-offence index and
// growth bits on every special value, NaN ordering in std::max included.
TEST(GuardedSolve, GuardFunctionsMatchBranchyOracle) {
  expect_guards_match_oracle<float>();
  expect_guards_match_oracle<double>();
}

TEST(GuardedSolve, HostTiledPcrGuardIsReadOnlyAndDetects) {
  Xoshiro256 rng(14);
  td::TridiagSystem<double> sys(128);
  wl::fill_matrix(wl::Kind::random_dominant, sys.ref(), rng);
  wl::fill_rhs_random(sys.ref(), rng);
  auto guarded = sys.clone();
  auto plain = sys.clone();

  td::SolveStatus guard;
  td::tiled_pcr_reduce(guarded.ref(), 3, &guard);
  td::tiled_pcr_reduce(plain.ref(), 3);
  EXPECT_EQ(guard.code, td::SolveCode::ok);
  EXPECT_GE(guard.pivot_growth, 1.0);
  for (std::size_t i = 0; i < 128; ++i) {
    // Detection must not perturb a single bit of the reduction.
    EXPECT_EQ(guarded.b()[i], plain.b()[i]);
    EXPECT_EQ(guarded.d()[i], plain.d()[i]);
  }

  auto broken = sys.clone();
  broken.b()[64] = 0.0;  // neighbour combines divide by this pivot
  td::SolveStatus bad;
  td::tiled_pcr_reduce(broken.ref(), 3, &bad);
  EXPECT_EQ(bad.code, td::SolveCode::zero_pivot);
}

TEST(GuardedSolve, PthomasGuardFlagsExactlyTheBrokenLane) {
  const auto dev = gs::gtx480();
  const std::size_t m_count = 4, n = 48;
  auto batch = broken_batch(m_count, n, 2, 15);
  std::vector<td::SystemRef<double>> systems;
  for (std::size_t m = 0; m < m_count; ++m) systems.push_back(batch.system(m));
  std::vector<td::SolveStatus> guard(m_count);
  gp::pthomas_solve<double>(dev, systems, {}, guard);
  for (std::size_t m = 0; m < m_count; ++m) {
    if (m == 2) {
      EXPECT_EQ(guard[m].code, td::SolveCode::zero_pivot);
      EXPECT_EQ(guard[m].index, 0u);
    } else {
      EXPECT_EQ(guard[m].code, td::SolveCode::ok);
    }
  }
}

TEST(GuardedSolve, HybridGuardIsFreeOnHealthyInput) {
  const auto dev = gs::gtx480();
  auto a = wl::make_batch<double>(wl::Kind::random_dominant, 4, 512,
                                  td::Layout::contiguous, 16);
  auto b = a.clone();

  gp::HybridOptions guarded_opts;  // guard defaults to true
  const auto guarded = gp::hybrid_solve(dev, a, guarded_opts);
  gp::HybridOptions plain_opts;
  plain_opts.guard = false;
  const auto plain = gp::hybrid_solve(dev, b, plain_opts);

  // Zero-cost contract: bit-identical solution, identical simulated time.
  for (std::size_t i = 0; i < a.total_rows(); ++i) {
    EXPECT_EQ(a.d()[i], b.d()[i]);
  }
  EXPECT_EQ(guarded.total_us(), plain.total_us());
  EXPECT_EQ(guarded.flagged, 0u);
  ASSERT_EQ(guarded.status.size(), 4u);
  EXPECT_TRUE(guarded.status.all_ok());
  EXPECT_TRUE(plain.status.empty());
}

TEST(GuardedSolve, RegistryFlagsOnlyTheSingularSystem) {
  const auto dev = gs::gtx480();
  const std::size_t m_count = 6, n = 64, target = 3;
  auto good = wl::make_batch<double>(wl::Kind::random_dominant, m_count, n,
                                     td::Layout::contiguous, 19);
  auto bad = good.clone();
  bad.b()[bad.index(target, 0)] = 0.0;

  gp::SolverRunOptions ropts;
  ropts.guard = true;
  for (const auto kind : gp::all_solver_kinds()) {
    SCOPED_TRACE(gp::solver_name(kind));
    td::SystemBatch<double> good_x, bad_x;
    const auto good_out = gp::run_solver(kind, dev, good, ropts, &good_x);
    if (!good_out.supported) continue;  // size/config rejected: fine
    EXPECT_EQ(good_out.flagged, 0u);
    ASSERT_EQ(good_out.status.size(), m_count);
    EXPECT_TRUE(good_out.status.all_ok());

    const auto bad_out = gp::run_solver(kind, dev, bad, ropts, &bad_x);
    ASSERT_TRUE(bad_out.supported);
    EXPECT_EQ(bad_out.flagged, 1u);
    EXPECT_FALSE(bad_out.status[target].ok());
    for (std::size_t m = 0; m < m_count; ++m) {
      if (m == target) continue;
      EXPECT_TRUE(bad_out.status[m].ok());
      // The broken system must not poison its batch-mates: their
      // solutions are bit-identical to the all-good run.
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bad_x.d()[bad_x.index(m, i)],
                  good_x.d()[good_x.index(m, i)]);
      }
    }
  }
}

TEST(GuardedSolve, RegistryFallbackRecoversEverySolverKind) {
  const auto dev = gs::gtx480();
  const std::size_t m_count = 6, n = 64, target = 3;
  const auto bad = broken_batch(m_count, n, target, 20);

  gp::SolverRunOptions ropts;
  ropts.guard = true;
  td::ResiliencePolicy policy;  // straight to pivoting LU, no retries
  policy.fallback_chain = {"lu"};
  policy.max_retries = 0;
  for (const auto kind : gp::all_solver_kinds()) {
    SCOPED_TRACE(gp::solver_name(kind));
    td::SystemBatch<double> guarded, sol = bad.clone();
    if (!gp::run_solver(kind, dev, bad, ropts, &guarded).supported) continue;
    const auto res = gp::run_solver_resilient(kind, dev, sol, ropts, policy);
    EXPECT_EQ(res.report.worst, td::SolveCode::ok);
    EXPECT_EQ(res.report.fallback_stages, 1u);
    EXPECT_TRUE(res.outcome.status[target].ok());
    // The detection record survives recovery.
    EXPECT_FALSE(res.outcome.status.detected(target).ok());
    const auto& csol = sol;
    EXPECT_LE(td::relative_residual(bad.system(target), csol.system(target).d),
              1e-10);
    for (std::size_t m = 0; m < m_count; ++m) {
      if (m == target) continue;
      // Untouched by recovery: bit-identical to the guarded solve.
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(sol.d()[sol.index(m, i)], guarded.d()[guarded.index(m, i)]);
      }
    }
  }
}

TEST(GuardedSolve, GuardMetricsCountFlaggedAndRecovered) {
  namespace obs = tridsolve::obs;
  auto& reg = obs::MetricsRegistry::instance();
  const double flagged0 = reg.counter("solver.guard.flagged");

  const auto dev = gs::gtx480();
  const auto bad = broken_batch(4, 64, 1, 22);
  gp::SolverRunOptions ropts;
  ropts.guard = true;
  const auto out = gp::run_solver(gp::SolverKind::hybrid, dev, bad, ropts);
  ASSERT_TRUE(out.supported);
  ASSERT_EQ(out.flagged, 1u);

  EXPECT_EQ(reg.counter("solver.guard.flagged"), flagged0 + 1.0);
}
