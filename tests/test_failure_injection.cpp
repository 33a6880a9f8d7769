// Failure-injection and edge-case suite: bad launch configurations,
// shared-memory exhaustion, singular/NaN inputs, and degenerate shapes —
// every public entry point must fail loudly (status or exception), never
// hang or corrupt unrelated state.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "gpu_solvers/hybrid_solver.hpp"
#include "gpu_solvers/pthomas_kernel.hpp"
#include "gpu_solvers/registry.hpp"
#include "gpu_solvers/tiled_pcr_kernel.hpp"
#include "gpu_solvers/zhang_pcr_thomas.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/exec_engine.hpp"
#include "gpusim/launch.hpp"
#include "obs/metrics.hpp"
#include "tridiag/batch_status.hpp"
#include "tridiag/lu_pivot.hpp"
#include "tridiag/pcr.hpp"
#include "tridiag/residual.hpp"
#include "tridiag/thomas.hpp"
#include "tridiag/tiled_pcr.hpp"
#include "util/random.hpp"
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

namespace {

// ---- Batched guard passes against their row-by-row references ------------

/// The value a planted special takes: {+-0, +-denorm_min, +-inf, NaN}.
template <typename T>
T special_value(Xoshiro256& rng) {
  using L = std::numeric_limits<T>;
  const T values[] = {T(0),          -T(0),          L::denorm_min(),
                      -L::denorm_min(), L::infinity(), -L::infinity(),
                      L::quiet_NaN()};
  return values[rng() % std::size(values)];
}

template <typename T>
td::Row<T> healthy_row(Xoshiro256& rng) {
  const auto u = [&] {
    return static_cast<T>(tridsolve::util::uniform(rng, -1.0, 1.0));
  };
  const T b = static_cast<T>(tridsolve::util::uniform(rng, 2.0, 4.0));
  return {u(), rng() % 2 ? b : -b, u(), u()};
}

/// The tiled-PCR level guard as the watched blocks run it: guard_pcr_combine
/// on every real row, thread-major and sub-tile-minor.
template <typename T>
td::SolveStatus level_guard_reference(td::SolveStatus st,
                                      const std::vector<td::Row<T>>& src,
                                      const std::vector<td::Row<T>>& tail,
                                      std::size_t reach, std::size_t from,
                                      std::size_t to, std::size_t threads,
                                      std::size_t pos0) {
  const auto level = [&](std::ptrdiff_t x) -> const td::Row<T>& {
    return x >= 0 ? src[static_cast<std::size_t>(x)]
                  : tail[static_cast<std::size_t>(
                        x + 2 * static_cast<std::ptrdiff_t>(reach))];
  };
  const auto r = static_cast<std::ptrdiff_t>(reach);
  for (std::size_t tid = 0; tid < threads; ++tid) {
    for (std::size_t i = tid; i < to; i += threads) {
      if (i < from) continue;
      const auto x = static_cast<std::ptrdiff_t>(i);
      td::detail::guard_pcr_combine(st, level(x - 2 * r), level(x - r),
                                    level(x), pos0 + i);
    }
  }
  return st;
}

template <typename T>
td::SolveStatus level_guard_batched(td::SolveStatus st,
                                    const std::vector<td::Row<T>>& src,
                                    const std::vector<td::Row<T>>& tail,
                                    std::size_t reach, std::size_t from,
                                    std::size_t to, std::size_t threads,
                                    std::size_t pos0) {
  std::vector<double> ratio(src.size());
  gp::detail::guard_window_level(st, src.data(), tail.data(), reach, from,
                                 to, threads,
                                 static_cast<std::ptrdiff_t>(pos0),
                                 ratio.data());
  return st;
}

/// Random levels of every k in 1..6 and c in {1, 2, 4}: healthy rows with
/// specials planted in divisors (b) and in the other fields a row brings
/// as `mid`, real-row ranges that clip either end, statuses fresh, at a
/// raised growth and already flagged.
template <typename T>
std::size_t level_guard_mismatches(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const td::SolveStatus starts[] = {
      td::SolveStatus{}, td::SolveStatus{td::SolveCode::ok, 0, 7.0},
      td::SolveStatus{td::SolveCode::zero_pivot, 3, 7.0}};
  std::size_t mismatches = 0;
  std::size_t flagged = 0;  // levels a fresh status leaves flagged
  for (unsigned k = 1; k <= 6; ++k) {
    const std::size_t threads = std::size_t{1} << k;
    for (const std::size_t c :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      const std::size_t S = c * threads;
      for (unsigned j = 1; j <= k; ++j) {
        const std::size_t reach = std::size_t{1} << (j - 1);
        for (int rep = 0; rep < 24; ++rep) {
          std::vector<td::Row<T>> src(S), tail(2 * reach);
          for (auto& row : src) row = healthy_row<T>(rng);
          for (auto& row : tail) row = healthy_row<T>(rng);
          const std::size_t plants = rng() % 4;
          for (std::size_t p = 0; p < plants; ++p) {
            const bool in_tail = rng() % 4 == 0;
            td::Row<T>& row = in_tail ? tail[rng() % tail.size()]
                                      : src[rng() % S];
            switch (rng() % 3) {
              case 0: row.b = special_value<T>(rng); break;
              case 1: row.a = special_value<T>(rng); break;
              default: row.c = special_value<T>(rng); break;
            }
          }
          std::size_t from = rng() % 3 == 0 ? rng() % (S + 1) : 0;
          std::size_t to = rng() % 3 == 0 ? rng() % (S + 1) : S;
          if (from > to) std::swap(from, to);
          const std::size_t pos0 = rng() % 1000;
          for (const td::SolveStatus& start : starts) {
            const td::SolveStatus want = level_guard_reference(
                start, src, tail, reach, from, to, threads, pos0);
            const td::SolveStatus got = level_guard_batched(
                start, src, tail, reach, from, to, threads, pos0);
            mismatches += same_status(want, got) ? 0 : 1;
            flagged += start.ok() && !want.ok() ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_GT(flagged, 0u) << "no level met a bad divisor";
  return mismatches;
}

}  // namespace

// The tiled-PCR level guard of every unwatched block (a batched pass: its
// ratios in vector loops, the growth folded in any order, the first
// offence searched only when a row is bad) gives the code, index and
// growth bits of guard_pcr_combine on each row in the phased order.
TEST(GuardedSolve, BatchedLevelGuardMatchesPhasedOracle) {
  EXPECT_EQ(level_guard_mismatches<float>(301), 0u);
  EXPECT_EQ(level_guard_mismatches<double>(302), 0u);

  // c = 2 at k = 2 (S = 8 rows, 4 threads) on level 1: zero divisors in
  // batch rows 1 and 4 make rows 1, 3, 4 and 6 bad. Thread 0 owns rows 0
  // and 4, so the phased order meets row 4 first, not row 1.
  Xoshiro256 rng(303);
  std::vector<td::Row<double>> src(8), tail(2);
  for (auto& row : src) row = healthy_row<double>(rng);
  for (auto& row : tail) row = healthy_row<double>(rng);
  src[1].b = 0.0;
  src[4].b = 0.0;
  const td::SolveStatus want =
      level_guard_reference<double>({}, src, tail, 1, 0, 8, 4, 100);
  const td::SolveStatus got =
      level_guard_batched<double>({}, src, tail, 1, 0, 8, 4, 100);
  EXPECT_EQ(want.code, td::SolveCode::zero_pivot);
  EXPECT_EQ(want.index, 104u);
  EXPECT_TRUE(same_status(want, got))
      << "index " << got.index << ", growth " << got.pivot_growth;
}

namespace {

/// Guarded p-Thomas on `systems`, each status against guard_thomas_pivot
/// row by row over a copy of its system (every row, bad ones included).
template <typename T>
std::size_t lane_guard_mismatches(std::vector<td::SystemRef<T>> systems,
                                  const std::string& what) {
  std::vector<td::SolveStatus> want(systems.size());
  for (std::size_t m = 0; m < systems.size(); ++m) {
    const td::SystemRef<T>& s = systems[m];
    T cp = T(0), dp = T(0);
    for (std::size_t i = 0; i < s.size(); ++i) {
      const T pivot = td::thomas_forward_row(s.a[i], s.b[i], s.c[i], s.d[i],
                                             cp, dp);
      td::detail::guard_thomas_pivot(want[m], s.a[i], s.b[i], s.c[i], pivot,
                                     i);
    }
  }
  EXPECT_TRUE(std::any_of(want.begin(), want.end(),
                          [](const td::SolveStatus& st) { return !st.ok(); }))
      << what << ": no system met a bad pivot";
  const auto dev = gs::gtx480();
  std::size_t mismatches = 0;
  struct Path {
    const char* name;
    gs::InstrumentMode mode;
    bool vector;
  };
  // functional: the grid-wide sweep; sampled: the per-block sweeps of the
  // unrecorded blocks; exact with the vector engine off: the lockstep body.
  const Path paths[] = {
      {"functional", gs::InstrumentMode::functional_only, true},
      {"sampled", gs::InstrumentMode::sampled, true},
      {"lockstep", gs::InstrumentMode::exact, false}};
  for (const Path& path : paths) {
    // Each path solves in place: keep the inputs.
    std::vector<std::vector<T>> saved;
    for (const auto& s : systems) {
      for (const auto* v : {&s.a, &s.b, &s.c, &s.d}) {
        std::vector<T>& copy = saved.emplace_back(v->size());
        for (std::size_t i = 0; i < v->size(); ++i) copy[i] = (*v)[i];
      }
    }
    std::vector<td::SolveStatus> got(systems.size());
    {
      const gs::ScopedInstrumentMode scoped_mode(path.mode);
      const gs::ScopedVectorMode vec(path.vector);
      gp::pthomas_solve<T>(dev, systems, {}, got);
    }
    for (std::size_t m = 0; m < systems.size(); ++m) {
      if (!same_status(want[m], got[m])) {
        ++mismatches;
        ADD_FAILURE() << what << " / " << path.name << " system " << m
                      << ": code " << static_cast<int>(got[m].code)
                      << " index " << got[m].index << " growth "
                      << got[m].pivot_growth << ", want code "
                      << static_cast<int>(want[m].code) << " index "
                      << want[m].index << " growth " << want[m].pivot_growth;
      }
    }
    std::size_t w = 0;
    for (const auto& s : systems) {
      for (const auto* v : {&s.a, &s.b, &s.c, &s.d}) {
        for (std::size_t i = 0; i < v->size(); ++i) (*v)[i] = saved[w][i];
        ++w;
      }
    }
  }
  return mismatches;
}

/// Several bad rows in a third of the systems: zero rows (a = b = 0 makes
/// the pivot 0 or NaN) and specials in b, at random rows.
template <typename T>
void plant_bad_rows(std::vector<td::SystemRef<T>>& systems, Xoshiro256& rng) {
  for (auto& s : systems) {
    if (s.size() == 0 || rng() % 3 != 0) continue;
    const std::size_t plants = 1 + rng() % 3;
    for (std::size_t p = 0; p < plants; ++p) {
      const std::size_t i = rng() % s.size();
      if (rng() % 2 == 0) {
        s.a[i] = T(0);
        s.b[i] = T(0);
      } else {
        s.b[i] = special_value<T>(rng);
      }
    }
  }
}

/// Ragged batches in both lane layouts: `lanes` systems whose sizes come
/// in runs (so affine lane segments break inside blocks), viewed
/// lane-contiguously (row i of system m at i * lanes + m) or
/// row-contiguously (at m * rows + i).
template <typename T>
std::size_t ragged_lane_mismatches(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const std::size_t lanes = 300, rows = 40;
  std::size_t mismatches = 0;
  for (const bool interleaved : {true, false}) {
    std::vector<T> a(lanes * rows), b(lanes * rows), c(lanes * rows),
        d(lanes * rows);
    for (std::size_t e = 0; e < a.size(); ++e) {
      a[e] = static_cast<T>(tridsolve::util::uniform(rng, -1.0, 1.0));
      b[e] = static_cast<T>(tridsolve::util::uniform(rng, 2.5, 4.0));
      c[e] = static_cast<T>(tridsolve::util::uniform(rng, -1.0, 1.0));
      d[e] = static_cast<T>(tridsolve::util::uniform(rng, -1.0, 1.0));
    }
    std::vector<td::SystemRef<T>> systems;
    std::size_t n = rows;
    for (std::size_t m = 0; m < lanes; ++m) {
      if (rng() % 40 == 0) n = rng() % (rows + 1);  // a new run
      const std::size_t base = interleaved ? m : m * rows;
      const std::ptrdiff_t stride =
          interleaved ? static_cast<std::ptrdiff_t>(lanes) : 1;
      systems.push_back({td::StridedView<T>(a.data() + base, n, stride),
                         td::StridedView<T>(b.data() + base, n, stride),
                         td::StridedView<T>(c.data() + base, n, stride),
                         td::StridedView<T>(d.data() + base, n, stride)});
    }
    plant_bad_rows(systems, rng);
    mismatches += lane_guard_mismatches<T>(
        systems, interleaved ? "lane-contiguous" : "row-contiguous");
  }
  return mismatches;
}

}  // namespace

// The p-Thomas lane sweeps keep each lane's first bad row and growth in
// separate arrays and write its status once, after its last row: every
// path gives the statuses of guard_thomas_pivot row by row.
TEST(GuardedSolve, LaneGuardMatchesPerRowOracle) {
  EXPECT_EQ(ragged_lane_mismatches<float>(311), 0u);
  EXPECT_EQ(ragged_lane_mismatches<double>(312), 0u);
}

namespace {

// The residual gate as it was written with a sticky-NaN accumulator and a
// branch per row: the oracle for the branch-free gate.
void oracle_accumulate_inf_norm(double& worst, double sample) {
  if (std::isnan(sample)) {
    worst = std::numeric_limits<double>::quiet_NaN();
  } else if (!std::isnan(worst) && sample > worst) {
    worst = sample;
  }
}

template <typename T>
double oracle_residual_inf(const td::SystemRef<const T>& sys,
                           td::StridedView<const T> x) {
  const std::size_t n = sys.size();
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double r =
        static_cast<double>(sys.b[i]) * x[i] - static_cast<double>(sys.d[i]);
    if (i > 0) r += static_cast<double>(sys.a[i]) * x[i - 1];
    if (i + 1 < n) r += static_cast<double>(sys.c[i]) * x[i + 1];
    oracle_accumulate_inf_norm(worst, std::abs(r));
  }
  return worst;
}

template <typename T>
double oracle_relative_residual(const td::SystemRef<const T>& sys,
                                td::StridedView<const T> x) {
  const std::size_t n = sys.size();
  if (n == 0) return 0.0;
  double norm_a = 0.0, norm_x = 0.0, norm_d = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double row = std::abs(static_cast<double>(sys.a[i])) +
                       std::abs(static_cast<double>(sys.b[i])) +
                       std::abs(static_cast<double>(sys.c[i]));
    oracle_accumulate_inf_norm(norm_a, row);
    oracle_accumulate_inf_norm(norm_x, std::abs(static_cast<double>(x[i])));
    oracle_accumulate_inf_norm(norm_d, std::abs(static_cast<double>(sys.d[i])));
  }
  const double denom = norm_a * norm_x + norm_d;
  if (!(denom > 0.0)) return std::numeric_limits<double>::quiet_NaN();
  if (!std::isfinite(denom)) return std::numeric_limits<double>::quiet_NaN();
  return oracle_residual_inf(sys, x) / denom;
}

template <typename T>
td::SolveStatus oracle_gate_solution(const td::SystemRef<const T>& sys,
                                     td::StridedView<const T> x,
                                     td::SolveStatus st) {
  if (!st.ok()) return st;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!std::isfinite(static_cast<double>(x[i]))) {
      return {td::SolveCode::zero_pivot, i, st.pivot_growth};
    }
  }
  const double gate =
      std::sqrt(static_cast<double>(std::numeric_limits<T>::epsilon()));
  if (!(oracle_relative_residual(sys, x) <= gate)) {
    return {td::SolveCode::near_singular, 0, st.pivot_growth};
  }
  return st;
}

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

/// Systems of every size in {0, 1, 2, 3, 5, 64, 600} (600 spans several
/// of the gate's chunks), stride 1 and strided, with x a solution, a
/// perturbed one or random, and NaN or +-inf planted in x, d and the
/// coefficients; the gate from a fresh and a flagged status.
template <typename T>
std::size_t residual_mismatches(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  using L = std::numeric_limits<T>;
  const T specials[] = {L::quiet_NaN(), L::infinity(), -L::infinity()};
  std::size_t mismatches = 0;
  std::size_t passed = 0, flagged = 0;  // fresh-status gate outcomes
  for (const std::size_t n : {0, 1, 2, 3, 5, 64, 600}) {
    for (const std::ptrdiff_t stride : {1, 3}) {
      for (int rep = 0; rep < 40; ++rep) {
        const std::size_t len = n * static_cast<std::size_t>(stride);
        std::vector<T> a(len), b(len), c(len), d(len), x(len);
        for (std::size_t e = 0; e < len; ++e) {
          a[e] = static_cast<T>(tridsolve::util::uniform(rng, -1.0, 1.0));
          b[e] = static_cast<T>(tridsolve::util::uniform(rng, 2.5, 4.0));
          c[e] = static_cast<T>(tridsolve::util::uniform(rng, -1.0, 1.0));
          x[e] = static_cast<T>(tridsolve::util::uniform(rng, -1.0, 1.0));
          d[e] = static_cast<T>(tridsolve::util::uniform(rng, -1.0, 1.0));
        }
        const auto view = [&](std::vector<T>& v) {
          return td::StridedView<const T>(v.data(), n, stride);
        };
        const td::SystemRef<const T> sys{view(a), view(b), view(c), view(d)};
        if (rep % 4 == 0 && n > 0) {
          // d = A x exactly enough that the residual gate passes.
          for (std::size_t i = 0; i < n; ++i) {
            const auto at = [&](std::size_t r) {
              return static_cast<std::size_t>(
                  static_cast<std::ptrdiff_t>(r) * stride);
            };
            double r = static_cast<double>(b[at(i)]) * x[at(i)];
            if (i > 0) r += static_cast<double>(a[at(i)]) * x[at(i - 1)];
            if (i + 1 < n) r += static_cast<double>(c[at(i)]) * x[at(i + 1)];
            d[at(i)] = static_cast<T>(r);
          }
        }
        if (n > 0 && rep % 2 == 1) {
          std::vector<T>* arrays[] = {&a, &b, &c, &d, &x};
          const std::size_t plants = 1 + rng() % 3;
          for (std::size_t p = 0; p < plants; ++p) {
            std::vector<T>& v = *arrays[rng() % 5];
            v[(rng() % n) * static_cast<std::size_t>(stride)] =
                specials[rng() % 3];
          }
        }
        const td::StridedView<const T> xv = view(x);
        mismatches += same_bits(td::residual_inf(sys, xv),
                                oracle_residual_inf(sys, xv))
                          ? 0
                          : 1;
        mismatches += same_bits(td::relative_residual(sys, xv),
                                oracle_relative_residual(sys, xv))
                          ? 0
                          : 1;
        for (const td::SolveStatus& start :
             {td::SolveStatus{td::SolveCode::ok, 0, 3.0},
              td::SolveStatus{td::SolveCode::zero_pivot, 2, 3.0}}) {
          const td::SolveStatus want = oracle_gate_solution(sys, xv, start);
          mismatches += same_status(td::gate_solution(sys, xv, start), want)
                            ? 0
                            : 1;
          if (start.ok()) (want.ok() ? passed : flagged) += 1;
        }
      }
    }
  }
  EXPECT_GT(passed, 0u) << "no case passed the gate";
  EXPECT_GT(flagged, 0u) << "no case failed the gate";
  return mismatches;
}

}  // namespace

// The branch-free residual gate (maxima on vector lanes with a separate
// NaN flag, the first and last rows peeled) keeps the sticky-NaN gate's
// values and statuses bit for bit, in contiguous and strided views.
TEST(GuardedSolve, ResidualGateMatchesStickyNanOracle) {
  EXPECT_EQ(residual_mismatches<float>(321), 0u);
  EXPECT_EQ(residual_mismatches<double>(322), 0u);
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
