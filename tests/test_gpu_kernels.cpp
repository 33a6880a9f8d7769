// Simulated-GPU kernel tests: p-Thomas (including views with mismatched
// per-array strides), tiled PCR kernel (all window variants, fusion), and
// the Davidson/Zhang/CR baselines — all validated against the host
// reference solvers, bit for bit where the kernel runs the host's
// recurrences (tiled PCR, Zhang, Davidson).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gpu_solvers/cr_kernel.hpp"
#include "gpu_solvers/davidson.hpp"
#include "gpu_solvers/pthomas_kernel.hpp"
#include "gpu_solvers/tiled_pcr_kernel.hpp"
#include "gpu_solvers/zhang_pcr_thomas.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/exec_engine.hpp"
#include "obs/metrics.hpp"
#include "tridiag/lu_pivot.hpp"
#include "tridiag/pcr.hpp"
#include "tridiag/thomas.hpp"
#include "util/stats.hpp"
#include "workloads/generators.hpp"

namespace td = tridsolve::tridiag;
namespace wl = tridsolve::workloads;
namespace gp = tridsolve::gpu;
namespace gs = tridsolve::gpusim;

namespace {

td::SystemBatch<double> make_batch(std::size_t m, std::size_t n,
                                   td::Layout layout = td::Layout::contiguous,
                                   std::uint64_t seed = 7) {
  return wl::make_batch<double>(wl::Kind::random_dominant, m, n, layout, seed);
}

/// Reference solutions for every system of a batch, via pivoting LU.
std::vector<std::vector<double>> reference_solutions(
    const td::SystemBatch<double>& batch) {
  std::vector<std::vector<double>> xs(batch.num_systems());
  auto copy = batch.clone();
  for (std::size_t m = 0; m < batch.num_systems(); ++m) {
    xs[m].resize(batch.system_size());
    auto sys = copy.system(m);
    EXPECT_TRUE(td::lu_gtsv<double>(sys, td::StridedView<double>(
                                             xs[m].data(), xs[m].size(), 1))
                    .ok());
  }
  return xs;
}

void expect_batch_solved(const td::SystemBatch<double>& solved,
                         const std::vector<std::vector<double>>& ref,
                         double tol = 1e-9) {
  for (std::size_t m = 0; m < solved.num_systems(); ++m) {
    for (std::size_t i = 0; i < solved.system_size(); ++i) {
      ASSERT_NEAR(solved.d()[solved.index(m, i)], ref[m][i], tol)
          << "m=" << m << " i=" << i;
    }
  }
}

/// The systems of `batch`, with every third one copied into `store` so
/// that its a/b/c/d rows sit at strides 1, 2, 3 and 4: views SystemBatch
/// never produces, which the functional grid-wide sweep leaves to the
/// per-block kernel bodies.
std::vector<td::SystemRef<double>> mixed_stride_systems(
    td::SystemBatch<double>& batch, std::vector<double>& store) {
  const std::size_t n = batch.system_size();
  store.assign(batch.num_systems() * 10 * n, 0.0);
  double* next = store.data();
  std::vector<td::SystemRef<double>> systems;
  for (std::size_t m = 0; m < batch.num_systems(); ++m) {
    td::SystemRef<double> s = batch.system(m);
    if (m % 3 == 1) {
      td::StridedView<double>* views[] = {&s.a, &s.b, &s.c, &s.d};
      for (std::ptrdiff_t k = 0; k < 4; ++k) {
        const td::StridedView<double> moved(next, n, k + 1);
        for (std::size_t i = 0; i < n; ++i) moved[i] = (*views[k])[i];
        *views[k] = moved;
        next += n * static_cast<std::size_t>(k + 1);
      }
    }
    systems.push_back(s);
  }
  return systems;
}

/// Run pthomas_solve (or, with `backward_only`, pthomas_backward on the
/// batch's c and d as c', d') over a copy of `input` in `mode`, with the
/// mismatched-stride systems when `mixed` and through an xout when
/// `use_xout`; returns every solution value, system-major.
std::vector<double> pthomas_run(const td::SystemBatch<double>& input,
                                gs::InstrumentMode mode, bool mixed,
                                bool use_xout, bool backward_only) {
  const auto dev = gs::gtx480();
  const gs::ScopedInstrumentMode scope(mode);
  auto batch = input.clone();
  const std::size_t n = batch.system_size();
  std::vector<double> store;
  std::vector<td::SystemRef<double>> systems;
  if (mixed) {
    systems = mixed_stride_systems(batch, store);
  } else {
    for (std::size_t m = 0; m < batch.num_systems(); ++m) {
      systems.push_back(batch.system(m));
    }
  }
  std::vector<double> x(use_xout ? systems.size() * n : 0);
  std::vector<td::StridedView<double>> xout;
  for (std::size_t m = 0; use_xout && m < systems.size(); ++m) {
    xout.emplace_back(x.data() + m * n, n, std::ptrdiff_t{1});
  }
  if (backward_only) {
    gp::pthomas_backward<double>(dev, systems, xout);
  } else {
    gp::pthomas_solve<double>(dev, systems, xout);
  }
  std::vector<double> out;
  for (std::size_t m = 0; m < systems.size(); ++m) {
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(use_xout ? x[m * n + i] : systems[m].d[i]);
    }
  }
  return out;
}

double vector_blocks() {
  return tridsolve::obs::MetricsRegistry::instance().counter(
      "gpusim.vector.blocks");
}

}  // namespace

TEST(PthomasKernel, SolvesInterleavedBatch) {
  const auto dev = gs::gtx480();
  auto batch = make_batch(64, 37, td::Layout::interleaved);
  const auto ref = reference_solutions(batch);

  std::vector<td::SystemRef<double>> systems;
  for (std::size_t m = 0; m < batch.num_systems(); ++m) {
    systems.push_back(batch.system(m));
  }
  gp::pthomas_solve<double>(dev, systems);
  expect_batch_solved(batch, ref);
}

TEST(PthomasKernel, InterleavedCoalescesContiguousDoesNot) {
  const auto dev = gs::gtx480();
  auto inter = make_batch(256, 64, td::Layout::interleaved);
  auto cont = make_batch(256, 64, td::Layout::contiguous);

  auto run = [&](td::SystemBatch<double>& b) {
    std::vector<td::SystemRef<double>> systems;
    for (std::size_t m = 0; m < b.num_systems(); ++m) {
      systems.push_back(b.system(m));
    }
    return gp::pthomas_solve<double>(dev, systems);
  };
  const auto si = run(inter);
  const auto sc = run(cont);
  // Same useful bytes, wildly different transaction counts (paper §III.B).
  EXPECT_EQ(si.forward.costs.bytes_requested, sc.forward.costs.bytes_requested);
  EXPECT_GT(sc.forward.costs.transactions, 5 * si.forward.costs.transactions);
}

TEST(PthomasKernel, XoutRedirectsSolution) {
  const auto dev = gs::gtx480();
  auto batch = make_batch(8, 33, td::Layout::interleaved);
  const auto ref = reference_solutions(batch);
  std::vector<double> x(8 * 33, 0.0);

  std::vector<td::SystemRef<double>> systems;
  std::vector<td::StridedView<double>> xout;
  for (std::size_t m = 0; m < 8; ++m) {
    systems.push_back(batch.system(m));
    xout.emplace_back(x.data() + m, std::size_t{33}, std::ptrdiff_t{8});
  }
  gp::pthomas_solve<double>(dev, systems, xout);
  for (std::size_t m = 0; m < 8; ++m) {
    for (std::size_t i = 0; i < 33; ++i) {
      EXPECT_NEAR(x[i * 8 + m], ref[m][i], 1e-9);
    }
  }
}

// Systems whose a/b/c/d strides differ make the functional path skip the
// grid-wide sweep for the per-block bodies. Their solutions must match
// the affine batch's bitwise in exact and functional mode, with and
// without xout, for the full solve and for the backward sweep alone.
TEST(PthomasKernel, MismatchedStridesMatchAffineBitwise) {
  // 150 systems: two blocks of 128 lanes, the second one ragged.
  const auto batch = make_batch(150, 37, td::Layout::interleaved);
  for (const bool backward_only : {false, true}) {
    for (const bool use_xout : {false, true}) {
      const auto ref = pthomas_run(batch, gs::InstrumentMode::exact,
                                   /*mixed=*/false, use_xout, backward_only);
      for (const auto mode : {gs::InstrumentMode::exact,
                              gs::InstrumentMode::functional_only}) {
        const double before = vector_blocks();
        const auto mixed =
            pthomas_run(batch, mode, /*mixed=*/true, use_xout, backward_only);
        EXPECT_EQ(vector_blocks(), before)
            << "mismatched strides must skip the grid-wide sweep";
        const auto affine =
            pthomas_run(batch, mode, /*mixed=*/false, use_xout, backward_only);
        if (mode == gs::InstrumentMode::functional_only) {
          EXPECT_GT(vector_blocks(), before)
              << "the affine batch must take the grid-wide sweep";
        }
        ASSERT_EQ(mixed.size(), ref.size());
        ASSERT_EQ(affine.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
          const auto want = std::bit_cast<std::uint64_t>(ref[i]);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(mixed[i]), want)
              << "mixed, mode " << gs::instrument_mode_name(mode) << ", xout "
              << use_xout << ", backward only " << backward_only << ", row "
              << i;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(affine[i]), want)
              << "affine, mode " << gs::instrument_mode_name(mode)
              << ", xout " << use_xout << ", backward only " << backward_only
              << ", row " << i;
        }
      }
    }
  }
}

class TiledPcrKernelParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned, std::size_t>> {};

TEST_P(TiledPcrKernelParam, MatchesPlainPcrBitExact) {
  const auto [n, k, c] = GetParam();
  const auto dev = gs::gtx480();
  auto batch = make_batch(3, n);
  auto plain = batch.clone();

  std::vector<gp::TiledPcrWork<double>> work;
  for (std::size_t m = 0; m < 3; ++m) {
    work.push_back({batch.system(m), batch.system(m), 0, n});
  }
  gp::TiledPcrConfig cfg;
  cfg.k = k;
  cfg.c = c;
  gp::tiled_pcr_kernel<double>(dev, work, cfg);

  for (std::size_t m = 0; m < 3; ++m) {
    td::pcr_reduce(plain.system(m), k);
  }
  for (std::size_t i = 0; i < batch.total_rows(); ++i) {
    ASSERT_EQ(batch.a()[i], plain.a()[i]) << i;
    ASSERT_EQ(batch.b()[i], plain.b()[i]) << i;
    ASSERT_EQ(batch.c()[i], plain.c()[i]) << i;
    ASSERT_EQ(batch.d()[i], plain.d()[i]) << i;
  }
}

using TiledShape = std::tuple<std::size_t, unsigned, std::size_t>;
INSTANTIATE_TEST_SUITE_P(Shapes, TiledPcrKernelParam,
                         ::testing::Values(TiledShape{64, 2, 1},
                                           TiledShape{64, 3, 2},
                                           TiledShape{100, 2, 1},
                                           TiledShape{256, 5, 1},
                                           TiledShape{256, 6, 1},
                                           TiledShape{1000, 4, 2},
                                           TiledShape{31, 3, 1},
                                           TiledShape{513, 8, 1}));

TEST(TiledPcrKernel, ZeroRedundantLoadsWholeSystem) {
  const auto dev = gs::gtx480();
  const std::size_t n = 2048;
  auto batch = make_batch(2, n);
  std::vector<gp::TiledPcrWork<double>> work;
  for (std::size_t m = 0; m < 2; ++m) {
    work.push_back({batch.system(m), batch.system(m), 0, n});
  }
  gp::TiledPcrConfig cfg;
  cfg.k = 6;
  const auto stats = gp::tiled_pcr_kernel<double>(dev, work, cfg);
  EXPECT_EQ(stats.row_loads, 2 * n);
  EXPECT_EQ(stats.redundant_loads(), 0u);
  EXPECT_EQ(stats.eliminations, 6u * 2u * n);
}

TEST(TiledPcrKernel, SplitSystemPaysHaloLoads) {
  const auto dev = gs::gtx480();
  const std::size_t n = 4096;
  auto batch = make_batch(1, n);
  td::SystemBatch<double> out(1, n, td::Layout::contiguous);
  const std::size_t regions = 4;
  std::vector<gp::TiledPcrWork<double>> work;
  for (std::size_t r = 0; r < regions; ++r) {
    work.push_back({batch.system(0), out.system(0), r * (n / regions),
                    (r + 1) * (n / regions)});
  }
  gp::TiledPcrConfig cfg;
  cfg.k = 5;
  const auto stats = gp::tiled_pcr_kernel<double>(dev, work, cfg);
  // Interior regions warm up over real rows: redundant loads > 0 but
  // bounded by regions * warm-up window.
  EXPECT_GT(stats.redundant_loads(), 0u);
  EXPECT_LE(stats.redundant_loads(), regions * 2 * (cfg.c << cfg.k));

  // And the values still match plain PCR.
  auto plain = batch.clone();
  td::pcr_reduce(plain.system(0), 5);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out.d()[i], plain.d()[i]) << i;
    ASSERT_EQ(out.b()[i], plain.b()[i]) << i;
  }
}

TEST(TiledPcrKernel, MultiWindowBlocksMatchToo) {
  const auto dev = gs::gtx480();
  const std::size_t n = 300;
  auto batch = make_batch(8, n);
  auto plain = batch.clone();
  std::vector<gp::TiledPcrWork<double>> work;
  for (std::size_t m = 0; m < 8; ++m) {
    work.push_back({batch.system(m), batch.system(m), 0, n});
  }
  gp::TiledPcrConfig cfg;
  cfg.k = 4;
  cfg.systems_per_block = 3;  // Fig. 11(c)
  const auto stats = gp::tiled_pcr_kernel<double>(dev, work, cfg);
  EXPECT_EQ(stats.launch.config.grid_blocks, 3u);  // ceil(8/3)

  for (std::size_t m = 0; m < 8; ++m) td::pcr_reduce(plain.system(m), 4);
  for (std::size_t i = 0; i < batch.total_rows(); ++i) {
    ASSERT_EQ(batch.d()[i], plain.d()[i]) << i;
  }
}

TEST(TiledPcrKernel, MultiplexedWindowsReduceRounds) {
  // Fig. 11(c)'s point: G windows per block issue G x the loads per round,
  // so the same work takes ~G x fewer serialized rounds.
  const auto dev = gs::gtx480();
  const std::size_t n = 1024;
  auto b1 = make_batch(8, n);
  auto b4 = make_batch(8, n);
  auto run = [&](td::SystemBatch<double>& b, std::size_t g) {
    std::vector<gp::TiledPcrWork<double>> work;
    for (std::size_t m = 0; m < 8; ++m) {
      work.push_back({b.system(m), b.system(m), 0, n});
    }
    gp::TiledPcrConfig cfg;
    cfg.k = 5;
    cfg.systems_per_block = g;
    return gp::tiled_pcr_kernel<double>(dev, work, cfg);
  };
  const auto s1 = run(b1, 1);
  const auto s4 = run(b4, 4);
  const double rounds_per_warp_1 =
      static_cast<double>(s1.launch.costs.rounds_total) / s1.launch.costs.warps;
  const double rounds_per_warp_4 =
      static_cast<double>(s4.launch.costs.rounds_total) / s4.launch.costs.warps;
  // Same rounds per warp per iteration, but 4x fewer warps for the same
  // total loads -> fewer rounds in total per unit of work.
  EXPECT_EQ(s1.launch.costs.loads, s4.launch.costs.loads);
  EXPECT_LT(s4.launch.costs.warps, s1.launch.costs.warps);
  EXPECT_NEAR(rounds_per_warp_4, rounds_per_warp_1, rounds_per_warp_1 * 0.05);
}

TEST(TiledPcrKernel, SharedFootprintMatchesFormula) {
  const auto dev = gs::gtx480();
  const std::size_t n = 512;
  auto batch = make_batch(1, n);
  std::vector<gp::TiledPcrWork<double>> work{
      {batch.system(0), batch.system(0), 0, n}};
  gp::TiledPcrConfig cfg;
  cfg.k = 6;
  const auto stats = gp::tiled_pcr_kernel<double>(dev, work, cfg);
  EXPECT_EQ(stats.launch.costs.shared_peak_bytes,
            gp::tiled_pcr_window_shared_bytes(6, 1, sizeof(double)));
  // Table I bound: cache 3*f(k) + sub-tile S rows of 4 doubles.
  const std::size_t table1_bound =
      (3 * td::pcr_halo(6) + (std::size_t{1} << 6) + 64) * 4 * sizeof(double);
  EXPECT_LE(stats.launch.costs.shared_peak_bytes, table1_bound);
}

TEST(TiledPcrKernel, FusedForwardProducesThomasState) {
  const auto dev = gs::gtx480();
  const std::size_t n = 256;
  const unsigned k = 4;
  auto fused = make_batch(2, n);
  auto ref = fused.clone();

  std::vector<gp::TiledPcrWork<double>> work;
  for (std::size_t m = 0; m < 2; ++m) {
    work.push_back({fused.system(m), fused.system(m), 0, n});
  }
  gp::TiledPcrConfig cfg;
  cfg.k = k;
  cfg.fuse_thomas_forward = true;
  gp::tiled_pcr_kernel<double>(dev, work, cfg);

  // Reference: plain PCR, then Thomas forward on each reduced system.
  for (std::size_t m = 0; m < 2; ++m) {
    auto sys = ref.system(m);
    td::pcr_reduce(sys, k);
    const std::size_t stride = std::size_t{1} << k;
    for (std::size_t r = 0; r < stride; ++r) {
      double cp = 0.0, dp = 0.0;
      for (std::size_t i = r; i < n; i += stride) {
        const double denom = sys.b[i] - cp * sys.a[i];
        const double inv = 1.0 / denom;
        cp = sys.c[i] * inv;
        dp = (sys.d[i] - dp * sys.a[i]) * inv;
        sys.c[i] = cp;
        sys.d[i] = dp;
      }
    }
  }
  for (std::size_t i = 0; i < fused.total_rows(); ++i) {
    ASSERT_EQ(fused.c()[i], ref.c()[i]) << i;
    ASSERT_EQ(fused.d()[i], ref.d()[i]) << i;
  }
}

TEST(TiledPcrKernel, RejectsBadConfigs) {
  const auto dev = gs::gtx480();
  auto batch = make_batch(1, 64);
  std::vector<gp::TiledPcrWork<double>> whole{
      {batch.system(0), batch.system(0), 0, 64}};
  gp::TiledPcrConfig cfg;
  cfg.k = 0;
  EXPECT_THROW(gp::tiled_pcr_kernel<double>(dev, whole, cfg),
               std::invalid_argument);
  cfg.k = 11;  // 2048 threads > block limit
  EXPECT_THROW(gp::tiled_pcr_kernel<double>(dev, whole, cfg),
               std::invalid_argument);

  // In-place split windows are a halo data race.
  std::vector<gp::TiledPcrWork<double>> split{
      {batch.system(0), batch.system(0), 0, 32},
      {batch.system(0), batch.system(0), 32, 64}};
  cfg.k = 3;
  EXPECT_THROW(gp::tiled_pcr_kernel<double>(dev, split, cfg),
               std::invalid_argument);
}

TEST(ZhangKernel, SolvesSmallSystems) {
  const auto dev = gs::gtx480();
  auto batch = make_batch(16, 500);
  const auto ref = reference_solutions(batch);
  gp::zhang_solve<double>(dev, batch);
  expect_batch_solved(batch, ref);
}

TEST(ZhangKernel, RejectsOversizedSystems) {
  const auto dev = gs::gtx480();
  EXPECT_EQ(gp::zhang_max_rows(dev, sizeof(double)), 1536u);
  auto batch = make_batch(1, 2000);
  EXPECT_THROW(gp::zhang_solve<double>(dev, batch), std::invalid_argument);
}

TEST(CrKernel, SolvesVariousSizes) {
  const auto dev = gs::gtx480();
  for (std::size_t n : {1u, 2u, 16u, 100u, 512u, 1000u}) {
    auto batch = make_batch(4, n, td::Layout::contiguous, n);
    const auto ref = reference_solutions(batch);
    gp::cr_kernel_solve<double>(dev, batch);
    expect_batch_solved(batch, ref, 1e-8);
  }
}

TEST(DavidsonSolver, SolvesLargeSystemWithGlobalSteps) {
  const auto dev = gs::gtx480();
  const std::size_t n = 8192;
  auto batch = make_batch(2, n);
  const auto ref = reference_solutions(batch);
  const auto report = gp::davidson_solve<double>(dev, batch);
  EXPECT_EQ(report.global_steps, 3u);  // 8192 -> 1024 rows per subsystem
  // One launch per global step + the final kernel.
  EXPECT_EQ(report.timeline.segments().size(), 4u);
  expect_batch_solved(batch, ref, 1e-8);
}

TEST(DavidsonSolver, SmallSystemSkipsGlobalSteps) {
  const auto dev = gs::gtx480();
  auto batch = make_batch(8, 512);
  const auto ref = reference_solutions(batch);
  const auto report = gp::davidson_solve<double>(dev, batch);
  EXPECT_EQ(report.global_steps, 0u);
  expect_batch_solved(batch, ref, 1e-9);
}

TEST(DavidsonSolver, PaysLaunchOverheadPerStep) {
  const auto dev = gs::gtx480();
  auto batch = make_batch(1, 1 << 15);  // 32768 -> 5 global steps
  const auto report = gp::davidson_solve<double>(dev, batch);
  EXPECT_EQ(report.global_steps, 5u);
  double overhead = 0.0;
  for (const auto& seg : report.timeline.segments()) {
    overhead += seg.stats.timing.overhead_us;
  }
  EXPECT_GE(overhead, 6.0 * dev.kernel_launch_overhead_us * 0.99);
}

// The in-shared solvers run the host's recurrences: K PCR steps (Eqs.
// 5-6) at strides 1, 2, ..., 2^(K-1), then Thomas on each of the 2^K
// stride-2^K subsystems. Their solutions must equal host pcr_reduce(K)
// followed by thomas_solve on each subsystem bit for bit, where K counts
// Davidson's global steps plus the in-shared steps (128 threads: one
// step per doubling until one subsystem per thread or per row).
template <typename T>
class InSharedBitExact : public ::testing::Test {
 protected:
  static td::SystemBatch<T> batch(std::size_t m, std::size_t n) {
    return wl::make_batch<T>(wl::Kind::random_dominant, m, n,
                             td::Layout::contiguous, 11 + n);
  }

  /// Host reference: the solution lands in each system's d.
  static void host_pcr_then_thomas(td::SystemBatch<T>& b, unsigned depth) {
    const std::size_t n = b.system_size();
    const std::size_t split = std::size_t{1} << depth;
    std::vector<T> cprime(n);
    for (std::size_t m = 0; m < b.num_systems(); ++m) {
      const td::SystemRef<T> sys = b.system(m);
      td::pcr_reduce(sys, depth);
      for (std::size_t r = 0; r < std::min(split, n); ++r) {
        const auto sub = [&](const td::StridedView<T>& v) {
          return td::StridedView<T>(v.ptr(r), (n - r + split - 1) / split,
                                    v.stride() *
                                        static_cast<std::ptrdiff_t>(split));
        };
        const td::SystemRef<T> s{sub(sys.a), sub(sys.b), sub(sys.c),
                                 sub(sys.d)};
        ASSERT_TRUE(td::thomas_solve<T>(s, s.d, std::span<T>(cprime)).ok());
      }
    }
  }

  static void expect_same_bits(const td::SystemBatch<T>& got,
                               const td::SystemBatch<T>& want,
                               const std::string& what) {
    ASSERT_EQ(got.total_rows(), want.total_rows());
    for (std::size_t i = 0; i < got.total_rows(); ++i) {
      ASSERT_EQ(std::memcmp(&got.d()[i], &want.d()[i], sizeof(T)), 0)
          << what << " row " << i << ": " << got.d()[i] << " vs "
          << want.d()[i];
    }
  }
};

using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(InSharedBitExact, Precisions);

TYPED_TEST(InSharedBitExact, ZhangEqualsHostPcrThenThomas) {
  using T = TypeParam;
  const auto dev = gs::gtx480();
  // (N, K): in-shared steps until 2^K reaches min(N, 128).
  for (const auto& [n, depth] : {std::pair<std::size_t, unsigned>{64, 6},
                                 {100, 7},
                                 {512, 7}}) {
    auto kernel = this->batch(3, n);
    auto host = kernel.clone();
    gp::zhang_solve<T>(dev, kernel);
    this->host_pcr_then_thomas(host, depth);
    this->expect_same_bits(kernel, host, "zhang N=" + std::to_string(n));
  }
}

TYPED_TEST(InSharedBitExact, DavidsonEqualsHostPcrThenThomas) {
  using T = TypeParam;
  const auto dev = gs::gtx480();
  // (N, global steps, K): 8192 needs three global steps to fit the
  // 1024-row shared tile, then seven in-shared steps.
  struct Case {
    std::size_t n;
    unsigned global_steps;
    unsigned depth;
  };
  for (const Case& c : {Case{512, 0, 7}, Case{8192, 3, 10}}) {
    auto kernel = this->batch(2, c.n);
    auto host = kernel.clone();
    const auto report = gp::davidson_solve<T>(dev, kernel);
    ASSERT_EQ(report.global_steps, c.global_steps) << "N=" << c.n;
    this->host_pcr_then_thomas(host, c.depth);
    this->expect_same_bits(kernel, host, "davidson N=" + std::to_string(c.n));
  }
}
