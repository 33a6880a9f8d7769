// ADI integrator (apps library) tests: agreement with a host reference
// implementation, timeline structure, and physical sanity (decay,
// symmetry preservation).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <numbers>
#include <string>
#include <vector>

#include "apps/adi.hpp"
#include "cpu_baselines/mkl_like.hpp"
#include "gpu_solvers/hybrid_solver.hpp"
#include "gpusim/device_spec.hpp"

namespace apps = tridsolve::apps;
namespace td = tridsolve::tridiag;
namespace cb = tridsolve::cpu;
namespace gp = tridsolve::gpu;
namespace gs = tridsolve::gpusim;

namespace {

std::vector<double> sine_mode(std::size_t nx, std::size_t ny) {
  std::vector<double> u(nx * ny);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      u[iy * nx + ix] =
          std::sin(std::numbers::pi * double(ix + 1) / double(nx + 1)) *
          std::sin(std::numbers::pi * double(iy + 1) / double(ny + 1));
    }
  }
  return u;
}

/// Reference ADI step on the host: batched CPU gtsv solves + host
/// transposition, same Peaceman-Rachford splitting.
void reference_step(std::vector<double>& u, std::size_t nx, std::size_t ny,
                    double r) {
  auto sweep = [&](std::vector<double>& field, std::size_t lines,
                   std::size_t len) {
    td::SystemBatch<double> batch(lines, len, td::Layout::contiguous);
    for (std::size_t m = 0; m < lines; ++m) {
      auto sys = batch.system(m);
      for (std::size_t i = 0; i < len; ++i) {
        sys.a[i] = i == 0 ? 0.0 : -r;
        sys.b[i] = 1.0 + 2.0 * r;
        sys.c[i] = i + 1 == len ? 0.0 : -r;
        const double u_c = field[m * len + i];
        const double u_lo = m > 0 ? field[(m - 1) * len + i] : 0.0;
        const double u_hi = m + 1 < lines ? field[(m + 1) * len + i] : 0.0;
        sys.d[i] = u_c + r * (u_lo - 2.0 * u_c + u_hi);
      }
    }
    cb::solve_batch(batch);
    for (std::size_t m = 0; m < lines; ++m) {
      for (std::size_t i = 0; i < len; ++i) {
        field[m * len + i] = batch.d()[batch.index(m, i)];
      }
    }
  };
  auto transpose = [&](const std::vector<double>& in, std::size_t rows,
                       std::size_t cols) {
    std::vector<double> out(in.size());
    for (std::size_t rr = 0; rr < rows; ++rr) {
      for (std::size_t cc = 0; cc < cols; ++cc) {
        out[cc * rows + rr] = in[rr * cols + cc];
      }
    }
    return out;
  };

  sweep(u, ny, nx);
  auto t = transpose(u, ny, nx);
  sweep(t, nx, ny);
  u = transpose(t, nx, ny);
}

/// Segment labels of a step's timeline, in order.
std::vector<std::string> labels_of(const apps::AdiStepReport& rep) {
  std::vector<std::string> out;
  for (const auto& seg : rep.timeline.segments()) out.push_back(seg.label);
  return out;
}

/// 64-bit FNV-1a over the field's bytes: one number that pins every bit.
std::uint64_t field_digest(const std::vector<double>& u) {
  std::uint64_t h = 1469598103934665603ull;
  std::vector<unsigned char> bytes(u.size() * sizeof(double));
  std::memcpy(bytes.data(), u.data(), bytes.size());
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

TEST(AdiIntegrator, MatchesHostReference) {
  const std::size_t nx = 48, ny = 32;
  apps::AdiOptions opts;
  opts.r = 0.35;
  apps::AdiIntegrator<double> adi(gs::gtx480(), nx, ny, opts);

  auto u_gpu = sine_mode(nx, ny);
  auto u_ref = u_gpu;
  for (int s = 0; s < 3; ++s) {
    adi.step(u_gpu);
    reference_step(u_ref, nx, ny, opts.r);
  }
  for (std::size_t i = 0; i < u_gpu.size(); ++i) {
    ASSERT_NEAR(u_gpu[i], u_ref[i], 1e-11) << i;
  }
}

TEST(AdiIntegrator, TimelineHasSolvesAndTransposes) {
  apps::AdiIntegrator<double> adi(gs::gtx480(), 64, 64, {});
  auto u = sine_mode(64, 64);
  const auto rep = adi.step(u);
  EXPECT_GT(rep.solve_us(), 0.0);
  EXPECT_GT(rep.transpose_us(), 0.0);
  EXPECT_NEAR(rep.solve_us() + rep.transpose_us(), rep.total_us(), 1e-9);
  EXPECT_GE(rep.timeline.segments().size(), 4u);
}

TEST(AdiIntegrator, SineModeDecaysMonotonically) {
  apps::AdiIntegrator<double> adi(gs::gtx480(), 32, 32, {});
  auto u = sine_mode(32, 32);
  double prev = 1.0;
  for (int s = 0; s < 5; ++s) {
    adi.step(u);
    double peak = 0.0;
    for (double v : u) peak = std::max(peak, std::abs(v));
    EXPECT_LT(peak, prev);
    prev = peak;
  }
}

TEST(AdiIntegrator, PreservesXYSymmetryOnSquareGrid) {
  // A symmetric initial condition on a square grid must stay symmetric
  // under the full ADI double-sweep.
  const std::size_t n = 24;
  apps::AdiIntegrator<double> adi(gs::gtx480(), n, n, {});
  auto u = sine_mode(n, n);
  adi.step(u);
  adi.step(u);
  for (std::size_t iy = 0; iy < n; ++iy) {
    for (std::size_t ix = 0; ix < n; ++ix) {
      ASSERT_NEAR(u[iy * n + ix], u[ix * n + iy], 1e-12);
    }
  }
}

TEST(AdiIntegrator, RejectsBadInputs) {
  EXPECT_THROW(apps::AdiIntegrator<double>(gs::gtx480(), 0, 4, {}),
               std::invalid_argument);
  apps::AdiIntegrator<double> adi(gs::gtx480(), 8, 8, {});
  std::vector<double> wrong(7);
  EXPECT_THROW(adi.step(wrong), std::invalid_argument);
}

TEST(AdiIntegrator, FloatPath) {
  apps::AdiIntegrator<float> adi(gs::gtx480(), 16, 16, {});
  std::vector<float> u(16 * 16, 1.0f);
  const auto rep = adi.step(u);
  EXPECT_GT(rep.total_us(), 0.0);
  for (float v : u) {
    EXPECT_GT(v, 0.0f);
    EXPECT_LT(v, 1.0f);  // diffusion with zero boundaries shrinks everything
  }
}

// Exact golden over three steps, recorded at the two-path integrator:
// every segment label, the simulated time of each sweep segment, and the
// field's bits. The transposes' time_us is left out on purpose: they read
// the caller's std::vector, whose host alignment moves the simulated
// transactions (ROADMAP item 3). Builds for a target with fused
// multiply-add (release-native) contract a*b+c, so their bits get their
// own digests.
TEST(AdiIntegrator, GoldenStepsPinLabelsSweepTimesAndBits) {
  struct Golden {
    std::size_t nx, ny;
    double r;
    std::vector<double> sweep_us;  ///< sweep-* segments, timeline order
    std::vector<std::uint64_t> digests;  ///< field after steps 1, 2, 3
  };
#ifdef __FP_FAST_FMA
  const std::uint64_t digests_48x32[] = {
      0x90837c525e4c7fffull, 0x0715510abfee9986ull, 0xd611c088e7283a22ull};
  const std::uint64_t digests_64x64[] = {
      0xeebc0eea6a328bc1ull, 0x90881eefc39ca3faull, 0x674e88c15760150dull};
#else
  const std::uint64_t digests_48x32[] = {
      0xe5a47507a604d0fbull, 0x38e09ae15b246abaull, 0x98cbbd2908cd7632ull};
  const std::uint64_t digests_64x64[] = {
      0x97d3d91296b5ec4cull, 0xa2728672aedf8939ull, 0x10aad4e86681d8a1ull};
#endif
  const std::vector<std::string> labels{
      "sweep-x:pcr", "sweep-x:thomas-fwd", "sweep-x:thomas-bwd",
      "transpose:fwd", "sweep-y:pcr", "sweep-y:thomas-fwd",
      "sweep-y:thomas-bwd", "transpose:back"};
  const Golden goldens[] = {
      {48, 32, 0.35,
       {0x1.74dfff9c34f76p+3, 0x1.d23a1b68b3cd9p+2, 0x1.d23a1b68b3cd9p+2,
        0x1.99848cc5c8864p+3, 0x1.b6d1679b22891p+2, 0x1.b6d1679b22891p+2},
       {std::begin(digests_48x32), std::end(digests_48x32)}},
      {64, 64, apps::AdiOptions{}.r,
       {0x1.771bdc168f869p+4, 0x1.c6edfa9ec8932p+2, 0x1.b6d1679b22891p+2,
        0x1.771bdc168f869p+4, 0x1.c6edfa9ec8932p+2, 0x1.b6d1679b22891p+2},
       {std::begin(digests_64x64), std::end(digests_64x64)}},
  };
  for (const Golden& g : goldens) {
    apps::AdiOptions opts;
    opts.r = g.r;
    apps::AdiIntegrator<double> adi(gs::gtx480(), g.nx, g.ny, opts);
    auto u = sine_mode(g.nx, g.ny);
    for (std::size_t step = 0; step < g.digests.size(); ++step) {
      const auto rep = adi.step(u);
      const std::string where = std::to_string(g.nx) + "x" +
                                std::to_string(g.ny) + " step " +
                                std::to_string(step + 1);
      std::vector<std::string> got_labels;
      std::vector<double> got_sweep_us;
      for (const auto& seg : rep.timeline.segments()) {
        got_labels.push_back(seg.label);
        if (seg.label.rfind("sweep-", 0) == 0) {
          got_sweep_us.push_back(seg.stats.timing.time_us);
        }
      }
      EXPECT_EQ(got_labels, labels) << where;
      EXPECT_EQ(got_sweep_us, g.sweep_us) << where;
      EXPECT_EQ(field_digest(u), g.digests[step]) << where;
    }
  }
}

// ny >= 1024 rows: Table III plans the x-sweep k = 0, which pairs with the
// interleaved layout, so the sweep transposes the rows into it and runs
// p-Thomas coalesced there instead of on contiguous rows.
TEST(AdiIntegrator, WideXSweepRunsPThomasOnInterleavedRows) {
  const std::size_t nx = 16, ny = 1024;
  const apps::AdiOptions opts;
  apps::AdiIntegrator<double> adi(gs::gtx480(), nx, ny, opts);
  auto u = sine_mode(nx, ny);
  auto u_ref = u;
  const auto rep = adi.step(u);
  reference_step(u_ref, nx, ny, opts.r);

  EXPECT_EQ(rep.x_k, 0u);
  const auto labels = labels_of(rep);
  ASSERT_GE(labels.size(), 4u);
  const std::vector<std::string> x_route(labels.begin(), labels.begin() + 4);
  EXPECT_EQ(x_route,
            (std::vector<std::string>{"transpose:fwd", "sweep-x:thomas-fwd",
                                      "sweep-x:thomas-bwd", "transpose:back"}));

  // The x-sweep's solve costs what an interleaved 1024 x 16 batch costs.
  td::SystemBatch<double> batch(ny, nx, td::Layout::interleaved);
  for (std::size_t m = 0; m < ny; ++m) {
    auto sys = batch.system(m);
    for (std::size_t i = 0; i < nx; ++i) {
      sys.a[i] = i == 0 ? 0.0 : -opts.r;
      sys.b[i] = 1.0 + 2.0 * opts.r;
      sys.c[i] = i + 1 == nx ? 0.0 : -opts.r;
      sys.d[i] = 1.0;
    }
  }
  const auto direct = gp::hybrid_solve(gs::gtx480(), batch, {});
  EXPECT_EQ(direct.k, 0u);
  EXPECT_EQ(rep.timeline.time_with_prefix("sweep-x:"), direct.total_us());

  for (std::size_t i = 0; i < u.size(); ++i) {
    ASSERT_NEAR(u[i], u_ref[i], 1e-11) << i;
  }
}

// More than one p-Thomas block of y columns (nx = 160 > 128) with
// 2 nx >= ny: the y-sweep plans k = 0 for the interleaved columns and
// solves them where they lie in the field, so the step runs no transpose.
TEST(AdiIntegrator, InPlaceYSweepRunsNoTransposeAndMatchesHostReference) {
  const std::size_t nx = 160, ny = 64;
  apps::AdiOptions opts;
  opts.r = 0.35;
  apps::AdiIntegrator<double> adi(gs::gtx480(), nx, ny, opts);
  auto u_gpu = sine_mode(nx, ny);
  auto u_ref = u_gpu;
  for (int s = 0; s < 3; ++s) {
    const auto rep = adi.step(u_gpu);
    reference_step(u_ref, nx, ny, opts.r);
    EXPECT_EQ(rep.y_k, 0u);
    for (const auto& label : labels_of(rep)) {
      EXPECT_EQ(label.rfind("transpose", 0), std::string::npos) << label;
    }
  }
  for (std::size_t i = 0; i < u_gpu.size(); ++i) {
    ASSERT_NEAR(u_gpu[i], u_ref[i], 1e-11) << i;
  }
}

// Exact golden of the in-place route over three steps, in the style of
// GoldenStepsPinLabelsSweepTimesAndBits: every segment label, each sweep
// segment's simulated time, and the field's bits (with and without fused
// multiply-add).
TEST(AdiIntegrator, GoldenInPlaceStepsPinLabelsSweepTimesAndBits) {
#ifdef __FP_FAST_FMA
  const std::vector<std::uint64_t> digests{
      0x5a1b6c4f0aa3124full, 0x1e27b5ceb9e891adull, 0x1c78eeb1e24e8f50ull};
#else
  const std::vector<std::uint64_t> digests{
      0x556d0d651b9f2c97ull, 0x399cb0de7afdfe30ull, 0x85707db375f7010eull};
#endif
  const std::vector<std::string> labels{
      "sweep-x:pcr", "sweep-x:thomas-fwd", "sweep-x:thomas-bwd",
      "sweep-y:thomas-fwd", "sweep-y:thomas-bwd"};
  const std::vector<double> sweep_us{
      0x1.97693d04bd1c2p+5, 0x1.18a979467ab7ep+3, 0x1.ccd724d6ae9f6p+2,
      0x1.72170607acad4p+4, 0x1.72170607acad4p+4};
  const std::size_t nx = 160, ny = 64;
  apps::AdiIntegrator<double> adi(gs::gtx480(), nx, ny, {});
  auto u = sine_mode(nx, ny);
  for (std::size_t step = 0; step < digests.size(); ++step) {
    const auto rep = adi.step(u);
    const std::string where = "step " + std::to_string(step + 1);
    std::vector<double> got_sweep_us;
    for (const auto& seg : rep.timeline.segments()) {
      got_sweep_us.push_back(seg.stats.timing.time_us);
    }
    EXPECT_EQ(labels_of(rep), labels) << where;
    EXPECT_EQ(got_sweep_us, sweep_us) << where;
    EXPECT_EQ(field_digest(u), digests[step]) << where;
  }
}
