// Golden simulated costs of every registry solver on a small grid of the
// paper's figure shapes (N = 512 with M = 1, 64, 1024 from Fig. 12's
// sweep, and M = 16, N = 4096). Simulated time is deterministic, so the
// comparison is exact: a refactor that claims "same numbers" must leave
// every row here unchanged, bit for bit.
//
// Each row runs run_solver in exact instrument mode on a random
// diagonally dominant batch (seed 2011) in the layout the hybrid wants
// for its shape (gpu::preferred_layout), then again in sampled mode,
// which records one block per cost class and must reproduce every row.
// Unsupported rows pin the in-shared solvers' size cap.
//
// To re-record after a deliberate cost-model change, print each row's
// outcome with "%.17g" (which round-trips a double) and explain the move
// in CHANGES.md.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "gpu_solvers/plan_cache.hpp"
#include "gpu_solvers/registry.hpp"
#include "gpu_solvers/transition.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/exec_engine.hpp"
#include "workloads/generators.hpp"

namespace gs = tridsolve::gpusim;
namespace gp = tridsolve::gpu;
namespace wl = tridsolve::workloads;

namespace {

struct GoldenRow {
  gp::SolverKind kind;
  std::size_t m;
  std::size_t n;
  bool supported;
  double time_us;
  std::size_t launches;
  int k;
};

constexpr GoldenRow kGolden[] = {
    {gp::SolverKind::hybrid, 1, 512, true, 59.387580299785867, 3, 8},
    {gp::SolverKind::hybrid_fused, 1, 512, true, 53.81013561741613, 2, 8},
    {gp::SolverKind::pthomas_only, 1, 512, true, 121.63597430406853, 2, 0},
    {gp::SolverKind::zhang, 1, 512, true, 24.478229835831549, 1, -1},
    {gp::SolverKind::cr, 1, 512, true, 11.896145610278372, 1, -1},
    {gp::SolverKind::davidson, 1, 512, true, 24.478229835831549, 1, -1},
    {gp::SolverKind::partition, 1, 512, true, 36.035688793718776, 3, -1},
    {gp::SolverKind::hybrid, 64, 512, true, 120.8699061308278, 3, 6},
    {gp::SolverKind::hybrid_fused, 64, 512, true, 111.46114061974845, 2, 6},
    {gp::SolverKind::pthomas_only, 64, 512, true, 263.49518512706743, 2, 0},
    {gp::SolverKind::zhang, 64, 512, true, 84.840447299547932, 1, -1},
    {gp::SolverKind::cr, 64, 512, true, 31.156887937187726, 1, -1},
    {gp::SolverKind::davidson, 64, 512, true, 84.840447299547932, 1, -1},
    {gp::SolverKind::partition, 64, 512, true, 106.8696040542255, 3, -1},
    {gp::SolverKind::hybrid, 1024, 512, true, 450.5438972162741, 2, 0},
    {gp::SolverKind::hybrid_fused, 1024, 512, true, 450.5438972162741, 2, 0},
    {gp::SolverKind::pthomas_only, 1024, 512, true, 450.5438972162741, 2, 0},
    {gp::SolverKind::zhang, 1024, 512, true, 1897.4561443066516, 1, -1},
    {gp::SolverKind::cr, 1024, 512, true, 1897.4561443066516, 1, -1},
    {gp::SolverKind::davidson, 1024, 512, true, 1897.4561443066516, 1, -1},
    {gp::SolverKind::partition, 1024, 512, true, 2799.7704622322435, 3, -1},
    {gp::SolverKind::hybrid, 16, 4096, true, 242.49366711542541, 3, 7},
    {gp::SolverKind::hybrid_fused, 16, 4096, true, 200.65914822745654, 2, 7},
    {gp::SolverKind::pthomas_only, 16, 4096, true, 889.08779443254821, 2, 0},
    {gp::SolverKind::zhang, 16, 4096, false, 0, 0, -1},
    {gp::SolverKind::cr, 16, 4096, false, 0, 0, -1},
    {gp::SolverKind::davidson, 16, 4096, true, 244.76906610701917, 3, -1},
    {gp::SolverKind::partition, 16, 4096, true, 223.54878500110379, 3, -1},
};

}  // namespace

TEST(PaperClaims, GoldenSimulatedCostsEveryKind) {
  gp::PlanCache::instance().clear();  // plans come from the heuristic
  for (const auto mode :
       {gs::InstrumentMode::exact, gs::InstrumentMode::sampled}) {
    gp::SolverRunOptions opts;
    opts.instrument = mode;
    for (const GoldenRow& row : kGolden) {
      SCOPED_TRACE(std::string(gp::solver_name(row.kind)) +
                   " M=" + std::to_string(row.m) +
                   " N=" + std::to_string(row.n) + " " +
                   gs::instrument_mode_name(mode));
      const auto batch = wl::make_batch<double>(
          wl::Kind::random_dominant, row.m, row.n,
          gp::preferred_layout(row.m, row.n), /*seed=*/2011);
      const gp::SolveOutcome out =
          gp::run_solver<double>(row.kind, gs::gtx480(), batch, opts);
      EXPECT_EQ(out.supported, row.supported);
      EXPECT_EQ(out.time_us, row.time_us);
      EXPECT_EQ(out.launches, row.launches);
      EXPECT_EQ(out.k, row.k);
    }
  }
}
