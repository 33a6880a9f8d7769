// Planning + calibration table + autotuner contracts (see plan_cache.hpp):
//  * calibration-file solves are bitwise-identical to heuristic solves
//    of the same plan, with identical simulated time;
//  * the resilient pipeline runs the full batch's whole calibrated plan
//    (k, variant, c, geometry) and reports its source;
//  * out-of-range forced k is a structured bad-argument rejection at
//    every layer (plan_hybrid throw, run_solver outcome, resilient
//    degradation) instead of reaching the kernels;
//  * calibration entries are shape-checked on load, and apply only to a
//    batch in the layout the autotuner measured them in;
//  * the autotuner's incumbent is Table III, calibration loaded or not;
//  * planning properties over adversarial shapes (non-power-of-two N,
//    N in {1, 2}, M = 0, huge M).

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gpu_solvers/autotune.hpp"
#include "gpu_solvers/hybrid_solver.hpp"
#include "gpu_solvers/plan_cache.hpp"
#include "gpu_solvers/registry.hpp"
#include "gpu_solvers/transition.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/fault_injector.hpp"
#include "obs/metrics.hpp"
#include "tridiag/layout.hpp"
#include "workloads/generators.hpp"

namespace td = tridsolve::tridiag;
namespace wl = tridsolve::workloads;
namespace gp = tridsolve::gpu;
namespace gs = tridsolve::gpusim;
namespace obs = tridsolve::obs;

namespace {

double counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name);
}

td::SystemBatch<double> make_batch(std::size_t m, std::size_t n,
                                   unsigned seed = 42) {
  return wl::make_batch<double>(wl::Kind::random_dominant, m, n,
                                td::Layout::contiguous, seed);
}

/// Bitwise comparison of two solved batches' solution arrays.
bool bitwise_equal(const td::SystemBatch<double>& a,
                   const td::SystemBatch<double>& b) {
  if (a.d().size() != b.d().size()) return false;
  return std::memcmp(a.d().data(), b.d().data(),
                     a.d().size() * sizeof(double)) == 0;
}

/// Write a one-entry calibration file pinning `plan` for the (m, n)
/// double batch on `dev`; returns its path.
std::string write_calibration(const std::string& name,
                              const gs::DeviceSpec& dev, std::size_t m,
                              std::size_t n, const gp::SolvePlan& plan) {
  const std::string path = testing::TempDir() + name;
  std::ofstream f(path);
  f << "{\"schema\":\"tridsolve-plan-v1\",\"device\":\"" << dev.name
    << "\",\"fingerprint\":\"" << dev.fingerprint() << "\",\"plans\":[{"
    << "\"m\":" << m << ",\"n\":" << n << ",\"elem_size\":8,"
    << "\"k\":" << plan.k << ",\"variant\":\""
    << gp::window_variant_name(plan.variant) << "\",\"c\":" << plan.c
    << ",\"blocks_per_system\":" << plan.blocks_per_system
    << ",\"systems_per_block\":" << plan.systems_per_block
    << ",\"tuned_us\":1.0,\"heuristic_us\":1.0}]}";
  return path;
}

}  // namespace

TEST(PlanCache, CalibrationFileSolvesBitIdenticalToCold) {
  const auto dev = gs::gtx480();
  const std::size_t m = 16, n = 256;
  const auto batch = make_batch(m, n, 9);

  // Cold reference solve (and the plan it used).
  gp::PlanCache::instance().clear();
  td::SystemBatch<double> cold_sol;
  const auto cold = gp::run_solver<double>(gp::SolverKind::hybrid, dev, batch,
                                           {}, &cold_sol);
  ASSERT_TRUE(cold.supported);
  const gp::SolvePlan plan = gp::plan_hybrid(dev, m, n, sizeof(double), {});

  // A calibration file pinning exactly that plan.
  const std::string path =
      write_calibration("plan_cache_test.json", dev, m, n, plan);

  gp::PlanCache::instance().clear();
  ASSERT_EQ(gp::PlanCache::instance().load_calibration(path), 1u);
  td::SystemBatch<double> cal_sol;
  const auto cal = gp::run_solver<double>(gp::SolverKind::hybrid, dev, batch,
                                          {}, &cal_sol);
  ASSERT_TRUE(cal.supported);
  EXPECT_EQ(cal.plan_source, "calibrated");
  EXPECT_TRUE(bitwise_equal(cold_sol, cal_sol));
  EXPECT_DOUBLE_EQ(cold.time_us, cal.time_us);
  gp::PlanCache::instance().clear();
}

TEST(PlanCache, ResilientPipelineRunsTheWholeCalibratedPlan) {
  // A calibrated plan whose variant and sub-tile differ from what the
  // heuristic picks at its k: the resilient pipeline must run all of it,
  // not just its k, and say where it came from — on the whole batch, and
  // on retry chunks of 32 and 8 systems, which would plan differently on
  // their own (Table III gives 8 systems k = 8).
  const auto dev = gs::gtx480();
  const std::size_t m = 40, n = 512;
  const auto batch = make_batch(m, n, 13);
  gp::SolvePlan plan =
      gp::plan_from_request(dev, m, n, td::Layout::contiguous, {});
  ASSERT_EQ(plan.variant, gp::WindowVariant::one_block_per_system);
  plan.variant = gp::WindowVariant::multi_system_per_block;
  plan.systems_per_block = 4;
  plan.c = 2;

  gp::PlanCache::instance().clear();
  ASSERT_EQ(gp::PlanCache::instance().load_calibration(write_calibration(
                "plan_cache_resilient.json", dev, m, n, plan)),
            1u);
  td::SystemBatch<double> direct_sol;
  const auto direct = gp::run_solver<double>(gp::SolverKind::hybrid, dev,
                                             batch, {}, &direct_sol);
  td::SystemBatch<double> resilient_sol = batch.clone();
  const auto resilient = gp::run_solver_resilient<double>(
      gp::SolverKind::hybrid, dev, resilient_sol);
  // A failed first launch sends every system to the chunked retries.
  td::SystemBatch<double> retried_sol = batch.clone();
  gp::ResilientOutcome retried;
  {
    gs::FaultPlan fault;
    fault.pinpoint = true;
    fault.at_launch = 0;
    fault.pinpoint_kind = gs::kFaultLaunchFail;
    const gs::ScopedFaultPlan scoped(fault);
    retried = gp::run_solver_resilient<double>(gp::SolverKind::hybrid, dev,
                                               retried_sol);
  }
  gp::PlanCache::instance().clear();

  ASSERT_TRUE(direct.supported);
  ASSERT_TRUE(resilient.outcome.supported);
  EXPECT_EQ(direct.plan_source, "calibrated");
  EXPECT_EQ(resilient.outcome.plan_source, "calibrated");
  EXPECT_EQ(resilient.outcome.k, static_cast<int>(plan.k));
  EXPECT_EQ(resilient.report.attempts.size(), 1u);
  EXPECT_DOUBLE_EQ(resilient.outcome.time_us, direct.time_us);
  EXPECT_TRUE(bitwise_equal(resilient_sol, direct_sol));

  ASSERT_EQ(retried.report.attempts.size(), 3u) << "failed launch + 2 chunks";
  EXPECT_EQ(retried.report.worst, td::SolveCode::ok);
  EXPECT_EQ(retried.outcome.plan_source, "calibrated");
  EXPECT_TRUE(bitwise_equal(retried_sol, direct_sol));
  for (std::size_t i = 1; i < 3; ++i) {
    const auto& chunk = retried.report.attempts[i];
    auto fresh = make_batch(chunk.systems, n);
    EXPECT_DOUBLE_EQ(chunk.time_us,
                     gp::hybrid_solve<double>(dev, fresh, {}, plan).total_us())
        << "a " << chunk.systems << "-system retry chunk ran its own plan";
  }
}

TEST(PlanCache, CalibrationAppliesOnlyInTheLayoutItWasMeasuredIn) {
  // autotune_cell measures a 384 x 384 entry in preferred_layout, which is
  // contiguous there (Table III k = 6). A contiguous batch runs the entry;
  // an interleaved batch plans k = 0 by the layout rule instead.
  const auto dev = gs::gtx480();
  const std::size_t m = 384, n = 384;
  ASSERT_EQ(gp::preferred_layout(m, n), td::Layout::contiguous);
  gp::HybridOptions forced;
  forced.force_k = 4;
  const gp::SolvePlan entry = gp::plan_hybrid(dev, m, n, sizeof(double), forced);

  gp::PlanCache::instance().clear();
  ASSERT_EQ(gp::PlanCache::instance().load_calibration(write_calibration(
                "plan_cache_layout.json", dev, m, n, entry)),
            1u);
  gp::SolverRunOptions functional;
  functional.instrument = gs::InstrumentMode::functional_only;
  const auto rows = make_batch(m, n, 5);
  const auto on_rows =
      gp::run_solver<double>(gp::SolverKind::hybrid, dev, rows, functional);
  const auto on_columns = gp::run_solver<double>(
      gp::SolverKind::hybrid, dev,
      td::convert_layout(rows, td::Layout::interleaved), functional);
  gp::PlanCache::instance().clear();

  ASSERT_TRUE(on_rows.solved) << on_rows.detail;
  EXPECT_EQ(on_rows.plan_source, "calibrated");
  EXPECT_EQ(on_rows.k, 4);
  ASSERT_TRUE(on_columns.solved) << on_columns.detail;
  EXPECT_EQ(on_columns.plan_source, "heuristic");
  EXPECT_EQ(on_columns.k, 0);
}

TEST(PlanCache, OutOfRangeForcedKIsStructuredRejection) {
  const auto dev = gs::gtx480();
  // Layer 1: plan_hybrid throws invalid_argument.
  gp::HybridOptions opts;
  opts.force_k = 9;  // 512 > N = 64
  EXPECT_THROW((void)gp::plan_hybrid(dev, 4, 64, sizeof(double), opts),
               std::invalid_argument);
  opts.force_k = 17;  // over the kernel cap
  EXPECT_THROW((void)gp::plan_hybrid(dev, 4, 1 << 20, sizeof(double), opts),
               std::invalid_argument);
  opts.force_k = 0;  // k = 0 is always legal (pure p-Thomas)
  EXPECT_EQ(gp::plan_hybrid(dev, 4, 64, sizeof(double), opts).k, 0u);

  // Layer 2: run_solver reports supported = false + bad_argument = true
  // (never an exception, never bad_size — the shape itself is fine).
  const auto batch = make_batch(4, 64);
  gp::SolverRunOptions run;
  run.force_k = 9;
  const auto out = gp::run_solver<double>(gp::SolverKind::hybrid, dev, batch,
                                          run);
  EXPECT_FALSE(out.supported);
  EXPECT_TRUE(out.bad_argument);
  EXPECT_FALSE(out.launch_failed) << "bad argument is not retryable";
  EXPECT_FALSE(out.detail.empty());

  // Layer 3: the resilient pipeline records the bad_argument attempt and
  // degrades down the fallback chain to a full recovery.
  auto work = batch.clone();
  const auto ro = gp::run_solver_resilient<double>(gp::SolverKind::hybrid, dev,
                                                   work, run);
  EXPECT_TRUE(ro.outcome.supported);
  EXPECT_FALSE(ro.report.partial) << "fallback chain must recover all systems";
  ASSERT_FALSE(ro.report.attempts.empty());
  EXPECT_EQ(ro.report.attempts.front().reason, td::SolveCode::bad_argument);
  EXPECT_GE(ro.report.fallback_stages, 1u);
}

TEST(PlanCache, CalibrationRejectsWrongSchemaAndUnfitPlans) {
  auto& cache = gp::PlanCache::instance();
  cache.clear();
  const auto dev = gs::gtx480();
  const std::string dir = testing::TempDir();

  {
    std::ofstream f(dir + "bad_schema.json");
    f << "{\"schema\":\"something-else\",\"fingerprint\":\"1\",\"plans\":[]}";
  }
  EXPECT_THROW(cache.load_calibration(dir + "bad_schema.json"),
               std::runtime_error);
  EXPECT_THROW(cache.load_calibration(dir + "does_not_exist.json"),
               std::runtime_error);

  // One fit entry, then five that cannot run: a k that cannot fit its
  // n, a sub-tile multiplier c = 0 (S = c * 2^k would divide by zero), a
  // split_system plan without its region count, and negative c and
  // region counts (which a cast would wrap into huge values). Only the
  // first loads; the other shapes solve on their heuristic plans.
  {
    std::ofstream f(dir + "mixed.json");
    f << "{\"schema\":\"tridsolve-plan-v1\",\"device\":\"" << dev.name
      << "\",\"fingerprint\":\"" << dev.fingerprint() << "\",\"plans\":["
      << "{\"m\":8,\"n\":64,\"k\":5,\"variant\":\"one_block_per_system\","
      << "\"c\":1,\"tuned_us\":1.0},"
      << "{\"m\":8,\"n\":64,\"k\":9,\"variant\":\"one_block_per_system\","
      << "\"c\":1,\"tuned_us\":1.0},"
      << "{\"m\":16,\"n\":64,\"k\":5,\"variant\":\"one_block_per_system\","
      << "\"c\":0,\"tuned_us\":1.0},"
      << "{\"m\":8,\"n\":128,\"k\":6,\"variant\":\"split_system\","
      << "\"c\":1,\"tuned_us\":1.0},"
      << "{\"m\":32,\"n\":64,\"k\":5,\"variant\":\"one_block_per_system\","
      << "\"c\":-1,\"tuned_us\":1.0},"
      << "{\"m\":4,\"n\":256,\"k\":5,\"variant\":\"split_system\","
      << "\"c\":1,\"blocks_per_system\":-1,\"tuned_us\":1.0}]}";
  }
  const double rejected0 = counter("gpu.plan_cache.rejected");
  EXPECT_EQ(cache.load_calibration(dir + "mixed.json"), 1u);
  const auto loaded = cache.find(dev, 8, 64, sizeof(double));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->k, 5u) << "the unfit k = 9 entry must not replace k = 5";
  EXPECT_EQ(counter("gpu.plan_cache.rejected") - rejected0, 5.0);
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{16, 64},
                             std::pair<std::size_t, std::size_t>{8, 128},
                             std::pair<std::size_t, std::size_t>{32, 64},
                             std::pair<std::size_t, std::size_t>{4, 256}}) {
    const auto out =
        gp::run_solver<double>(gp::SolverKind::hybrid, dev, make_batch(m, n));
    EXPECT_TRUE(out.supported) << "m=" << m << " n=" << n << ": " << out.detail;
    EXPECT_EQ(out.plan_source, "heuristic") << "m=" << m << " n=" << n;
  }
  cache.clear();
}

TEST(PlanCache, AutotunerNeverLosesToHeuristic) {
  const auto dev = gs::gtx480();
  const std::vector<std::pair<std::size_t, std::size_t>> cells{
      {1, 512}, {16, 256}, {100, 100}, {1024, 128}};
  gp::PlanCache::instance().clear();
  std::map<std::pair<std::size_t, std::size_t>, gp::AutotuneResult> tuned;
  for (const auto& [m, n] : cells) {
    const auto r = gp::autotune_cell<double>(dev, m, n);
    EXPECT_LE(r.best_us, r.heuristic_us) << "m=" << m << " n=" << n;
    EXPECT_GE(r.candidates.size(), 1u);
    EXPECT_EQ(r.best.source, gp::PlanSource::autotuned);
    EXPECT_TRUE(r.best.fits(n));
    tuned.emplace(std::pair{m, n}, r);
  }
  EXPECT_THROW(gp::autotune_cell<double>(dev, 0, 64), std::invalid_argument);

  // With the cell's own tuned plan loaded, the incumbent is still Table
  // III: a default-request solve would now take the tuned plan, the
  // autotuner's heuristic measurement must not.
  const std::size_t m = 16, n = 256;
  const gp::AutotuneResult& unloaded = tuned.at({m, n});
  ASSERT_NE(unloaded.best.k, unloaded.heuristic_k)
      << "the cell must tune away from Table III to tell the runs apart";
  ASSERT_EQ(gp::PlanCache::instance().load_calibration(write_calibration(
                "plan_cache_autotune.json", dev, m, n, unloaded.best)),
            1u);
  const auto loaded = gp::autotune_cell<double>(dev, m, n);
  gp::PlanCache::instance().clear();
  EXPECT_EQ(loaded.heuristic_k, unloaded.heuristic_k);
  EXPECT_DOUBLE_EQ(loaded.heuristic_us, unloaded.heuristic_us);
}

TEST(PlanProperties, PlansAlwaysFitAdversarialShapes) {
  const auto dev = gs::gtx480();
  const std::size_t Ms[] = {0, 1, 15, 16, 511, 512, 100001};
  const std::size_t Ns[] = {1, 2, 3, 5, 100, 127, 129, 1000};
  for (const std::size_t m : Ms) {
    for (const std::size_t n : Ns) {
      const auto plan = gp::plan_hybrid(dev, m, n, sizeof(double), {});
      EXPECT_TRUE(plan.fits(n)) << "m=" << m << " n=" << n;
      EXPECT_LE(std::size_t{1} << plan.k, n)
          << "m=" << m << " n=" << n
          << ": 2^k must never exceed the system size";
      EXPECT_NE(plan.variant, gp::WindowVariant::auto_select);
      EXPECT_GE(plan.c, 1u);
    }
  }
}

TEST(PlanProperties, HeuristicKRespectsItsOwnClamp) {
  const std::size_t Ms[] = {0, 1, 15, 16, 511, 512, 100001};
  const std::size_t Ns[] = {1, 2, 3, 5, 100, 127, 129, 1000};
  for (const std::size_t m : Ms) {
    for (const std::size_t n : Ns) {
      const unsigned k = gp::heuristic_k(m, n);
      EXPECT_TRUE(k == 0 || (std::size_t{1} << k) <= n / 2)
          << "m=" << m << " n=" << n << " k=" << k;
    }
  }
}

TEST(PlanProperties, ClampEventsAreCounted) {
  // A plan for (1, 100): Table III says k = 8, but 256 > 100/2 —
  // the fit clamp must fire and be observable.
  const double before = counter("transition.clamped");
  const unsigned k =
      gp::plan_hybrid(gs::gtx480(), 1, 100, sizeof(double), {}).k;
  EXPECT_LT(k, 8u);
  EXPECT_GE(counter("transition.clamped") - before, 1.0);
}

TEST(PlanProperties, PreferredLayoutWritesNoPlanningMetrics) {
  // Layout choice runs on every service gather, not only when planning: it
  // must leave the planner's transition.* metrics alone, even for a
  // shape whose Table III k clamps (4, 64).
  const auto transition_metrics = [] {
    std::map<std::string, double> out;
    const auto& registry = obs::MetricsRegistry::instance();
    for (const auto& group : {registry.counters(), registry.gauges()}) {
      for (const auto& [name, value] : group) {
        if (name.rfind("transition.", 0) == 0) out[name] = value;
      }
    }
    return out;
  };
  const auto before = transition_metrics();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(gp::preferred_layout(4, 64), td::Layout::contiguous);
  }
  EXPECT_EQ(transition_metrics(), before);
}

TEST(PlanProperties, ForcedKRoundTripsOrThrows) {
  const auto dev = gs::gtx480();
  const std::size_t Ns[] = {1, 2, 64, 100, 1000, 1 << 17};
  for (const std::size_t n : Ns) {
    for (int k = 0; k <= 17; ++k) {
      gp::HybridOptions o;
      o.force_k = k;
      const bool feasible =
          k == 0 ||
          (k <= 16 && (std::size_t{1} << k) <= n &&
           (std::size_t{1} << k) <=
               static_cast<std::size_t>(dev.max_threads_per_block));
      if (feasible) {
        EXPECT_EQ(gp::plan_hybrid(dev, 4, n, sizeof(double), o).k,
                  static_cast<unsigned>(k));
      } else {
        EXPECT_THROW((void)gp::plan_hybrid(dev, 4, n, sizeof(double), o),
                     std::invalid_argument)
            << "n=" << n << " k=" << k;
      }
    }
  }
}
