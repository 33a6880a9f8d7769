// Chaos suite for the deterministic fault injector (gpusim/fault_injector
// .hpp) and the resilient solve pipeline (tridiag/resilient_solve.hpp +
// gpu::run_solver_resilient).
//
// The load-bearing claims, each pinned here:
//  * Determinism — fault sites, retry counts and recovered bits are
//    identical for any --sim-threads value and instrument mode, because
//    site selection hashes (seed, launch, block, site) ordinals that do
//    not depend on scheduling.
//  * Recovery is bit-identical — for fault rates up to a threshold the
//    pipeline recovers every system within the entry stage's retries, and
//    the recovered solution is bit-for-bit the fault-free run's (the
//    hybrid's PCR depth is pinned across re-dispatches to make this hold).
//  * Structured failure, never silence — past the threshold the solve
//    still returns: every live-ok system passes a residual gate, every
//    unrecovered system carries a severity-ordered SolveCode, and an
//    exhausted deadline yields a *partial* result with pristine (not
//    garbage) right-hand sides, not a crash.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "gpu_solvers/registry.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/exec_engine.hpp"
#include "gpusim/fault_injector.hpp"
#include "tridiag/batch_status.hpp"
#include "tridiag/layout.hpp"
#include "tridiag/residual.hpp"
#include "tridiag/resilient_solve.hpp"
#include "workloads/generators.hpp"

namespace gs = tridsolve::gpusim;
namespace gp = tridsolve::gpu;
namespace td = tridsolve::tridiag;
namespace wl = tridsolve::workloads;

namespace {

constexpr std::size_t kSystems = 12;
constexpr std::size_t kN = 128;

td::SystemBatch<double> test_batch(td::Layout layout = td::Layout::contiguous) {
  return wl::make_batch<double>(wl::Kind::random_dominant, kSystems, kN,
                                layout, /*seed=*/2026);
}

/// Bit-exact comparison of system m's solution in two batches.
bool system_bits_equal(const td::SystemBatch<double>& a,
                       const td::SystemBatch<double>& b, std::size_t m) {
  const auto xa = td::as_const(a.system(m)).d;
  const auto xb = td::as_const(b.system(m)).d;
  for (std::size_t i = 0; i < a.system_size(); ++i) {
    // Bit-pattern equality (memcmp-strength), so even NaN-carrying
    // corrupted outputs can be checked for exact reproducibility. The
    // "recovered systems hold real numbers" claim is asserted separately
    // via residual gates.
    std::uint64_t ua = 0, ub = 0;
    const double va = xa[i], vb = xb[i];
    std::memcpy(&ua, &va, sizeof va);
    std::memcpy(&ub, &vb, sizeof vb);
    if (ua != ub) return false;
  }
  return true;
}

/// Fault-free reference solve of `kind` (guarded, so statuses exist).
gp::SolveOutcome reference_solve(gp::SolverKind kind,
                                 const td::SystemBatch<double>& batch,
                                 td::SystemBatch<double>* solution) {
  gp::SolverRunOptions opts;
  opts.guard = true;
  return gp::run_solver<double>(kind, gs::gtx480(), batch, opts, solution);
}

}  // namespace

// ---- BatchStatus attempt provenance ----------------------------------

TEST(BatchStatusProvenance, LiveIsLatestDetectedIsWorst) {
  td::BatchStatus st;
  st.resize(3);
  EXPECT_EQ(st.attempts(1), 0u);

  // System 1: flagged by attempt 0, cleared by a clean retry.
  st.record_attempt(1, {td::SolveCode::zero_pivot, 7});
  EXPECT_EQ(st.attempts(1), 1u);
  st.record_attempt(1, {td::SolveCode::ok, 0});
  EXPECT_EQ(st[1].code, td::SolveCode::ok) << "live = latest attempt";
  EXPECT_EQ(st.detected(1).code, td::SolveCode::zero_pivot)
      << "detection record is sticky";
  EXPECT_EQ(st.detected(1).index, 7u);
  EXPECT_EQ(st.attempts(1), 2u);

  // Severity merge in the detection record: launch_failed (4) outranks
  // timed_out (3); a later lower-severity attempt does not demote it.
  st.record_attempt(2, {td::SolveCode::timed_out, 0});
  st.record_attempt(2, {td::SolveCode::launch_failed, 0});
  st.record_attempt(2, {td::SolveCode::near_singular, 3});
  EXPECT_EQ(st[2].code, td::SolveCode::near_singular);
  EXPECT_EQ(st.detected(2).code, td::SolveCode::launch_failed);
  EXPECT_EQ(st.attempts(2), 3u);
  EXPECT_EQ(st.attempts(0), 0u);

  st.resize(3);
  EXPECT_EQ(st.attempts(1) + st.attempts(2), 0u) << "resize clears provenance";
}

TEST(BatchStatusProvenance, SeededFromPreAttemptState) {
  // absorb() before the first record_attempt (the guarded kernels'
  // in-launch flags) must survive into the detection record.
  td::BatchStatus st;
  st.resize(2);
  st.absorb(0, {td::SolveCode::singular, 4});
  st.record_attempt(0, {td::SolveCode::ok, 0});
  EXPECT_EQ(st[0].code, td::SolveCode::ok);
  EXPECT_EQ(st.detected(0).code, td::SolveCode::singular);
}

// ---- Fault-kind parsing ----------------------------------------------

TEST(FaultKinds, ParseAndName) {
  EXPECT_EQ(gs::parse_fault_kinds("all"), gs::kFaultAll);
  EXPECT_EQ(gs::parse_fault_kinds("none"), 0u);
  EXPECT_EQ(gs::parse_fault_kinds("flip,nan"),
            gs::kFaultGlobalFlip | gs::kFaultNanWrite);
  EXPECT_EQ(gs::parse_fault_kinds("shared-flip,launch-fail,timeout"),
            gs::kFaultSharedFlip | gs::kFaultLaunchFail | gs::kFaultTimeout);
  EXPECT_THROW((void)gs::parse_fault_kinds("cosmic-ray"),
               std::invalid_argument);
}

// ---- Injector determinism across scheduling --------------------------

namespace {

struct FaultedRun {
  gp::SolveOutcome outcome;
  td::SystemBatch<double> solution;
};

FaultedRun faulted_plain_run(const gs::FaultPlan& plan, std::size_t threads,
                             gs::InstrumentMode mode) {
  const auto batch = test_batch();
  gs::ScopedSimThreads st(threads);
  gs::ScopedInstrumentMode im(mode);
  gs::ScopedFaultPlan fp(plan);  // install resets the launch ordinal
  FaultedRun run;
  gp::SolverRunOptions opts;
  opts.guard = true;
  run.outcome = gp::run_solver<double>(gp::SolverKind::pthomas_only,
                                       gs::gtx480(), batch, opts,
                                       &run.solution);
  return run;
}

}  // namespace

TEST(FaultInjector, SitesIndependentOfThreadsAndInstrument) {
  gs::FaultPlan plan;
  plan.seed = 41;
  plan.rate = 2e-4;
  plan.kinds = gs::kFaultGlobalFlip | gs::kFaultNanWrite;

  const FaultedRun ref = faulted_plain_run(plan, 1, gs::InstrumentMode::exact);
  ASSERT_TRUE(ref.outcome.supported);
  EXPECT_GT(ref.outcome.faults.total(), 0u) << "sweep must not be vacuous";

  for (const std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
    for (const auto mode :
         {gs::InstrumentMode::exact, gs::InstrumentMode::sampled}) {
      const FaultedRun run = faulted_plain_run(plan, threads, mode);
      EXPECT_EQ(run.outcome.faults.bit_flips, ref.outcome.faults.bit_flips);
      EXPECT_EQ(run.outcome.faults.nan_writes, ref.outcome.faults.nan_writes);
      for (std::size_t m = 0; m < kSystems; ++m) {
        EXPECT_EQ(run.outcome.status[m].code, ref.outcome.status[m].code)
            << "system " << m;
        EXPECT_TRUE(system_bits_equal(run.solution, ref.solution, m))
            << "corrupted outputs must corrupt identically (system " << m
            << ", threads " << threads << ")";
      }
    }
  }
}

// ---- Registry-wide single-corruption property ------------------------

TEST(ResilientSolve, SingleCorruptionRecoveredOrSurfacedEveryKind) {
  const auto batch = test_batch();
  for (const gp::SolverKind kind : gp::all_solver_kinds()) {
    td::SystemBatch<double> ref_sol;
    const gp::SolveOutcome ref = reference_solve(kind, batch, &ref_sol);
    if (!ref.supported) continue;  // size caps etc.: nothing to corrupt

    gs::FaultPlan plan;
    plan.seed = 11;
    plan.pinpoint = true;
    plan.at_launch = 0;
    plan.at_block = 0;
    plan.at_site = 5;
    plan.pinpoint_kind = gs::kFaultGlobalFlip;
    gs::ScopedFaultPlan fp(plan);

    td::SystemBatch<double> sol = batch.clone();
    gp::ResilientOutcome ro;
    ASSERT_NO_THROW(ro = gp::run_solver_resilient<double>(kind, gs::gtx480(),
                                                          sol))
        << gp::solver_name(kind);
    EXPECT_EQ(ro.outcome.faults.total(), 1u)
        << gp::solver_name(kind) << ": exactly one injected corruption";

    // Either the corruption never reached the output (bits already match),
    // or it was detected and retried to a bit-identical result, or the
    // system is surfaced in the taxonomy — never silently wrong.
    for (std::size_t m = 0; m < kSystems; ++m) {
      if (ro.outcome.status[m].ok() && ro.report.fallback_stages == 0) {
        // Recovered within the entry stage: bit-identical to fault-free.
        EXPECT_TRUE(system_bits_equal(sol, ref_sol, m))
            << gp::solver_name(kind) << " system " << m;
      }
      if (ro.outcome.status[m].ok()) {
        const double rel = td::relative_residual(
            td::as_const(batch.system(m)), td::as_const(sol.system(m)).d);
        EXPECT_LT(rel, 1e-8) << gp::solver_name(kind) << " system " << m
                             << ": ok status must mean a real solution";
      } else {
        EXPECT_NE(td::solve_code_severity(ro.outcome.status[m].code), 0)
            << "non-ok code must rank in the taxonomy";
      }
    }
  }
}

// ---- The headline chaos sweep ----------------------------------------

TEST(ResilientSolve, ChaosSweepBitIdenticalUpToThreshold) {
  const auto batch = test_batch();
  td::SystemBatch<double> ref_sol;
  const gp::SolveOutcome ref =
      reference_solve(gp::SolverKind::hybrid, batch, &ref_sol);
  ASSERT_TRUE(ref.supported);

  std::uint64_t injected_total = 0;
  // The empirical threshold for this shape (12 x 128): ~12k candidate
  // sites per dispatch, so 1e-4 injects ~1 fault per attempt — within
  // what two retries absorb. 4e-4 (~5 faults per dispatch) already pushes
  // past the entry stage (covered by AboveThresholdStructuredNeverSilent).
  for (const double rate : {2e-5, 5e-5, 1e-4}) {
    gs::FaultPlan plan;
    plan.seed = 97;
    plan.rate = rate;
    plan.kinds = gs::kFaultGlobalFlip | gs::kFaultNanWrite |
                 gs::kFaultSharedFlip;
    gs::ScopedFaultPlan fp(plan);

    td::SystemBatch<double> sol = batch.clone();
    gp::ResilientOutcome ro;
    ASSERT_NO_THROW(ro = gp::run_solver_resilient<double>(
                        gp::SolverKind::hybrid, gs::gtx480(), sol))
        << "rate " << rate;
    injected_total += ro.outcome.faults.total();

    // Below the threshold every system recovers inside the entry stage's
    // retries — no fallback, no partial result — and the recovered
    // solution is bit-for-bit the fault-free hybrid's.
    EXPECT_EQ(ro.report.fallback_stages, 0u) << "rate " << rate;
    EXPECT_FALSE(ro.report.partial) << "rate " << rate;
    EXPECT_EQ(ro.report.worst, td::SolveCode::ok) << "rate " << rate;
    for (std::size_t m = 0; m < kSystems; ++m) {
      EXPECT_TRUE(system_bits_equal(sol, ref_sol, m))
          << "rate " << rate << " system " << m;
    }
  }
  EXPECT_GT(injected_total, 0u) << "sweep must actually inject faults";
}

TEST(ResilientSolve, AboveThresholdStructuredNeverSilent) {
  const auto batch = test_batch();
  gs::FaultPlan plan;
  plan.seed = 13;
  plan.rate = 0.02;
  plan.kinds = gs::kFaultAll;  // including launch failures and timeouts
  gs::ScopedFaultPlan fp(plan);

  td::SystemBatch<double> sol = batch.clone();
  gp::ResilientOutcome ro;
  ASSERT_NO_THROW(ro = gp::run_solver_resilient<double>(
                      gp::SolverKind::hybrid, gs::gtx480(), sol));
  EXPECT_GT(ro.outcome.faults.total(), 0u);

  // Whatever happened, the contract holds: live-ok systems solve the
  // system (residual-gated — no silent garbage), everything else carries
  // a taxonomy code, and partial is flagged iff something is unrecovered.
  std::size_t not_ok = 0;
  for (std::size_t m = 0; m < kSystems; ++m) {
    if (ro.outcome.status[m].ok()) {
      const double rel = td::relative_residual(td::as_const(batch.system(m)),
                                               td::as_const(sol.system(m)).d);
      EXPECT_LT(rel, 1e-8) << "system " << m;
    } else {
      ++not_ok;
    }
  }
  EXPECT_EQ(ro.report.partial, not_ok > 0);
  EXPECT_EQ(ro.outcome.flagged, not_ok);
  EXPECT_EQ(ro.report.worst == td::SolveCode::ok, not_ok == 0);
}

// ---- Launch failures, timeouts, deadlines ----------------------------

TEST(ResilientSolve, InjectedLaunchFailureIsRetriedBitIdentical) {
  const auto batch = test_batch();
  td::SystemBatch<double> ref_sol;
  ASSERT_TRUE(reference_solve(gp::SolverKind::hybrid, batch, &ref_sol)
                  .supported);

  gs::FaultPlan plan;
  plan.pinpoint = true;
  plan.at_launch = 0;
  plan.pinpoint_kind = gs::kFaultLaunchFail;
  gs::ScopedFaultPlan fp(plan);

  td::SystemBatch<double> sol = batch.clone();
  gp::ResilientOutcome ro;
  ASSERT_NO_THROW(ro = gp::run_solver_resilient<double>(
                      gp::SolverKind::hybrid, gs::gtx480(), sol));
  ASSERT_FALSE(ro.report.attempts.empty());
  EXPECT_EQ(ro.report.attempts[0].reason, td::SolveCode::launch_failed);
  EXPECT_EQ(ro.outcome.faults.launch_failures, 1u);
  EXPECT_GE(ro.report.retries, 1u);
  EXPECT_EQ(ro.report.worst, td::SolveCode::ok);
  for (std::size_t m = 0; m < kSystems; ++m) {
    // The retry runs the full batch's plan, so its arithmetic is the
    // full-batch run's (these 12 systems retry as one chunk; chunks
    // smaller than their batch are pinned by
    // PlanCache.ResilientPipelineRunsTheWholeCalibratedPlan).
    EXPECT_TRUE(system_bits_equal(sol, ref_sol, m)) << "system " << m;
    EXPECT_EQ(ro.outcome.status.detected(m).code, td::SolveCode::launch_failed)
        << "provenance must remember the failed attempt";
  }
}

TEST(ResilientSolve, DeadlineYieldsPartialPristineResult) {
  const auto batch = test_batch();
  gs::FaultPlan plan;
  plan.seed = 5;
  plan.rate = 1.0;
  plan.kinds = gs::kFaultTimeout;  // every block of every launch overruns
  gs::ScopedFaultPlan fp(plan);

  td::ResiliencePolicy policy;
  policy.max_retries = 1;
  policy.deadline_us = 100.0;  // far less than one timed-out dispatch costs

  td::SystemBatch<double> sol = batch.clone();
  gp::ResilientOutcome ro;
  ASSERT_NO_THROW(ro = gp::run_solver_resilient<double>(
                      gp::SolverKind::hybrid, gs::gtx480(), sol, {}, policy));
  EXPECT_TRUE(ro.report.deadline_exceeded);
  EXPECT_TRUE(ro.report.partial);
  EXPECT_EQ(ro.report.worst, td::SolveCode::deadline);
  EXPECT_GT(ro.outcome.faults.timeouts, 0u);
  EXPECT_GE(ro.report.spent_us, policy.deadline_us);
  for (std::size_t m = 0; m < kSystems; ++m) {
    EXPECT_EQ(ro.outcome.status[m].code, td::SolveCode::deadline);
    // Unrecovered systems keep their pristine right-hand side — a partial
    // result is honest, never garbage.
    EXPECT_TRUE(system_bits_equal(sol, batch, m)) << "system " << m;
  }
}

TEST(ResilientSolve, UnrecoveredSystemHandsBackPristineRhsInPlace) {
  // The batch is solved where it lies, so a system no stage recovers
  // must get its pristine rhs back from the pipeline's copy instead of
  // keeping what the failed solve wrote over it.
  constexpr std::size_t kBroken = 5;
  auto batch = test_batch();
  batch.system(kBroken).b[0] = 0.0;  // zero pivot: pivot-free stages fail
  td::SystemBatch<double> ref_sol;
  ASSERT_TRUE(reference_solve(gp::SolverKind::hybrid, batch, &ref_sol)
                  .supported);

  td::ResiliencePolicy policy;
  policy.max_retries = 0;
  policy.fallback_chain = {"hybrid"};  // entry token elided: entry-only
  td::SystemBatch<double> sol = batch.clone();
  const gp::ResilientOutcome ro = gp::run_solver_resilient<double>(
      gp::SolverKind::hybrid, gs::gtx480(), sol, {}, policy);
  EXPECT_TRUE(ro.report.partial);
  EXPECT_EQ(ro.report.attempts.size(), 1u);
  EXPECT_FALSE(ro.outcome.status[kBroken].ok());
  for (std::size_t m = 0; m < kSystems; ++m) {
    if (m == kBroken) {
      EXPECT_TRUE(system_bits_equal(sol, batch, m))
          << "the unrecovered system's d must be its pristine rhs";
    } else {
      EXPECT_TRUE(ro.outcome.status[m].ok()) << "system " << m;
      EXPECT_TRUE(system_bits_equal(sol, ref_sol, m)) << "system " << m;
    }
  }
}

TEST(ResilientSolve, FallbackChainRecoversUnderTotalLaunchFailure) {
  // Every GPU launch fails: the pipeline must walk the chain down to the
  // fault-immune host stages and still produce a fully-recovered result.
  const auto batch = test_batch();
  gs::FaultPlan plan;
  plan.seed = 3;
  plan.rate = 1.0;
  plan.kinds = gs::kFaultLaunchFail;
  gs::ScopedFaultPlan fp(plan);

  td::SystemBatch<double> sol = batch.clone();
  gp::ResilientOutcome ro;
  ASSERT_NO_THROW(ro = gp::run_solver_resilient<double>(
                      gp::SolverKind::hybrid, gs::gtx480(), sol));
  EXPECT_EQ(ro.report.worst, td::SolveCode::ok);
  EXPECT_FALSE(ro.report.partial);
  EXPECT_GE(ro.report.fallback_stages, 1u);
  for (std::size_t m = 0; m < kSystems; ++m) {
    EXPECT_TRUE(ro.outcome.status[m].ok());
    EXPECT_EQ(ro.outcome.status.detected(m).code, td::SolveCode::launch_failed);
    const double rel = td::relative_residual(td::as_const(batch.system(m)),
                                             td::as_const(sol.system(m)).d);
    EXPECT_LT(rel, 1e-10) << "system " << m;
  }
}

// ---- The cross-thread determinism pin --------------------------------

TEST(ResilientSolve, PipelineDeterministicAcrossSimThreads) {
  const auto batch = test_batch();
  gs::FaultPlan plan;
  plan.seed = 29;
  plan.rate = 3e-4;
  plan.kinds = gs::kFaultGlobalFlip | gs::kFaultNanWrite |
               gs::kFaultSharedFlip;

  struct Run {
    gp::ResilientOutcome ro;
    td::SystemBatch<double> sol;
  };
  const auto run_with = [&](std::size_t threads) {
    gs::ScopedSimThreads st(threads);
    gs::ScopedFaultPlan fp(plan);
    Run r;
    r.sol = batch.clone();
    r.ro = gp::run_solver_resilient<double>(gp::SolverKind::hybrid,
                                            gs::gtx480(), r.sol);
    return r;
  };

  const Run a = run_with(1);
  const Run b = run_with(4);
  EXPECT_GT(a.ro.outcome.faults.total(), 0u);

  // Identical fault sites -> identical counts, attempts, retries, per-
  // system provenance and output bits.
  EXPECT_EQ(a.ro.outcome.faults.bit_flips, b.ro.outcome.faults.bit_flips);
  EXPECT_EQ(a.ro.outcome.faults.nan_writes, b.ro.outcome.faults.nan_writes);
  EXPECT_EQ(a.ro.outcome.faults.shared_corruptions,
            b.ro.outcome.faults.shared_corruptions);
  EXPECT_EQ(a.ro.report.retries, b.ro.report.retries);
  EXPECT_EQ(a.ro.report.fallback_stages, b.ro.report.fallback_stages);
  ASSERT_EQ(a.ro.report.attempts.size(), b.ro.report.attempts.size());
  for (std::size_t i = 0; i < a.ro.report.attempts.size(); ++i) {
    const auto& aa = a.ro.report.attempts[i];
    const auto& bb = b.ro.report.attempts[i];
    EXPECT_EQ(aa.stage, bb.stage) << "attempt " << i;
    EXPECT_EQ(aa.attempt, bb.attempt) << "attempt " << i;
    EXPECT_EQ(aa.systems, bb.systems) << "attempt " << i;
    EXPECT_EQ(aa.recovered, bb.recovered) << "attempt " << i;
    EXPECT_EQ(aa.still_flagged, bb.still_flagged) << "attempt " << i;
    EXPECT_EQ(aa.reason, bb.reason) << "attempt " << i;
  }
  for (std::size_t m = 0; m < kSystems; ++m) {
    EXPECT_EQ(a.ro.outcome.status[m].code, b.ro.outcome.status[m].code);
    EXPECT_EQ(a.ro.outcome.status.attempts(m), b.ro.outcome.status.attempts(m));
    EXPECT_TRUE(system_bits_equal(a.sol, b.sol, m)) << "system " << m;
  }
}

// ---- Policy plumbing --------------------------------------------------

TEST(ResilientSolve, FunctionalOnlyDispatchIsOneCleanAttempt) {
  // A functional_only run is solved but untimed: the pipeline must keep
  // it, not read it as a rejected configuration and degrade.
  const auto batch = test_batch();
  gp::SolverRunOptions exact;
  exact.instrument = gs::InstrumentMode::exact;
  td::SystemBatch<double> exact_x = batch.clone();
  td::SystemBatch<double> functional_x = batch.clone();
  (void)gp::run_solver_resilient<double>(gp::SolverKind::hybrid, gs::gtx480(),
                                         exact_x, exact);
  gp::ResilientOutcome res;
  {
    const gs::ScopedInstrumentMode functional(
        gs::InstrumentMode::functional_only);
    res = gp::run_solver_resilient<double>(gp::SolverKind::hybrid,
                                           gs::gtx480(), functional_x);
  }
  EXPECT_EQ(res.report.attempts.size(), 1u);
  EXPECT_EQ(res.report.fallback_stages, 0u);
  EXPECT_EQ(res.report.retries, 0u);
  EXPECT_EQ(res.report.worst, td::SolveCode::ok);
  for (std::size_t m = 0; m < kSystems; ++m) {
    EXPECT_TRUE(system_bits_equal(exact_x, functional_x, m)) << "system " << m;
  }
}

TEST(ResilientSolve, EnginePolicyAndFallbackChain) {
  auto& engine = gs::ExecutionEngine::instance();
  const double prev_deadline = engine.default_deadline_us();
  const int prev_retries = engine.default_max_retries();
  engine.set_default_deadline_us(1234.5);
  engine.set_default_max_retries(7);
  const td::ResiliencePolicy policy = gp::engine_resilience_policy();
  EXPECT_EQ(policy.deadline_us, 1234.5);
  EXPECT_EQ(policy.max_retries, 7);
  engine.set_default_deadline_us(prev_deadline);
  engine.set_default_max_retries(prev_retries);

  const auto chain = gp::default_fallback_chain(gp::SolverKind::hybrid);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0], "pthomas");
  EXPECT_EQ(chain[1], "cpu-thomas");
  EXPECT_EQ(chain[2], "lu");
  // A pthomas entry elides the duplicate stage.
  const auto pchain = gp::default_fallback_chain(gp::SolverKind::pthomas_only);
  ASSERT_EQ(pchain.size(), 2u);
  EXPECT_EQ(pchain[0], "cpu-thomas");

  // Unknown stage names in a custom chain are rejected up front.
  td::ResiliencePolicy bad;
  bad.fallback_chain = {"warp-shuffle-9000"};
  auto batch = test_batch();
  EXPECT_THROW((void)gp::run_solver_resilient<double>(
                   gp::SolverKind::hybrid, gs::gtx480(), batch, {}, bad),
               std::invalid_argument);
}
