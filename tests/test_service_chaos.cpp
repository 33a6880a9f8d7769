// Overload and fault hardening for the solve service (docs/SERVICE.md
// § Overload & degradation): bounded admission with shedding policies,
// circuit-breaker trip/probe/reset, launch-failure bisection with
// blast-radius isolation, quarantine of poisoned solos, and the
// structural-validation and shutdown contracts — every staged future
// resolves with a structured code, none lost, under every failure mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/exec_engine.hpp"
#include "gpusim/fault_injector.hpp"
#include "service/solve_service.hpp"
#include "tridiag/batch_status.hpp"
#include "tridiag/thomas.hpp"
#include "util/random.hpp"
#include "workloads/traffic.hpp"

using namespace tridsolve;

namespace {

/// A paused service: requests staged before start()/shutdown() are
/// admitted in one deterministic drain (shutdown runs the batcher
/// inline when it was never started).
service::ServiceConfig paused_config() {
  service::ServiceConfig cfg;
  cfg.auto_start = false;
  cfg.batch_window_us = 0.0;
  return cfg;
}

tridiag::TridiagSystem<double> make_system(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return workloads::make_request_system(workloads::Kind::random_dominant, n,
                                        rng);
}

service::SolveRequest request_for(const tridiag::TridiagSystem<double>& sys) {
  service::SolveRequest req;
  req.system = sys.clone();
  return req;
}

/// A rate-1.0 launch-failure storm: every simulated kernel launch fails
/// while the returned scope is alive (host stages are immune).
gpusim::FaultPlan launch_storm(std::uint64_t seed = 1) {
  gpusim::FaultPlan plan;
  plan.seed = seed;
  plan.rate = 1.0;
  plan.kinds = gpusim::kFaultLaunchFail;
  return plan;
}

/// Entry-only p-Thomas service: one launch per dispatch, no fallback
/// stages, no retries — a failed launch stays failed, which makes the
/// bisection/breaker/quarantine paths deterministic.
service::ServiceConfig entry_only_config() {
  service::ServiceConfig cfg = paused_config();
  cfg.solver = gpu::SolverKind::pthomas_only;
  cfg.max_retries = 0;
  cfg.fallback_chain = {"pthomas"};  // entry token elided: entry-only
  return cfg;
}

}  // namespace

// --- structural config validation -----------------------------------------

TEST(ServiceValidation, ZeroMaxBatchRejectsEverySubmitStructurally) {
  service::ServiceConfig cfg;
  cfg.max_batch = 0;
  service::SolveService svc(cfg);
  EXPECT_FALSE(svc.config_error().empty());
  const auto sys = make_system(32, 3);
  auto fut = svc.submit(request_for(sys));
  const auto r = fut.get();
  EXPECT_EQ(r.code, tridiag::SolveCode::bad_argument);
  ASSERT_EQ(r.x.size(), sys.size());
  for (std::size_t i = 0; i < sys.size(); ++i) {
    EXPECT_EQ(r.x[i], sys.d()[i]) << "rejection must hand back pristine rhs";
  }
  svc.shutdown();  // must be a safe no-op on a rejecting service
}

TEST(ServiceValidation, NegativeWindowAndBadAlphaReject) {
  service::ServiceConfig cfg;
  cfg.batch_window_us = -1.0;
  service::SolveService svc(cfg);
  EXPECT_FALSE(svc.config_error().empty());
  EXPECT_EQ(svc.submit(request_for(make_system(16, 4))).get().code,
            tridiag::SolveCode::bad_argument);

  // An unknown stage token must reject at construction, not throw out of
  // the batcher (live) or out of shutdown() (paused) on the first solve.
  service::ServiceConfig bad_chain;
  bad_chain.fallback_chain = {"pthomas", "warp-shuffle-9000"};
  service::SolveService svc3(bad_chain);
  EXPECT_NE(svc3.config_error().find("\"warp-shuffle-9000\""),
            std::string::npos)
      << svc3.config_error();
  EXPECT_EQ(svc3.submit(request_for(make_system(16, 5))).get().code,
            tridiag::SolveCode::bad_argument);
  svc3.shutdown();

  // A window or cooldown the steady clock cannot hold (its nanosecond
  // ticks overflow int64 past ~9.2e15 us) rejects like a negative window.
  for (const double us :
       {std::numeric_limits<double>::infinity(), 1e16, std::nan("")}) {
    service::ServiceConfig window;
    window.batch_window_us = us;
    service::SolveService svc_w(window);
    EXPECT_NE(svc_w.config_error().find("batch_window_us"), std::string::npos)
        << us;
    EXPECT_EQ(svc_w.submit(request_for(make_system(16, 6))).get().code,
              tridiag::SolveCode::bad_argument);

    service::ServiceConfig cooldown;
    cooldown.breaker.threshold = 1;
    cooldown.breaker.cooldown_us = us;
    service::SolveService svc_c(cooldown);
    EXPECT_NE(svc_c.config_error().find("cooldown_us"), std::string::npos)
        << us;
    EXPECT_EQ(svc_c.submit(request_for(make_system(16, 7))).get().code,
              tridiag::SolveCode::bad_argument);
  }
}

TEST(ServiceValidation, ShedPolicyParsingIsStrict) {
  EXPECT_EQ(service::parse_shed_policy("reject-newest"),
            service::ShedPolicy::reject_newest);
  EXPECT_EQ(service::parse_shed_policy("reject_lowest_priority"),
            service::ShedPolicy::reject_lowest_priority);
  EXPECT_EQ(service::parse_shed_policy("brownout"),
            service::ShedPolicy::brownout);
  EXPECT_THROW((void)service::parse_shed_policy("drop-everything"),
               std::invalid_argument);
}

// --- taxonomy --------------------------------------------------------------

TEST(ServiceTaxonomy, OverloadedIsNamedAndRanksBetweenDeadlineAndBadSize) {
  EXPECT_STREQ(tridiag::solve_code_name(tridiag::SolveCode::overloaded),
               "overloaded");
  EXPECT_GT(tridiag::solve_code_severity(tridiag::SolveCode::overloaded),
            tridiag::solve_code_severity(tridiag::SolveCode::deadline));
  EXPECT_LT(tridiag::solve_code_severity(tridiag::SolveCode::overloaded),
            tridiag::solve_code_severity(tridiag::SolveCode::bad_size));
}

// --- admission controller (unit) -------------------------------------------

TEST(AdmissionController, DepthAndByteBoundsAreHardWithRollback) {
  service::AdmissionConfig cfg;
  cfg.max_queue = 2;
  cfg.max_queue_bytes = 1000;
  service::AdmissionController ac(cfg);
  EXPECT_TRUE(ac.try_reserve(400));
  EXPECT_TRUE(ac.try_reserve(400));
  EXPECT_FALSE(ac.try_reserve(400)) << "depth bound";
  ac.release(400);
  EXPECT_FALSE(ac.try_reserve(700)) << "byte bound, rolled back fully";
  EXPECT_EQ(ac.depth(), 1u) << "failed byte reservation must roll back depth";
  EXPECT_TRUE(ac.try_reserve(500));
  EXPECT_EQ(ac.peak_depth(), 2u);
  EXPECT_EQ(ac.bytes(), 900u);
}

TEST(AdmissionController, EwmaAndDelayEstimate) {
  service::AdmissionController ac(service::AdmissionConfig{});
  EXPECT_EQ(ac.estimated_delay_us(8), 0.0) << "no signal before first batch";
  // On an empty queue the estimate is one wave: the EWMA itself.
  ac.observe_batch_latency(100.0);
  EXPECT_DOUBLE_EQ(ac.estimated_delay_us(8), 100.0);
  ac.observe_batch_latency(200.0);
  EXPECT_DOUBLE_EQ(ac.estimated_delay_us(8), 120.0);  // alpha 0.2
  // depth/max_batch more waves as the queue fills.
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ac.try_reserve(1));
  EXPECT_DOUBLE_EQ(ac.estimated_delay_us(8), 240.0);
}

// --- shedding policies through the service ---------------------------------

TEST(ServiceOverload, RejectNewestShedsExactOverflowWithPristineRhs) {
  service::ServiceConfig cfg = paused_config();
  cfg.admission.max_queue = 3;
  service::SolveService svc(cfg);
  std::vector<tridiag::TridiagSystem<double>> systems;
  std::vector<std::future<service::SolveResult>> futures;
  for (std::uint64_t i = 0; i < 5; ++i) {
    systems.push_back(make_system(32, 100 + i));
    futures.push_back(svc.submit(request_for(systems.back())));
  }
  // The last two could not reserve a slot and must already be resolved.
  EXPECT_EQ(svc.requests_shed(), 2u);
  svc.shutdown();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto r = futures[i].get();
    if (i < 3) {
      EXPECT_EQ(r.code, tridiag::SolveCode::ok) << "request " << i;
    } else {
      EXPECT_EQ(r.code, tridiag::SolveCode::overloaded) << "request " << i;
      ASSERT_EQ(r.x.size(), systems[i].size());
      for (std::size_t k = 0; k < r.x.size(); ++k) {
        EXPECT_EQ(r.x[k], systems[i].d()[k]);
      }
      EXPECT_EQ(r.batch_id, 0u) << "shed requests never ride a batch";
    }
  }
  EXPECT_LE(svc.peak_queue_depth(), 3u);
}

TEST(ServiceOverload, RejectLowestPriorityEvictsToAdmitPaidTraffic) {
  service::ServiceConfig cfg = paused_config();
  cfg.admission.max_queue = 2;
  cfg.admission.policy = service::ShedPolicy::reject_lowest_priority;
  service::SolveService svc(cfg);

  auto lo1 = request_for(make_system(32, 201));
  auto lo2 = request_for(make_system(32, 202));
  auto hi = request_for(make_system(32, 203));
  lo1.priority = 0;
  lo2.priority = 0;
  hi.priority = 5;
  auto f_lo1 = svc.submit(std::move(lo1));
  auto f_lo2 = svc.submit(std::move(lo2));
  auto f_hi = svc.submit(std::move(hi));  // bound hit: evicts newest prio-0

  EXPECT_EQ(svc.requests_shed(), 1u);
  EXPECT_EQ(f_lo2.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "the evicted victim must already be resolved";
  EXPECT_EQ(f_lo2.get().code, tridiag::SolveCode::overloaded);
  svc.shutdown();
  EXPECT_EQ(f_lo1.get().code, tridiag::SolveCode::ok);
  EXPECT_EQ(f_hi.get().code, tridiag::SolveCode::ok);
  EXPECT_LE(svc.peak_queue_depth(), 2u);
}

TEST(ServiceOverload, LowerPriorityIncomingIsShedWhenNoVictimRanksBelow) {
  service::ServiceConfig cfg = paused_config();
  cfg.admission.max_queue = 1;
  cfg.admission.policy = service::ShedPolicy::reject_lowest_priority;
  service::SolveService svc(cfg);
  auto queued = request_for(make_system(32, 211));
  queued.priority = 3;
  auto incoming = request_for(make_system(32, 212));
  incoming.priority = 1;  // ranks below the queued request: no eviction
  auto f_q = svc.submit(std::move(queued));
  auto f_in = svc.submit(std::move(incoming));
  EXPECT_EQ(f_in.get().code, tridiag::SolveCode::overloaded);
  svc.shutdown();
  EXPECT_EQ(f_q.get().code, tridiag::SolveCode::ok);
}

TEST(ServiceOverload, BrownoutShedsDeadlineDoomedUpFront) {
  service::ServiceConfig cfg;  // live: a real batch must feed the EWMA
  cfg.batch_window_us = 0.0;
  cfg.admission.policy = service::ShedPolicy::brownout;
  service::SolveService svc(cfg);
  EXPECT_EQ(svc.submit(request_for(make_system(32, 221))).get().code,
            tridiag::SolveCode::ok);
  EXPECT_GT(svc.admission().estimated_delay_us(cfg.max_batch), 0.0)
      << "the batch fed the EWMA";

  // Estimated queue delay (>= one EWMA batch) dwarfs this deadline: the
  // request could only expire in-queue, so brownout refuses it at submit.
  auto doomed = request_for(make_system(32, 222));
  doomed.deadline_us = 1e-3;
  auto f = svc.submit(std::move(doomed));
  EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f.get().code, tridiag::SolveCode::overloaded);
  EXPECT_EQ(svc.requests_shed(), 1u);
  svc.shutdown();
}

// --- concurrent submitters --------------------------------------------------

// submit() is documented safe from any thread. Four clients race 400
// submits (two sizes, three priorities) into a live service bounded at 16
// queued requests under reject_lowest_priority, while a fifth thread
// shuts it down after a seeded number of submits. Every future resolves
// with ok, overloaded (shed) or bad_argument (after shutdown), the
// tallies match those codes, the bound holds, and every solved x matches
// a host Thomas solve.
TEST(ServiceConcurrency, FourSubmittersRaceShedAndShutdown) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 100;
  util::Xoshiro256 rng(2718);
  const auto shutdown_after =
      static_cast<std::size_t>(util::uniform_int(rng, 100, 300));

  std::vector<std::vector<tridiag::TridiagSystem<double>>> systems(kClients);
  std::vector<std::vector<int>> priorities(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < kPerClient; ++i) {
      const std::size_t n = util::uniform_int(rng, 0, 1) == 0 ? 32 : 64;
      systems[c].push_back(make_system(n, rng()));
      priorities[c].push_back(static_cast<int>(util::uniform_int(rng, 0, 2)));
    }
  }

  service::ServiceConfig cfg;
  cfg.admission.max_queue = 16;
  cfg.admission.policy = service::ShedPolicy::reject_lowest_priority;
  service::SolveService svc(cfg);

  std::vector<std::vector<std::future<service::SolveResult>>> futures(
      kClients);
  std::atomic<std::size_t> submitted{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        service::SolveRequest req = request_for(systems[c][i]);
        req.priority = priorities[c][i];
        futures[c].push_back(svc.submit(std::move(req)));
        submitted.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    while (submitted.load() < shutdown_after) std::this_thread::yield();
    svc.shutdown();
  });
  for (auto& t : threads) t.join();

  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(futures[c].size(), kPerClient);
    for (std::size_t i = 0; i < kPerClient; ++i) {
      auto& f = futures[c][i];
      ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready)
          << "client " << c << " request " << i;
      const auto r = f.get();
      if (r.code == tridiag::SolveCode::overloaded) {
        ++overloaded;
        continue;
      }
      if (r.code == tridiag::SolveCode::bad_argument) continue;
      ASSERT_EQ(r.code, tridiag::SolveCode::ok)
          << "client " << c << " request " << i << ": "
          << tridiag::solve_code_name(r.code);
      ++ok;
      auto& sys = systems[c][i];
      const std::size_t n = sys.size();
      std::vector<double> x(n);
      ASSERT_TRUE(tridiag::thomas_solve<double>(
                      sys.ref(), tridiag::StridedView<double>(x.data(), n, 1))
                      .ok());
      ASSERT_EQ(r.x.size(), n);
      double scale = 0.0;
      double err = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        scale = std::max(scale, std::abs(x[k]));
        err = std::max(err, std::abs(r.x[k] - x[k]));
      }
      EXPECT_LE(err, 1e-9 * scale) << "client " << c << " request " << i;
    }
  }
  EXPECT_EQ(overloaded, svc.requests_shed());
  EXPECT_EQ(ok, svc.requests_completed());
  EXPECT_LE(svc.peak_queue_depth(), 16u);
}

// --- resilient dispatch: bisection, quarantine, provenance ------------------

TEST(ServiceResilience, CleanRunReportsSingleAttemptNoRecovery) {
  service::SolveService svc(paused_config());
  auto fut = svc.submit(request_for(make_system(64, 301)));
  svc.shutdown();
  const auto r = fut.get();
  EXPECT_EQ(r.code, tridiag::SolveCode::ok);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_FALSE(r.recovered);
  EXPECT_FALSE(r.degraded);
}

TEST(ServiceResilience, FallbackChainRecoversStormWithProvenance) {
  service::SolveService svc(paused_config());  // default chain: host referee
  std::vector<std::future<service::SolveResult>> futures;
  for (std::uint64_t i = 0; i < 4; ++i) {
    futures.push_back(svc.submit(request_for(make_system(64, 310 + i))));
  }
  {
    gpusim::ScopedFaultPlan scoped(launch_storm());
    svc.shutdown();  // drain under the storm: GPU stages fail, host recovers
  }
  for (auto& f : futures) {
    const auto r = f.get();
    EXPECT_EQ(r.code, tridiag::SolveCode::ok);
    EXPECT_TRUE(r.recovered) << "host fallback recovery must be visible";
    EXPECT_GT(r.attempts, 1u);
  }
  EXPECT_EQ(svc.requests_retried(), 4u);
}

// One poisoned launch must not fail co-batched riders: with a one-shot
// pinpoint fault on the very first launch of the drain, the coalesced
// entry dispatch fails, the batch is bisected, and both halves re-solve
// clean from pristine inputs — every rider recovers.
TEST(ServiceResilience, BisectionShieldsRidersFromOnePoisonedLaunch) {
  service::SolveService svc(entry_only_config());
  std::vector<std::future<service::SolveResult>> futures;
  for (std::uint64_t i = 0; i < 4; ++i) {
    futures.push_back(svc.submit(request_for(make_system(64, 320 + i))));
  }
  gpusim::FaultPlan one_shot;
  one_shot.pinpoint = true;
  one_shot.at_launch = 0;  // installing the plan resets the launch ordinal
  one_shot.pinpoint_kind = gpusim::kFaultLaunchFail;
  {
    gpusim::ScopedFaultPlan scoped(one_shot);
    svc.shutdown();
  }
  for (auto& f : futures) {
    const auto r = f.get();
    EXPECT_EQ(r.code, tridiag::SolveCode::ok);
    EXPECT_TRUE(r.recovered);
    EXPECT_EQ(r.attempts, 2u) << "failed coalesced launch + clean half";
  }
  EXPECT_EQ(svc.batches_bisected(), 1u);
  EXPECT_EQ(svc.requests_quarantined(), 0u);
}

TEST(ServiceResilience, PersistentFailuresQuarantineSolosWithPristineRhs) {
  service::SolveService svc(entry_only_config());
  std::vector<tridiag::TridiagSystem<double>> systems;
  std::vector<std::future<service::SolveResult>> futures;
  for (std::uint64_t i = 0; i < 2; ++i) {
    systems.push_back(make_system(64, 330 + i));
    futures.push_back(svc.submit(request_for(systems.back())));
  }
  {
    gpusim::ScopedFaultPlan scoped(launch_storm());
    svc.shutdown();  // pair fails, bisects, solos fail: quarantine both
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto r = futures[i].get();
    EXPECT_EQ(r.code, tridiag::SolveCode::launch_failed);
    ASSERT_EQ(r.x.size(), systems[i].size());
    for (std::size_t k = 0; k < r.x.size(); ++k) {
      EXPECT_EQ(r.x[k], systems[i].d()[k]);
    }
  }
  EXPECT_EQ(svc.requests_quarantined(), 2u);
  EXPECT_GE(svc.batches_bisected(), 1u);
}

// A request that no stage recovers comes back with its code and its
// pristine rhs (docs/SERVICE.md), while its co-batched rider still
// solves. The execute stage solves the gathered batch in place, so the
// broken member's d must be handed back from the pipeline's pristine
// copy, not left as the failed solve wrote it.
TEST(ServiceResilience, UnrecoveredRequestHandsBackPristineRhs) {
  service::SolveService svc(entry_only_config());
  auto broken = make_system(64, 380);
  broken.b()[0] = 0.0;  // zero pivot: no pivot-free stage can solve it
  auto f_broken = svc.submit(request_for(broken));
  auto f_rider = svc.submit(request_for(make_system(64, 381)));
  svc.shutdown();

  const auto r = f_broken.get();
  EXPECT_EQ(r.code, tridiag::SolveCode::zero_pivot);
  EXPECT_EQ(r.batch_size, 2u);
  ASSERT_EQ(r.x.size(), broken.size());
  for (std::size_t i = 0; i < r.x.size(); ++i) {
    EXPECT_EQ(r.x[i], broken.d()[i]) << "row " << i;
  }
  const auto rider = f_rider.get();
  EXPECT_EQ(rider.code, tridiag::SolveCode::ok);
  EXPECT_EQ(rider.batch_id, r.batch_id);
}

// --- circuit breaker --------------------------------------------------------

TEST(ServiceBreaker, TripsOpenDegradesThenProbesAndResets) {
  service::ServiceConfig cfg = entry_only_config();
  cfg.auto_start = true;
  cfg.breaker.threshold = 1;
  cfg.breaker.cooldown_us = 0.0;  // next dispatch is already the probe
  service::SolveService svc(cfg);

  {
    gpusim::ScopedFaultPlan scoped(launch_storm());
    const auto r = svc.submit(request_for(make_system(64, 341))).get();
    EXPECT_EQ(r.code, tridiag::SolveCode::launch_failed);
  }
  EXPECT_EQ(svc.breaker().state(), service::BreakerState::open);
  EXPECT_EQ(svc.breaker().trips(), 1u);

  // Storm over, cooldown already elapsed: the next dispatch is admitted
  // as a half-open probe, succeeds, and closes the breaker.
  const auto r2 = svc.submit(request_for(make_system(64, 342))).get();
  EXPECT_EQ(r2.code, tridiag::SolveCode::ok);
  EXPECT_FALSE(r2.degraded);
  EXPECT_EQ(svc.breaker().state(), service::BreakerState::closed);
  EXPECT_EQ(svc.breaker().resets(), 1u);
  svc.shutdown();
}

TEST(ServiceBreaker, OpenBreakerDegradesToHostThomas) {
  service::ServiceConfig cfg = entry_only_config();
  cfg.auto_start = true;
  cfg.breaker.threshold = 1;
  cfg.breaker.cooldown_us = 60e6;  // stays open for the whole test
  service::SolveService svc(cfg);

  {
    gpusim::ScopedFaultPlan scoped(launch_storm());
    (void)svc.submit(request_for(make_system(64, 351))).get();
  }
  EXPECT_EQ(svc.breaker().state(), service::BreakerState::open);
  const auto r = svc.submit(request_for(make_system(64, 352))).get();
  EXPECT_EQ(r.code, tridiag::SolveCode::ok);
  EXPECT_TRUE(r.degraded) << "open breaker solves on the host, marked so";
  EXPECT_EQ(svc.requests_degraded(), 1u);
  svc.shutdown();
}

// A coalesced batch under an open breaker: the N=64 solo trips the
// breaker and is quarantined; the three N=32 riders then share one
// host-Thomas batch, each bitwise equal to a guarded Thomas solve.
TEST(ServiceBreaker, OpenBreakerDegradesCoalescedBatchBitwise) {
  service::ServiceConfig cfg = entry_only_config();
  cfg.breaker.threshold = 1;
  cfg.breaker.cooldown_us = 60e6;
  service::SolveService svc(cfg);

  auto f_trip = svc.submit(request_for(make_system(64, 371)));
  std::vector<tridiag::TridiagSystem<double>> systems;
  std::vector<std::future<service::SolveResult>> futures;
  for (std::uint64_t i = 0; i < 3; ++i) {
    systems.push_back(make_system(32, 372 + i));
    futures.push_back(svc.submit(request_for(systems.back())));
  }
  {
    gpusim::ScopedFaultPlan scoped(launch_storm());
    svc.shutdown();
  }
  const auto trip = f_trip.get();
  EXPECT_EQ(trip.code, tridiag::SolveCode::launch_failed);
  EXPECT_EQ(trip.batch_size, 1u);
  EXPECT_EQ(svc.requests_quarantined(), 1u);
  EXPECT_EQ(svc.breaker().state(), service::BreakerState::open);

  std::uint64_t batch_id = 0;
  for (std::size_t j = 0; j < futures.size(); ++j) {
    const auto r = futures[j].get();
    EXPECT_EQ(r.code, tridiag::SolveCode::ok) << "request " << j;
    EXPECT_TRUE(r.degraded);
    EXPECT_FALSE(r.recovered);
    EXPECT_EQ(r.attempts, 1u);
    EXPECT_EQ(r.solve_us, 0.0) << "the host stage charges no simulated time";
    EXPECT_EQ(r.batch_size, 3u);
    if (j == 0) batch_id = r.batch_id;
    EXPECT_EQ(r.batch_id, batch_id) << "the riders must share one batch";

    auto sys = systems[j].clone();
    const std::size_t n = sys.size();
    std::vector<double> x(n), cprime(n);
    tridiag::SolveStatus guard{};
    ASSERT_TRUE(tridiag::thomas_solve<double>(
                    sys.ref(), tridiag::StridedView<double>(x.data(), n, 1),
                    cprime, &guard)
                    .ok());
    ASSERT_EQ(r.x.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(r.x[i], x[i]) << "request " << j << " row " << i;
    }
  }
  EXPECT_NE(batch_id, trip.batch_id);
  EXPECT_EQ(svc.requests_degraded(), 3u);
}

// Shutdown with the breaker open: the staged batch fails, trips the
// breaker mid-bisection, and the re-dispatched halves are degraded to
// host Thomas — yet every staged future resolves with a structured code
// and post-shutdown submits are rejected. Nothing hangs, nothing is lost.
TEST(ServiceBreaker, ShutdownWhileOpenResolvesEveryStagedFuture) {
  service::ServiceConfig cfg = entry_only_config();
  cfg.breaker.threshold = 1;
  cfg.breaker.cooldown_us = 60e6;
  service::SolveService svc(cfg);

  std::vector<std::future<service::SolveResult>> futures;
  for (std::uint64_t i = 0; i < 3; ++i) {
    futures.push_back(svc.submit(request_for(make_system(64, 360 + i))));
  }
  {
    gpusim::ScopedFaultPlan scoped(launch_storm());
    svc.shutdown();
  }
  std::size_t degraded = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "shutdown must resolve every staged future";
    const auto r = f.get();
    EXPECT_TRUE((r.code == tridiag::SolveCode::ok && r.degraded) ||
                r.code == tridiag::SolveCode::launch_failed)
        << "got " << tridiag::solve_code_name(r.code);
    if (r.degraded) ++degraded;
  }
  EXPECT_GE(degraded, 1u)
      << "the open breaker must have degraded bisected halves";
  EXPECT_GE(svc.breaker().trips(), 1u);

  const auto rejected = svc.submit(request_for(make_system(64, 363))).get();
  EXPECT_EQ(rejected.code, tridiag::SolveCode::bad_argument);
}
