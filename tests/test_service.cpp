// Queue/batcher edge cases and the service's determinism contract
// (docs/SERVICE.md): in-queue expiry returns `deadline` with pristine
// inputs, incompatible shapes never coalesce, solo and coalesced batches
// are bitwise-identical to direct run_solver calls for every solver
// kind, and shutdown drains the queue without losing an ack.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "gpu_solvers/registry.hpp"
#include "gpu_solvers/transition.hpp"
#include "gpusim/exec_engine.hpp"
#include "obs/metrics.hpp"
#include "service/solve_service.hpp"
#include "workloads/traffic.hpp"

using namespace tridsolve;

namespace {

/// A paused service: requests staged before start() are admitted in one
/// deterministic drain.
service::ServiceConfig paused_config() {
  service::ServiceConfig cfg;
  cfg.auto_start = false;
  cfg.batch_window_us = 0.0;  // dispatch as soon as the batcher looks
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

}  // namespace

TEST(SolveService, InQueueExpiryReturnsDeadlineWithPristineInputs) {
  service::SolveService svc(paused_config());
  const auto sys = make_system(64, 7);
  service::SolveRequest req = request_for(sys);
  req.deadline_us = 1000.0;  // 1 ms, long gone by the time we start
  auto fut = svc.submit(std::move(req));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  svc.start();
  const auto r = fut.get();
  EXPECT_EQ(r.code, tridiag::SolveCode::deadline);
  EXPECT_EQ(r.batch_id, 0u) << "an expired request must never be dispatched";
  ASSERT_EQ(r.x.size(), sys.size());
  for (std::size_t i = 0; i < sys.size(); ++i) {
    EXPECT_EQ(r.x[i], sys.d()[i]) << "row " << i << " is not the pristine rhs";
  }
  EXPECT_EQ(svc.requests_expired(), 1u);
  EXPECT_EQ(svc.batches_launched(), 0u);
  svc.shutdown();
}

// A deadline inside a long batch window must shorten the window and get
// the request *dispatched*, not expired: the window closes a dispatch
// margin before the deadline precisely so the wake-up lands on the admit
// path instead of the expiry pass (docs/SERVICE.md § tuning).
TEST(SolveService, DeadlineInsideWindowDispatchesInsteadOfExpiring) {
  service::ServiceConfig cfg;
  cfg.batch_window_us = 10'000'000.0;  // 10 s: deadline must cut it short
  const auto sys = make_system(64, 13);
  service::SolveService svc(cfg);
  service::SolveRequest req = request_for(sys);
  req.deadline_us = 25'000.0;  // well past the margin, well short of window
  auto fut = svc.submit(std::move(req));
  const auto r = fut.get();
  EXPECT_NE(r.code, tridiag::SolveCode::deadline)
      << "a lone request must ride the deadline-shortened window, not "
         "expire at its close";
  EXPECT_NE(r.batch_id, 0u);
  ASSERT_EQ(r.x.size(), sys.size());
  EXPECT_EQ(svc.requests_expired(), 0u);
  EXPECT_EQ(svc.batches_launched(), 1u);
  svc.shutdown();
}

// A lone submit against an idle batcher must wake it: submit() pushes
// under the queue mutex the batcher's wait predicate reads, so the notify
// cannot slip past the wait and the future resolves without any
// follow-up traffic (regression: lost-wakeup race).
TEST(SolveService, LoneSubmitWakesIdleBatcher) {
  service::ServiceConfig cfg;
  cfg.batch_window_us = 0.0;
  service::SolveService svc(cfg);
  // Give the batcher time to reach its idle (untimed) wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  auto fut = svc.submit(request_for(make_system(64, 17)));
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)), std::future_status::ready)
      << "batcher never woke for a lone submit";
  EXPECT_EQ(fut.get().code, tridiag::SolveCode::ok);
  svc.shutdown();
}

// A deadline past the steady clock's range is no deadline: the request
// is served, not expired (converting it to clock ticks used to overflow
// int64, and the overflowed deadline lay in the past).
TEST(SolveService, DeadlinePastClockRangeIsNoDeadline) {
  service::SolveService svc(paused_config());
  std::vector<std::future<service::SolveResult>> futures;
  for (const double us : {std::numeric_limits<double>::infinity(), 1e18}) {
    service::SolveRequest req = request_for(make_system(64, 19));
    req.deadline_us = us;
    futures.push_back(svc.submit(std::move(req)));
  }
  svc.shutdown();
  for (auto& f : futures) {
    const auto r = f.get();
    EXPECT_EQ(r.code, tridiag::SolveCode::ok);
    EXPECT_NE(r.batch_id, 0u);
  }
  EXPECT_EQ(svc.requests_expired(), 0u);
}

TEST(SolveService, IncompatibleShapesNeverCoalesce) {
  service::SolveService svc(paused_config());
  std::vector<std::future<service::SolveResult>> futures;
  for (int rep = 0; rep < 3; ++rep) {
    futures.push_back(
        svc.submit(request_for(make_system(64, 100 + rep))));
    futures.push_back(
        svc.submit(request_for(make_system(128, 200 + rep))));
  }
  svc.start();
  std::vector<service::SolveResult> results;
  for (auto& f : futures) results.push_back(f.get());
  svc.shutdown();

  std::uint64_t batch64 = 0, batch128 = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    EXPECT_EQ(r.code, tridiag::SolveCode::ok);
    std::uint64_t& expect = (i % 2 == 0) ? batch64 : batch128;
    if (expect == 0) {
      expect = r.batch_id;
    } else {
      EXPECT_EQ(r.batch_id, expect) << "same-N requests must share a batch";
    }
  }
  EXPECT_NE(batch64, batch128) << "different N must never share a launch";
  EXPECT_EQ(svc.batches_launched(), 2u);
}

TEST(SolveService, SoloBatchBitwiseIdenticalToDirectRunSolver) {
  const std::size_t n = 64;
  const auto dev = gpusim::gtx480();
  for (const gpu::SolverKind kind : gpu::all_solver_kinds()) {
    const auto sys = make_system(n, 11);
    tridiag::SystemBatch<double> direct(1, n, gpu::preferred_layout(1, n));
    tridiag::copy_system(sys.ref(), direct.system(0));
    gpu::SolverRunOptions opts;
    opts.guard = true;
    tridiag::SystemBatch<double> expected;
    const auto outcome = gpu::run_solver(kind, dev, direct, opts, &expected);
    if (expected.num_systems() != 1) {
      continue;  // configuration rejected for this N — nothing to compare
    }

    service::ServiceConfig cfg = paused_config();
    cfg.solver = kind;
    service::SolveService svc(cfg);
    auto fut = svc.submit(request_for(sys));
    svc.start();
    const auto r = fut.get();
    svc.shutdown();

    EXPECT_EQ(r.batch_size, 1u);
    ASSERT_EQ(r.x.size(), n) << gpu::solver_name(kind);
    const auto x = expected.system(0).d;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(r.x[i], x[i])
          << gpu::solver_name(kind) << " row " << i << " not bit-identical";
    }
    if (outcome.status.size() == 1) {
      EXPECT_EQ(r.code, outcome.status[0].code) << gpu::solver_name(kind);
    }
  }
}

TEST(SolveService, CoalescedBatchBitwiseIdenticalToDirectRunSolver) {
  const std::size_t n = 64;
  const std::size_t m = 5;
  const auto dev = gpusim::gtx480();
  for (const gpu::SolverKind kind : gpu::all_solver_kinds()) {
    std::vector<tridiag::TridiagSystem<double>> systems;
    for (std::size_t j = 0; j < m; ++j) {
      systems.push_back(make_system(n, 300 + j));
    }
    tridiag::SystemBatch<double> direct(m, n, gpu::preferred_layout(m, n));
    for (std::size_t j = 0; j < m; ++j) {
      tridiag::copy_system(systems[j].ref(), direct.system(j));
    }
    gpu::SolverRunOptions opts;
    opts.guard = true;
    tridiag::SystemBatch<double> expected;
    const auto outcome = gpu::run_solver(kind, dev, direct, opts, &expected);
    if (expected.num_systems() != m) continue;
    ASSERT_EQ(outcome.status.size(), m) << gpu::solver_name(kind);

    // Staged while paused, so one drain admits all five in submit order
    // (equal priority) — the exact batch `direct` models.
    service::ServiceConfig cfg = paused_config();
    cfg.solver = kind;
    service::SolveService svc(cfg);
    std::vector<std::future<service::SolveResult>> futures;
    for (const auto& sys : systems) futures.push_back(svc.submit(request_for(sys)));
    svc.start();
    for (std::size_t j = 0; j < m; ++j) {
      const auto r = futures[j].get();
      EXPECT_EQ(r.batch_size, m) << gpu::solver_name(kind);
      const auto x = expected.system(j).d;
      ASSERT_EQ(r.x.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(r.x[i], x[i]) << gpu::solver_name(kind) << " system " << j
                                << " row " << i << " not bit-identical";
      }
      EXPECT_EQ(r.code, outcome.status[j].code)
          << gpu::solver_name(kind) << " system " << j;
    }
    svc.shutdown();
    EXPECT_EQ(svc.batches_launched(), 1u) << gpu::solver_name(kind);
  }
}

TEST(SolveService, FunctionalOnlyDispatchIsOneAttempt) {
  // An untimed functional_only dispatch still solves: one attempt on the
  // configured solver, never a retry or a fallback stage.
  const auto sys = make_system(128, 41);
  const auto solve = [&](gpusim::InstrumentMode mode) {
    const gpusim::ScopedInstrumentMode instrument(mode);
    service::SolveService svc(paused_config());
    auto fut = svc.submit(request_for(sys));
    svc.start();
    const auto r = fut.get();
    svc.shutdown();
    EXPECT_EQ(svc.requests_retried(), 0u);
    return r;
  };
  const auto exact = solve(gpusim::InstrumentMode::exact);
  auto& reg = obs::MetricsRegistry::instance();
  const double stages0 = reg.counter("solver.resilience.fallback_stages");
  const auto functional = solve(gpusim::InstrumentMode::functional_only);
  EXPECT_EQ(reg.counter("solver.resilience.fallback_stages"), stages0);
  EXPECT_EQ(functional.code, tridiag::SolveCode::ok);
  EXPECT_EQ(functional.attempts, 1u);
  EXPECT_FALSE(functional.recovered);
  ASSERT_EQ(functional.x.size(), exact.x.size());
  for (std::size_t i = 0; i < exact.x.size(); ++i) {
    EXPECT_EQ(functional.x[i], exact.x[i]) << "row " << i;
  }
}

TEST(SolveService, PriorityOrdersAdmissionWithinABatch) {
  // Bitwise contract is about order: a high-priority late submit must
  // occupy the first slot of the coalesced batch.
  const std::size_t n = 64;
  service::ServiceConfig cfg = paused_config();
  service::SolveService svc(cfg);
  auto low = request_for(make_system(n, 1));
  auto high = request_for(make_system(n, 2));
  high.priority = 5;
  auto f_low = svc.submit(std::move(low));
  auto f_high = svc.submit(std::move(high));
  svc.start();
  const auto r_low = f_low.get();
  const auto r_high = f_high.get();
  svc.shutdown();
  EXPECT_EQ(r_low.batch_id, r_high.batch_id);
  EXPECT_EQ(r_low.batch_size, 2u);

  // Re-create the expected batch in (high, low) admission order.
  const auto dev = gpusim::gtx480();
  auto sys_high = make_system(n, 2);
  auto sys_low = make_system(n, 1);
  tridiag::SystemBatch<double> direct(2, n, gpu::preferred_layout(2, n));
  tridiag::copy_system(sys_high.ref(), direct.system(0));
  tridiag::copy_system(sys_low.ref(), direct.system(1));
  gpu::SolverRunOptions opts;
  opts.guard = true;
  tridiag::SystemBatch<double> expected;
  gpu::run_solver(gpu::SolverKind::hybrid, dev, direct, opts, &expected);
  ASSERT_EQ(expected.num_systems(), 2u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(r_high.x[i], expected.system(0).d[i]);
    EXPECT_EQ(r_low.x[i], expected.system(1).d[i]);
  }
}

TEST(SolveService, ShutdownDrainsQueueWithoutLosingAcks) {
  service::SolveService svc(paused_config());
  std::vector<std::future<service::SolveResult>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(svc.submit(request_for(make_system(64, 400 + i))));
  }
  // Never started: shutdown itself must drain and fulfill everything.
  svc.shutdown();
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "shutdown lost an ack";
    const auto r = f.get();
    EXPECT_EQ(r.code, tridiag::SolveCode::ok);
  }
  EXPECT_EQ(svc.requests_completed(), 20u);

  // After shutdown, submissions are rejected with a ready future.
  auto rejected = svc.submit(request_for(make_system(64, 999)));
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(rejected.get().code, tridiag::SolveCode::bad_argument);
}

TEST(SolveService, EmptySystemRejectedWithBadSize) {
  service::SolveService svc(paused_config());
  service::SolveRequest req;  // default: empty system
  auto fut = svc.submit(std::move(req));
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(fut.get().code, tridiag::SolveCode::bad_size);
  svc.shutdown();
}

TEST(SolveService, MaxBatchCapsAdmission) {
  service::ServiceConfig cfg = paused_config();
  cfg.max_batch = 4;
  service::SolveService svc(cfg);
  std::vector<std::future<service::SolveResult>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(svc.submit(request_for(make_system(64, 500 + i))));
  }
  svc.start();
  for (auto& f : futures) {
    const auto r = f.get();
    EXPECT_EQ(r.code, tridiag::SolveCode::ok);
    EXPECT_LE(r.batch_size, 4u);
  }
  svc.shutdown();
  EXPECT_EQ(svc.batches_launched(), 3u) << "10 requests at cap 4 = 4+4+2";
}

TEST(TrafficGenerator, ArrivalsAreDeterministicAndMonotone) {
  workloads::TrafficConfig cfg;
  cfg.rate_rps = 50000;
  cfg.requests = 200;
  cfg.seed = 9;
  const auto a = workloads::arrival_times_us(cfg);
  const auto b = workloads::arrival_times_us(cfg);
  ASSERT_EQ(a.size(), 200u);
  EXPECT_EQ(a, b) << "same seed must reproduce the same arrival stream";
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a[i], a[i - 1]) << "arrival times must be non-decreasing";
  }
  // Mean inter-arrival ≈ 20 us at 50 krps; allow generous slack.
  const double mean_gap = a.back() / static_cast<double>(a.size() - 1);
  EXPECT_GT(mean_gap, 10.0);
  EXPECT_LT(mean_gap, 40.0);
}

TEST(TrafficGenerator, BurstySweepCompressesOnWindows) {
  workloads::TrafficConfig steady;
  steady.rate_rps = 10000;
  steady.requests = 400;
  steady.seed = 5;
  workloads::TrafficConfig bursty = steady;
  bursty.burst = 4.0;
  const auto s = workloads::arrival_times_us(steady);
  const auto b = workloads::arrival_times_us(bursty);
  // Same mean load: total makespans are comparable...
  EXPECT_NEAR(b.back(), s.back(), 0.5 * s.back());
  // ...but every bursty arrival lands inside the first 1/burst of its
  // cycle (the "on" window).
  for (const double t : b) {
    const double phase = t - std::floor(t / workloads::kBurstCycleUs) *
                                 workloads::kBurstCycleUs;
    EXPECT_LE(phase, workloads::kBurstCycleUs / bursty.burst + 1e-9);
  }
}
