// Saturation curve for the solve service (ROADMAP item 1): sweep offered
// load through the async queue + batch coalescer and report p50/p99
// latency, batch occupancy, and the throughput of coalesced launches vs
// what the same requests would cost as per-request solo launches. The
// paper's Fig. 12 says simulated solve time is flat in M until the
// device saturates — so as load rises, occupancy rises, and the batched
// simulated time falls ever further below the solo sum. docs/SERVICE.md
// and EXPERIMENTS.md ("Reproducing BENCH_service.json") read this curve.
//
// --soak switches to the chaos soak harness instead: live bursty traffic
// under whatever --fault-* plan the operator installed, then
// deterministic overload / fault-storm / breaker phases (the storms
// under an injected rate-1.0 launch-fault plan, independent of the CLI
// fault flags), asserting the service's robustness invariants —
// every submitted future resolves with a structured SolveCode, the
// bounded queue never exceeds its cap, and shedding / degradation /
// quarantine are observable in the metrics registry. Exit status is
// non-zero when any invariant fails, so CI can gate on it (label
// service-chaos). test_service checks coalesced-vs-direct bit identity
// for every solver kind.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "gpusim/exec_engine.hpp"
#include "gpusim/fault_injector.hpp"
#include "service/solve_service.hpp"
#include "workloads/traffic.hpp"

using namespace tridsolve;

namespace {

/// Parse a comma-separated list of positive rates ("2000,50000").
std::vector<double> parse_rates(const std::string& text) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string tok = text.substr(pos, comma - pos);
    if (!tok.empty()) out.push_back(std::stod(tok));
    pos = comma + 1;
  }
  if (out.empty()) throw std::invalid_argument("empty rate list: " + text);
  return out;
}

gpu::SolverKind solver_from_token(const std::string& tok) {
  if (tok == "hybrid") return gpu::SolverKind::hybrid;
  if (tok == "hybrid-fused") return gpu::SolverKind::hybrid_fused;
  if (tok == "pthomas") return gpu::SolverKind::pthomas_only;
  if (tok == "zhang") return gpu::SolverKind::zhang;
  if (tok == "cr") return gpu::SolverKind::cr;
  if (tok == "davidson") return gpu::SolverKind::davidson;
  if (tok == "partition") return gpu::SolverKind::partition;
  throw std::invalid_argument(
      "unknown --solver: " + tok +
      " (expected hybrid, hybrid-fused, pthomas, zhang, cr, davidson or "
      "partition)");
}

/// Exact percentile of a sorted sample (nearest-rank).
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

/// `count` random diagonally dominant N-row request systems from `seed`.
std::vector<tridiag::TridiagSystem<double>> make_population(
    std::size_t count, std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<tridiag::TridiagSystem<double>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(workloads::make_request_system(
        workloads::Kind::random_dominant, n, rng));
  }
  return out;
}

struct PacedRun {
  std::vector<service::SolveResult> results;
  obs::JsonValue record;
};

/// Submit systems[i] to `svc` on `tcfg`'s arrival schedule (priority
/// i % priorities), wait for every future, then shut `svc` down. The
/// returned record carries the base fields and the service_* group
/// (obs/record_schema.hpp), every field measured from this run except
/// service_solo_sim_us, the caller's solo baseline (0 when it ran none).
PacedRun run_paced(service::SolveService& svc, const std::string& solver_tok,
                   const std::vector<tridiag::TridiagSystem<double>>& systems,
                   const workloads::TrafficConfig& tcfg, double deadline_us,
                   int priorities, double solo_sim_us) {
  const auto arrivals = workloads::arrival_times_us(tcfg);
  std::vector<std::future<service::SolveResult>> futures;
  futures.reserve(systems.size());
  const auto base = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < systems.size(); ++i) {
    std::this_thread::sleep_until(
        base + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double, std::micro>(arrivals[i])));
    service::SolveRequest req;
    req.system = systems[i].clone();
    req.deadline_us = deadline_us;
    req.priority = static_cast<int>(i % static_cast<std::size_t>(priorities));
    futures.push_back(svc.submit(std::move(req)));
  }
  PacedRun run;
  run.results.reserve(futures.size());
  for (auto& f : futures) run.results.push_back(f.get());
  const auto done = std::chrono::steady_clock::now();
  svc.shutdown();

  std::vector<double> latencies;
  latencies.reserve(run.results.size());
  std::map<std::uint64_t, std::pair<std::size_t, double>> batches;
  std::size_t dispatched = 0;  // results that rode a batch
  for (const auto& r : run.results) {
    latencies.push_back(r.latency_us);
    if (r.batch_id == 0) continue;
    ++dispatched;
    batches[r.batch_id] = {r.batch_size, r.solve_us};
  }
  std::sort(latencies.begin(), latencies.end());
  double batched_sim_us = 0.0;
  std::size_t occ_max = 0;
  for (const auto& [id, info] : batches) {
    batched_sim_us += info.second;
    occ_max = std::max(occ_max, info.first);
  }
  const double requests = static_cast<double>(systems.size());
  const double wall_s = std::chrono::duration<double>(done - base).count();

  obs::JsonValue& rec = run.record = obs::JsonValue::object();
  rec["solver"] = solver_tok;
  rec["m"] = requests;
  rec["n"] = systems.front().size();
  rec["time_us"] = batched_sim_us;
  rec["service_offered_rps"] = tcfg.rate_rps;
  rec["service_achieved_rps"] = wall_s > 0.0 ? requests / wall_s : 0.0;
  rec["service_requests"] = requests;
  rec["service_expired"] = svc.requests_expired();
  rec["service_batches"] = svc.batches_launched();
  rec["service_occupancy_mean"] =
      batches.empty() ? 0.0
                      : static_cast<double>(dispatched) /
                            static_cast<double>(batches.size());
  rec["service_occupancy_max"] = occ_max;
  rec["service_p50_us"] = percentile(latencies, 50.0);
  rec["service_p99_us"] = percentile(latencies, 99.0);
  rec["service_batched_sim_us"] = batched_sim_us;
  rec["service_solo_sim_us"] = solo_sim_us;
  rec["service_shed"] = svc.requests_shed();
  rec["service_degraded"] = svc.requests_degraded();
  rec["service_retried"] = svc.requests_retried();
  return run;
}

// ---------------------------------------------------------------------------
// Chaos soak harness (--soak)

int g_soak_failures = 0;

void soak_check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++g_soak_failures;
}

/// Every SolveCode the service may hand back is "structured": it has a
/// name in the taxonomy (never a stray integer or uninitialized enum).
bool structured(tridiag::SolveCode c) {
  const std::string name = tridiag::solve_code_name(c);
  return name != "?" && !name.empty();
}

/// Drain a staged (auto_start = false) service and collect every result.
/// shutdown() runs the batcher inline, so admission order — and with it
/// batch composition — is deterministic.
std::vector<service::SolveResult> drain(
    service::SolveService& svc,
    std::vector<std::future<service::SolveResult>>& futures) {
  svc.shutdown();
  std::vector<service::SolveResult> out;
  out.reserve(futures.size());
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

struct SoakParams {
  std::size_t n = 64;
  gpu::SolverKind solver = gpu::SolverKind::hybrid;
  std::string solver_tok = "hybrid";
  std::uint64_t seed = 42;
  gpusim::DeviceSpec dev = gpusim::gtx480();
  // Live-phase knobs (CLI-driven).
  double window_us = 200.0;
  std::size_t max_batch = 4096;
  std::size_t max_queue = 0;        ///< 0 → soak default (256)
  std::size_t max_queue_bytes = 0;
  service::ShedPolicy policy = service::ShedPolicy::reject_newest;
  int breaker_threshold = 0;        ///< 0 → soak default (4)
  double breaker_cooldown_us = 5000.0;
  double deadline_us = 0.0;         ///< per-request, from --deadline-us
  std::size_t requests = 200;
  double rate_rps = 50000.0;
  double burst = 4.0;
};

/// Phase 1: hard overload against a depth bound — excess is shed with
/// SolveCode::overloaded and pristine inputs; the bound provably holds.
void soak_phase_overload(const SoakParams& sp) {
  std::printf("phase 1: overload shedding (bound 32, offered 64)\n");
  const std::size_t offered = 64, bound = 32;
  const auto systems = make_population(offered, sp.n, sp.seed + 1);

  service::ServiceConfig scfg;
  scfg.auto_start = false;  // staged: nothing drains until shutdown
  scfg.batch_window_us = 0.0;
  scfg.max_batch = 8;
  scfg.solver = sp.solver;
  scfg.device = sp.dev;
  scfg.admission.max_queue = bound;
  scfg.admission.policy = service::ShedPolicy::reject_newest;
  service::SolveService svc(scfg);

  std::vector<std::future<service::SolveResult>> futures;
  for (std::size_t i = 0; i < offered; ++i) {
    service::SolveRequest req;
    req.system = systems[i].clone();
    futures.push_back(svc.submit(std::move(req)));
  }
  const auto results = drain(svc, futures);

  std::size_t shed = 0, ok = 0;
  bool pristine = true, codes_fine = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    codes_fine &= structured(r.code);
    if (r.code == tridiag::SolveCode::overloaded) {
      ++shed;
      for (std::size_t k = 0; k < sp.n; ++k) {
        if (r.x[k] != systems[i].d()[k]) pristine = false;
      }
    } else if (r.code == tridiag::SolveCode::ok) {
      ++ok;
    }
  }
  soak_check(results.size() == offered, "every submitted future resolved");
  soak_check(shed == offered - bound && svc.requests_shed() == shed,
             "exactly " + std::to_string(offered - bound) +
                 " requests shed with overloaded (got " +
                 std::to_string(shed) + ")");
  soak_check(ok == bound, "every admitted request solved ok");
  soak_check(pristine, "shed requests carry their pristine rhs");
  soak_check(codes_fine, "only structured codes");
  soak_check(svc.peak_queue_depth() <= bound,
             "peak queue depth " + std::to_string(svc.peak_queue_depth()) +
                 " <= bound " + std::to_string(bound));
}

/// Phase 2a: total launch-fault storm, full fallback chain — the host
/// stages recover every rider; provenance shows the retries.
void soak_phase_storm_recovery(const SoakParams& sp) {
  std::printf("phase 2a: launch-fault storm, fallback chain recovers\n");
  gpusim::FaultPlan storm;
  storm.seed = sp.seed;
  storm.rate = 1.0;
  storm.kinds = gpusim::kFaultLaunchFail;
  gpusim::ScopedFaultPlan scoped(storm);

  const std::size_t m = 16;
  const auto systems = make_population(m, sp.n, sp.seed + 2);
  service::ServiceConfig scfg;
  scfg.auto_start = false;
  scfg.batch_window_us = 0.0;
  scfg.max_batch = m;
  scfg.solver = sp.solver;
  scfg.device = sp.dev;
  scfg.max_retries = 0;  // degrade straight down the chain
  service::SolveService svc(scfg);

  std::vector<std::future<service::SolveResult>> futures;
  for (const auto& sys : systems) {
    service::SolveRequest req;
    req.system = sys.clone();
    futures.push_back(svc.submit(std::move(req)));
  }
  const auto results = drain(svc, futures);

  bool all_ok = true, all_recovered = true, all_retried = true;
  for (const auto& r : results) {
    all_ok &= r.code == tridiag::SolveCode::ok;
    all_recovered &= r.recovered;
    all_retried &= r.attempts > 1;
  }
  soak_check(results.size() == m, "every submitted future resolved");
  soak_check(all_ok, "host fallback stages recovered every rider");
  soak_check(all_recovered, "results carry recovered = true provenance");
  soak_check(all_retried && svc.requests_retried() >= m,
             "every request shows > 1 attempt (service.requests.retried)");
}

/// Phase 2b: entry-only chain + consecutive failures — the breaker trips
/// open and degrades the rest of the drain to host-Thomas.
void soak_phase_breaker(const SoakParams& sp) {
  std::printf("phase 2b: breaker trips open, degrades to host-Thomas\n");
  gpusim::FaultPlan storm;
  storm.seed = sp.seed;
  storm.rate = 1.0;
  storm.kinds = gpusim::kFaultLaunchFail;
  gpusim::ScopedFaultPlan scoped(storm);

  const std::size_t m = 16;
  const auto systems = make_population(m, sp.n, sp.seed + 3);
  service::ServiceConfig scfg;
  scfg.auto_start = false;
  scfg.batch_window_us = 0.0;
  scfg.max_batch = 4;
  scfg.solver = gpu::SolverKind::pthomas_only;
  scfg.device = sp.dev;
  scfg.max_retries = 0;
  scfg.fallback_chain = {"pthomas"};  // entry-only: no recovery stages
  scfg.breaker.threshold = 2;
  scfg.breaker.cooldown_us = 60e6;  // stays open for the whole drain
  service::SolveService svc(scfg);

  std::vector<std::future<service::SolveResult>> futures;
  for (const auto& sys : systems) {
    service::SolveRequest req;
    req.system = sys.clone();
    futures.push_back(svc.submit(std::move(req)));
  }
  const auto results = drain(svc, futures);

  std::size_t degraded = 0;
  bool codes_fine = true;
  for (const auto& r : results) {
    codes_fine &= structured(r.code);
    if (r.degraded) ++degraded;
  }
  std::printf("  breaker: state=%s trips=%llu resets=%llu degraded=%zu\n",
              service::breaker_state_name(svc.breaker().state()),
              static_cast<unsigned long long>(svc.breaker().trips()),
              static_cast<unsigned long long>(svc.breaker().resets()),
              degraded);
  soak_check(results.size() == m, "every submitted future resolved");
  soak_check(svc.breaker().trips() >= 1, "breaker tripped at least once");
  soak_check(svc.breaker().state() == service::BreakerState::open,
             "breaker open after the storm");
  soak_check(degraded >= 1 && svc.requests_degraded() == degraded,
             "open breaker degraded requests to host-Thomas (" +
                 std::to_string(degraded) + ")");
  soak_check(codes_fine, "only structured codes");
}

/// Phase 2c: breaker disabled, entry-only chain — bisection walks the
/// poisoned batch down to solos and quarantines every offender.
void soak_phase_quarantine(const SoakParams& sp) {
  std::printf("phase 2c: bisection quarantines poisoned solos\n");
  gpusim::FaultPlan storm;
  storm.seed = sp.seed;
  storm.rate = 1.0;
  storm.kinds = gpusim::kFaultLaunchFail;
  gpusim::ScopedFaultPlan scoped(storm);

  const std::size_t m = 4;
  const auto systems = make_population(m, sp.n, sp.seed + 4);
  service::ServiceConfig scfg;
  scfg.auto_start = false;
  scfg.batch_window_us = 0.0;
  scfg.max_batch = m;
  scfg.solver = gpu::SolverKind::pthomas_only;
  scfg.device = sp.dev;
  scfg.max_retries = 0;
  scfg.fallback_chain = {"pthomas"};
  service::SolveService svc(scfg);

  std::vector<std::future<service::SolveResult>> futures;
  for (const auto& sys : systems) {
    service::SolveRequest req;
    req.system = sys.clone();
    futures.push_back(svc.submit(std::move(req)));
  }
  const auto results = drain(svc, futures);

  bool all_quarantined = true, pristine = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    all_quarantined &= r.code == tridiag::SolveCode::launch_failed;
    for (std::size_t k = 0; k < sp.n; ++k) {
      if (r.x[k] != systems[i].d()[k]) pristine = false;
    }
  }
  soak_check(results.size() == m, "every submitted future resolved");
  soak_check(all_quarantined && svc.requests_quarantined() == m,
             "all " + std::to_string(m) +
                 " poisoned solos quarantined launch_failed");
  soak_check(svc.batches_bisected() >= 1,
             "batch was bisected on the way down (" +
                 std::to_string(svc.batches_bisected()) + " bisections)");
  soak_check(pristine, "quarantined requests carry their pristine rhs");
}

/// Phase 3: live bursty traffic under the operator's --fault-* plan and
/// a bounded queue — invariants only (arrival timing is wall-clock).
void soak_phase_live(const SoakParams& sp, bench::Telemetry& telemetry) {
  const std::size_t bound = sp.max_queue > 0 ? sp.max_queue : 256;
  const int threshold = sp.breaker_threshold > 0 ? sp.breaker_threshold : 4;
  std::printf(
      "phase 3: live bursty traffic (%zu req @ %.0f rps burst %.1f, "
      "bound %zu, policy %s, breaker threshold %d)\n",
      sp.requests, sp.rate_rps, sp.burst, bound,
      service::shed_policy_name(sp.policy), threshold);

  const auto systems = make_population(sp.requests, sp.n, sp.seed + 5);
  workloads::TrafficConfig tcfg;
  tcfg.rate_rps = sp.rate_rps;
  tcfg.burst = sp.burst;
  tcfg.requests = sp.requests;
  tcfg.seed = sp.seed;

  service::ServiceConfig scfg;
  scfg.batch_window_us = sp.window_us;
  scfg.max_batch = sp.max_batch;
  scfg.solver = sp.solver;
  scfg.device = sp.dev;
  scfg.admission.max_queue = bound;
  scfg.admission.max_queue_bytes = sp.max_queue_bytes;
  scfg.admission.policy = sp.policy;
  scfg.breaker.threshold = threshold;
  scfg.breaker.cooldown_us = sp.breaker_cooldown_us;
  service::SolveService svc(scfg);
  // No solo baseline here: its launches would consume injected faults, so
  // service_solo_sim_us stays 0.
  auto& registry = obs::MetricsRegistry::instance();
  const double faults_before =
      registry.counter("gpusim.fault.launch_failures");
  PacedRun run = run_paced(svc, sp.solver_tok, systems, tcfg, sp.deadline_us,
                           /*priorities=*/3, /*solo_sim_us=*/0.0);
  const auto live_faults = static_cast<long long>(
      registry.counter("gpusim.fault.launch_failures") - faults_before);

  std::map<std::string, std::size_t> by_code;
  bool codes_fine = true;
  for (const auto& r : run.results) {
    codes_fine &= structured(r.code);
    ++by_code[tridiag::solve_code_name(r.code)];
  }
  std::printf("  outcome mix:");
  for (const auto& [name, count] : by_code) {
    std::printf(" %s=%zu", name.c_str(), count);
  }
  std::printf("\n  breaker: state=%s trips=%llu resets=%llu\n",
              service::breaker_state_name(svc.breaker().state()),
              static_cast<unsigned long long>(svc.breaker().trips()),
              static_cast<unsigned long long>(svc.breaker().resets()));
  soak_check(run.results.size() == sp.requests,
             "every submitted future resolved");
  soak_check(codes_fine, "only structured codes under live faults (" +
                             std::to_string(live_faults) +
                             " launch failures drawn)");
  // A plan that asks for launch failures must have drawn one here, or
  // the check above covered no fault at all (pick a --fault-seed that
  // fires within the phase's first launches).
  const gpusim::FaultPlan plan = gpusim::ExecutionEngine::instance().fault_plan();
  if ((plan.kinds & gpusim::kFaultLaunchFail) != 0 && plan.rate > 0.0) {
    soak_check(live_faults >= 1,
               "the live phase drew at least one launch failure");
  }
  soak_check(svc.peak_queue_depth() <= bound,
             "peak queue depth " + std::to_string(svc.peak_queue_depth()) +
                 " <= bound " + std::to_string(bound));
  const std::uint64_t accounted =
      svc.requests_completed() + svc.requests_expired() + svc.requests_shed();
  soak_check(accounted == sp.requests,
             "completed + expired + shed == submitted (" +
                 std::to_string(accounted) + " of " +
                 std::to_string(sp.requests) + ")");

  run.record["soak"] = true;
  telemetry.record_raw(std::move(run.record));
}

int run_soak(const SoakParams& sp, bench::Telemetry& telemetry) {
  std::printf("chaos soak: solver=%s n=%zu seed=%llu\n", sp.solver_tok.c_str(),
              sp.n, static_cast<unsigned long long>(sp.seed));
  // Live traffic first: its record's fault group counts from the
  // Telemetry's construction, so the staged storms must not run before it.
  soak_phase_live(sp, telemetry);
  soak_phase_overload(sp);
  soak_phase_storm_recovery(sp);
  soak_phase_breaker(sp);
  soak_phase_quarantine(sp);
  if (g_soak_failures == 0) {
    std::printf("chaos soak: all invariants held\n");
    return 0;
  }
  std::printf("chaos soak: %d invariant(s) FAILED\n", g_soak_failures);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(
      argc, argv,
      util::with_obs_flags({"arrival-rate", "requests", "burst",
                            "batch-window-us", "max-batch", "n",
                            "solver", "seed", "quick", "smoke", "soak",
                            "max-queue", "max-queue-bytes", "shed-policy",
                            "breaker-threshold", "breaker-cooldown-us"}));
  const auto dev = gpusim::gtx480();
  bench::Telemetry telemetry(cli, "service");

  std::vector<double> rates{2000, 10000, 50000, 250000};
  std::size_t requests =
      static_cast<std::size_t>(cli.get_int("requests", 600));
  std::size_t n = static_cast<std::size_t>(cli.get_int("n", 128));
  const bool soak = cli.get_bool("soak", false);
  if (cli.get_bool("quick", false)) {
    rates = {5000, 50000};
    requests = static_cast<std::size_t>(cli.get_int("requests", 200));
  }
  if (cli.get_bool("smoke", false) || soak) {
    rates = {20000};
    requests = static_cast<std::size_t>(cli.get_int("requests", 60));
    n = static_cast<std::size_t>(cli.get_int("n", 64));
  }
  if (const auto v = cli.get("arrival-rate")) rates = parse_rates(*v);
  if (requests == 0) throw std::invalid_argument("--requests must be >= 1");

  const double burst = cli.get_double("burst", soak ? 4.0 : 1.0);
  const double window_us = cli.get_double("batch-window-us", 200.0);
  const std::size_t max_batch =
      static_cast<std::size_t>(cli.get_int("max-batch", 4096));
  const std::string solver_tok = cli.get_string("solver", "hybrid");
  const gpu::SolverKind solver = solver_from_token(solver_tok);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const std::size_t max_queue =
      static_cast<std::size_t>(cli.get_int("max-queue", 0));
  const std::size_t max_queue_bytes =
      static_cast<std::size_t>(cli.get_int("max-queue-bytes", 0));
  const service::ShedPolicy policy =
      service::parse_shed_policy(cli.get_string("shed-policy", "reject-newest"));
  const int breaker_threshold =
      static_cast<int>(cli.get_int("breaker-threshold", 0));
  const double breaker_cooldown_us =
      cli.get_double("breaker-cooldown-us", 5000.0);
  // Per-request deadline rides the engine's --deadline-us default, which
  // Telemetry already applied via configure_engine_from_cli.
  const double deadline_us =
      gpusim::ExecutionEngine::instance().default_deadline_us();

  if (soak) {
    SoakParams sp;
    sp.n = n;
    sp.solver = solver;
    sp.solver_tok = solver_tok;
    sp.seed = seed;
    sp.dev = dev;
    sp.window_us = window_us;
    sp.max_batch = max_batch;
    sp.max_queue = max_queue;
    sp.max_queue_bytes = max_queue_bytes;
    sp.policy = policy;
    sp.breaker_threshold = breaker_threshold;
    sp.breaker_cooldown_us = breaker_cooldown_us;
    sp.deadline_us = deadline_us;
    sp.requests = requests;
    sp.rate_rps = rates.front();
    sp.burst = burst;
    return run_soak(sp, telemetry);
  }

  // One deterministic request population per run, shared across every
  // sweep point so the curve varies only in arrival pattern.
  const auto systems = make_population(requests, n, seed);

  // Solo baseline: the simulated cost of launching every request on its
  // own (the no-service world). Rate-independent, so computed once.
  gpu::SolverRunOptions solo_opts;
  solo_opts.guard = true;
  double solo_sim_us = 0.0;
  for (const auto& sys : systems) {
    tridiag::SystemBatch<double> one(1, n, gpu::preferred_layout(1, n));
    tridiag::copy_system(sys.ref(), one.system(0));
    solo_sim_us += gpu::run_solver(solver, dev, one, solo_opts).time_us;
  }

  util::Table table("Solve service saturation sweep (" + solver_tok +
                    ", N=" + std::to_string(n) +
                    ", window=" + util::Table::num(window_us, 0) + "us)");
  table.set_header({"rate[rps]", "achieved", "req", "batches", "occ.mean",
                    "occ.max", "p50[us]", "p99[us]", "shed", "degr",
                    "sim.batch[ms]", "sim.solo[ms]", "speedup"});

  for (const double rate : rates) {
    workloads::TrafficConfig tcfg;
    tcfg.rate_rps = rate;
    tcfg.burst = burst;
    tcfg.requests = requests;
    tcfg.seed = seed;

    service::ServiceConfig scfg;
    scfg.batch_window_us = window_us;
    scfg.max_batch = max_batch;
    scfg.solver = solver;
    scfg.device = dev;
    scfg.admission.max_queue = max_queue;
    scfg.admission.max_queue_bytes = max_queue_bytes;
    scfg.admission.policy = policy;
    scfg.breaker.threshold = breaker_threshold;
    scfg.breaker.cooldown_us = breaker_cooldown_us;
    service::SolveService svc(scfg);
    PacedRun run = run_paced(svc, solver_tok, systems, tcfg, deadline_us,
                             /*priorities=*/1, solo_sim_us);
    const auto field = [&run](const char* key) {
      return run.record.find(key)->as_number();
    };
    const double batched_sim_us = field("service_batched_sim_us");
    const double speedup =
        batched_sim_us > 0.0 ? solo_sim_us / batched_sim_us : 0.0;

    table.add_row({util::Table::integer(static_cast<long long>(rate)),
                   util::Table::integer(
                       static_cast<long long>(field("service_achieved_rps"))),
                   util::Table::integer(static_cast<long long>(requests)),
                   util::Table::integer(
                       static_cast<long long>(svc.batches_launched())),
                   util::Table::num(field("service_occupancy_mean"), 1),
                   util::Table::integer(
                       static_cast<long long>(field("service_occupancy_max"))),
                   bench::us(field("service_p50_us")),
                   bench::us(field("service_p99_us")),
                   util::Table::integer(
                       static_cast<long long>(svc.requests_shed())),
                   util::Table::integer(
                       static_cast<long long>(svc.requests_degraded())),
                   bench::ms(batched_sim_us),
                   bench::ms(solo_sim_us), bench::ratio(speedup)});
    telemetry.record_raw(std::move(run.record));
  }
  bench::emit(table);
  return 0;
}
