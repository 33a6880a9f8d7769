#pragma once
// Front-door solve service: dynamic batch coalescing for small requests.
//
// The paper's central performance result (Fig. 12) is that the GPU only
// wins in the large-batch regime — time is flat in M until the machine
// saturates, so a solo N-row solve wastes almost the whole device. A
// service with millions of small independent clients therefore must not
// launch per request: it must coalesce many compatible requests into one
// large interleaved batch and ride the flat part of the curve. That is
// exactly what SolveService does:
//
//   submit() ──► admission ──► one queue ──────────► batcher thread
//     (any thread)  (bounds      (one mutex)          (coalesce + admit)
//                    + shedding)                             │
//                                        gather one SystemBatch
//                                                            │
//      execute — the breaker gate picks the stage: pass = resilient
//      solve (registry, plan_hybrid), degrade = host Thomas
//                                                            │
//   future<SolveResult> ◄── scatter per-request code/latency/provenance
//                           (launch-failed members bisect, re-dispatch)
//
// Coalescing rules: requests are compatible when they agree on system
// size N and element size (double today). The batcher opens a batch at
// the oldest pending request and admits every compatible request that
// arrives within `batch_window_us` of it, capped at `max_batch`; the
// window closes early when the batch fills, when shutdown drains, or
// when waiting longer would expire a member's deadline. Admission order
// is (priority desc, submission order) — deterministic for a quiesced
// queue.
//
// Overload (docs/SERVICE.md § Overload & degradation): admission bounds
// (cfg.admission) shed excess load at submit() with
// SolveCode::overloaded and the pristine rhs — never a blocked or lost
// future. The depth bound counts every admitted-but-undispatched request
// (the queue plus the batcher's backlog), so it is a hard cap on queue
// growth, provable via peak_queue_depth().
//
// Faults: every batch the breaker passes dispatches through
// run_solver_resilient — guarded solve, chunked retries from pristine
// inputs, degradation down the fallback chain, and a simulated budget
// derived from the earliest member deadline. A batch that stays
// launch_failed after that is *bisected*: both halves re-dispatch from
// pristine inputs so one poisoned request cannot fail its co-batched
// riders; a request still failing alone is quarantined with its own
// launch_failed code. Consecutive dispatch failures trip the circuit
// breaker (cfg.breaker), which degrades whole batches to the
// fault-immune host-Thomas stage for a cooldown before half-open
// probing. Per-request provenance lands on SolveResult:
// attempts, recovered, degraded.
//
// Deadline semantics (per request, wall time from submit; 0, or a budget
// past the steady clock's range, = none):
//   * expires in-queue — the request is never dispatched; its future is
//     fulfilled with SolveCode::deadline and the pristine right-hand
//     side, exactly like the resilient pipeline's budget-exhausted
//     partial results.
//   * expires in-flight — the solved solution is still delivered, but
//     an `ok` code is upgraded to SolveCode::timed_out (the answer is
//     late; per the taxonomy, results past budget are suspect). A more
//     severe per-system code is kept instead.
//
// Determinism contract: a batch assembled from requests r_0..r_{M-1} (in
// admission order) solves bit-identically to a direct run_solver call on
// the same M x N batch with the same options — the service adds gather/
// scatter copies and no arithmetic (every resilient dispatch runs the
// plan plan_hybrid gives the whole coalesced batch, the plan a direct
// call makes). Pinned by tests/test_service.cpp for every solver kind,
// solo and coalesced.
//
// Thread-safety: submit() is safe from any thread. One mutex guards the
// queue, the admission bounds and the lifecycle flags; submit() pushes
// under it and the batcher takes the whole queue under it, then gathers,
// dispatches and fulfils futures unlocked. One batcher thread owns
// admission-to-batch and dispatch. shutdown() (and the destructor) stops
// intake, drains every queued request — every future is fulfilled, none
// lost — and joins the batcher.
//
// Observability (all through the process-wide registry; names documented
// in docs/SERVICE.md): counters service.requests.{submitted,completed,
// expired,rejected,shed,retried,degraded,quarantined}, service.batches,
// service.batches.solo, service.batches.bisected,
// service.breaker.{trips,resets}; gauges service.queue.depth,
// service.batch.occupancy, service.breaker.state; histograms
// service.request.latency_us, service.request.queue_us,
// service.batch.size, service.batch.solve_us. With span tracing enabled
// (--spans-json) every batch emits a `service.batch` span with one
// `service.request` child per member.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gpu_solvers/registry.hpp"
#include "gpusim/device_spec.hpp"
#include "obs/metrics.hpp"
#include "service/admission.hpp"
#include "service/breaker.hpp"
#include "tridiag/layout.hpp"
#include "tridiag/types.hpp"

namespace tridsolve::service {

/// Service-wide knobs (fixed at construction). Units are stated per
/// field; docs/SERVICE.md is the operator reference for tuning them.
/// Invalid combinations (max_batch == 0, a batch_window_us or
/// breaker.cooldown_us that is negative, not finite or past the steady
/// clock's range, an unknown fallback_chain token) are rejected
/// structurally: the service constructs into a rejecting state where
/// every submit() resolves immediately with SolveCode::bad_argument and
/// config_error() names the offending knob — never silent clamping of a
/// nonsensical value.
struct ServiceConfig {
  /// Coalescing window in wall microseconds, measured from the arrival
  /// of the oldest request in the open batch. Larger windows build
  /// bigger batches (higher throughput, Fig. 12 regime) at the cost of
  /// added p50 latency; 0 dispatches every request as it is seen.
  /// Negative, non-finite or out-of-range values are rejected
  /// (bad_argument).
  double batch_window_us = 200.0;
  /// Admission cap: at most this many requests ride one launch. Zero is
  /// rejected (bad_argument) — it would make dispatch impossible.
  std::size_t max_batch = 4096;
  /// Solver every batch is dispatched through (the registry plans each
  /// coalesced shape with plan_hybrid).
  gpu::SolverKind solver = gpu::SolverKind::hybrid;
  /// Start the batcher thread in the constructor. Tests set false and
  /// call start() after staging requests, making admission
  /// deterministic.
  bool auto_start = true;
  /// Simulated device every batch launches on.
  gpusim::DeviceSpec device = gpusim::gtx480();

  /// Queue bounds + shedding policy (admission.hpp). Defaults unbounded,
  /// preserving pre-overload-control behavior.
  AdmissionConfig admission{};
  /// Circuit breaker over consecutive dispatch failures (breaker.hpp).
  /// Default threshold 0 = disabled.
  BreakerConfig breaker{};
  /// Re-dispatches per resilient stage; -1 = the engine's --max-retries
  /// default. Tests pin 0 to make single-dispatch failures deterministic.
  int max_retries = -1;
  /// Resilient fallback-stage names after the entry solver; empty = the
  /// registry default (pthomas → cpu-thomas → lu). Pass the entry
  /// solver's own token to disable fallbacks entirely. An unknown token
  /// is rejected at construction (bad_argument).
  std::vector<std::string> fallback_chain{};
};

/// One client request: an owned N-row system plus its SLO.
struct SolveRequest {
  tridiag::TridiagSystem<double> system;
  /// Wall-clock budget in microseconds from submit(); 0 = no deadline, as
  /// is a budget past the steady clock's range.
  double deadline_us = 0.0;
  /// Higher priority admits first when a window oversubscribes — and
  /// survives reject_lowest_priority shedding under overload.
  int priority = 0;
};

/// What a client gets back, one per request.
struct SolveResult {
  tridiag::SolveCode code = tridiag::SolveCode::ok;
  /// Solution vector (length N). For requests that never ran (expired
  /// in-queue, shed, rejected, failed launch) this is the pristine rhs —
  /// the service never hands back partially-eliminated garbage.
  std::vector<double> x;
  double latency_us = 0.0;   ///< submit → fulfillment, wall
  double queue_us = 0.0;     ///< submit → admission, wall (== latency_us
                             ///< for requests that expired in-queue)
  double solve_us = 0.0;     ///< simulated time of the dispatches it rode
  std::uint64_t batch_id = 0;  ///< 1-based; 0 = never admitted
  std::size_t batch_size = 0;  ///< occupancy of its coalesced launch
  double pivot_growth = 1.0;   ///< per-system guard estimate (1.0 unguarded)
  /// Dispatch attempts that touched this request, across retries,
  /// fallback stages and bisection re-dispatches (0 = never dispatched).
  std::uint32_t attempts = 0;
  /// A failure or flag was detected on some attempt, but a retry,
  /// fallback stage or bisection still delivered this clean result.
  bool recovered = false;
  /// Solved by the open circuit breaker's host-Thomas degrade path
  /// instead of the configured solver (correct, but host-speed and
  /// outside the simulated-GPU cost model).
  bool degraded = false;
};

class SolveService {
 public:
  explicit SolveService(ServiceConfig cfg = {});
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Empty when the config validated; otherwise the reason every
  /// submit() is being rejected with bad_argument.
  [[nodiscard]] const std::string& config_error() const noexcept {
    return config_error_;
  }

  /// Enqueue one request. Returns immediately; the future is fulfilled
  /// by the batcher. After shutdown() (or with an invalid config) the
  /// request is rejected: the future is ready at once with
  /// SolveCode::bad_argument and the pristine rhs. Empty systems are
  /// rejected with SolveCode::bad_size. When an admission bound is hit,
  /// the shed policy picks a victim (this request or a queued one) and
  /// resolves it with SolveCode::overloaded and its pristine rhs.
  std::future<SolveResult> submit(SolveRequest req);

  /// Launch the batcher thread (no-op when already running or when the
  /// config was rejected). Only needed with auto_start = false.
  void start();

  /// Stop intake, drain every queued request (all futures fulfilled),
  /// join the batcher. Idempotent; also run by the destructor.
  void shutdown();

  /// Lifetime tallies of this instance (the registry metrics aggregate
  /// across instances; tests want per-service numbers).
  [[nodiscard]] std::uint64_t batches_launched() const noexcept;
  [[nodiscard]] std::uint64_t requests_completed() const noexcept;
  [[nodiscard]] std::uint64_t requests_expired() const noexcept;
  [[nodiscard]] std::uint64_t requests_shed() const noexcept;
  [[nodiscard]] std::uint64_t requests_retried() const noexcept;
  [[nodiscard]] std::uint64_t requests_degraded() const noexcept;
  [[nodiscard]] std::uint64_t requests_quarantined() const noexcept;
  [[nodiscard]] std::uint64_t batches_bisected() const noexcept;

  /// High-water mark of admitted-but-undispatched requests; never
  /// exceeds cfg.admission.max_queue when that bound is set.
  [[nodiscard]] std::size_t peak_queue_depth() const noexcept;

  [[nodiscard]] const CircuitBreaker& breaker() const noexcept {
    return breaker_;
  }
  [[nodiscard]] const AdmissionController& admission() const noexcept {
    return admission_;
  }

 private:
  struct Pending;

  void batcher_main();
  /// One pipeline per batch: gather, the execute stage the breaker gate
  /// picks, scatter. Bisection halves re-enter here, so an ongoing fault
  /// storm trips the breaker mid-recovery instead of hammering a failing
  /// engine.
  void dispatch(std::vector<Pending> group);
  void fulfill_unran(Pending& p, tridiag::SolveCode code);
  void shed(Pending& p);
  /// The lowest-priority queued request strictly below
  /// `incoming_priority` (newest among ties), or nullptr. Caller holds mu_.
  [[nodiscard]] const Pending* lowest_priority_victim(
      int incoming_priority) const;
  /// The queued request with the least deadline headroom whose estimated
  /// wait already exceeds it (brownout victim search), or nullptr. Caller
  /// holds mu_.
  [[nodiscard]] const Pending* doomed_victim(
      std::chrono::steady_clock::time_point now) const;
  /// Take a victim out of the queue and release its reservation; the
  /// caller holds mu_ and sheds the returned request after unlocking.
  Pending evict(const Pending& victim);

  ServiceConfig cfg_;
  std::string config_error_;

  /// Guards queue_, next_seq_, the lifecycle flags and every change to
  /// admission_'s bounds; cv_ signals "queue_ non-empty or stop_".
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Pending> queue_;
  std::uint64_t next_seq_ = 0;
  bool accepting_ = false;
  bool stop_ = false;

  std::thread batcher_;
  std::mutex lifecycle_mu_;  ///< serializes start()/shutdown()

  AdmissionController admission_;
  CircuitBreaker breaker_;

  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> retried_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> quarantined_{0};
  std::atomic<std::uint64_t> bisections_{0};

  // Metric handles resolved once (hot submit/dispatch paths).
  obs::MetricsRegistry::Counter m_submitted_, m_completed_, m_expired_,
      m_rejected_, m_shed_, m_retried_, m_degraded_, m_quarantined_,
      m_batches_, m_solo_batches_, m_bisected_batches_;
  obs::MetricsRegistry::Histogram h_latency_, h_queue_, h_batch_size_,
      h_solve_us_;
};

}  // namespace tridsolve::service
