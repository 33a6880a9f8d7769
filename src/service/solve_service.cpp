#include "service/solve_service.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <optional>
#include <utility>

#include "gpu_solvers/transition.hpp"
#include "obs/span_tracer.hpp"
#include "tridiag/resilient_solve.hpp"

namespace tridsolve::service {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double us_between(Clock::time_point t0,
                                Clock::time_point t1) noexcept {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// How far before the earliest member deadline a deadline-driven window
/// closes: the lead time that window leaves the solve. The pass after a
/// timed-out window wait is judged at the close time, not at the late
/// wake (batcher_main), so wake-up latency cannot expire the member that
/// shortened the window; an answer that still lands past its deadline
/// becomes timed_out. Requests whose whole deadline is shorter than the
/// margin dispatch on the first pass that sees them.
constexpr auto kDeadlineDispatchMargin = std::chrono::microseconds(1000);

/// Queue-bytes charged per request: the four coefficient arrays it holds
/// until dispatch gathers them into the coalesced batch.
[[nodiscard]] std::size_t queued_bytes(std::size_t n) noexcept {
  return 4 * n * sizeof(double);
}

}  // namespace

/// One accepted request waiting for (or riding) a batch.
struct SolveService::Pending {
  std::uint64_t seq = 0;
  SolveRequest req;
  std::promise<SolveResult> promise;
  Clock::time_point arrival{};
  Clock::time_point deadline{};  ///< meaningful only when has_deadline
  bool has_deadline = false;
  /// Admission reservation held (released under the queue lock at
  /// dispatch extraction, expiry, or eviction — never while still queued,
  /// so the depth bound also covers the batcher's backlog).
  std::size_t bytes = 0;
  /// Provenance carried across bisection re-dispatches: attempts and
  /// simulated time already spent on this request by earlier failed
  /// dispatches, and whether any of them failed (feeds
  /// SolveResult::recovered when a later dispatch succeeds).
  std::uint32_t prior_attempts = 0;
  double prior_solve_us = 0.0;
  bool saw_failure = false;
  /// Submit timestamp on the tracer's wall clock; < 0 when tracing was
  /// off at submit time (child spans then start at batch start).
  double wall_submit_us = -1.0;
};

SolveService::SolveService(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      admission_(cfg_.admission),
      breaker_(cfg_.breaker),
      m_submitted_(obs::counter_handle("service.requests.submitted")),
      m_completed_(obs::counter_handle("service.requests.completed")),
      m_expired_(obs::counter_handle("service.requests.expired")),
      m_rejected_(obs::counter_handle("service.requests.rejected")),
      m_shed_(obs::counter_handle("service.requests.shed")),
      m_retried_(obs::counter_handle("service.requests.retried")),
      m_degraded_(obs::counter_handle("service.requests.degraded")),
      m_quarantined_(obs::counter_handle("service.requests.quarantined")),
      m_batches_(obs::counter_handle("service.batches")),
      m_solo_batches_(obs::counter_handle("service.batches.solo")),
      m_bisected_batches_(obs::counter_handle("service.batches.bisected")),
      h_latency_(obs::histogram_handle("service.request.latency_us")),
      h_queue_(obs::histogram_handle("service.request.queue_us")),
      h_batch_size_(obs::histogram_handle("service.batch.size")),
      h_solve_us_(obs::histogram_handle("service.batch.solve_us")) {
  // Structural validation: a nonsensical knob must reject loudly, not be
  // silently rewritten into a service the operator did not configure.
  if (cfg_.max_batch == 0) {
    config_error_ = "ServiceConfig.max_batch must be >= 1";
  } else if (!after_wall_us(Clock::time_point{}, cfg_.batch_window_us)) {
    config_error_ =
        "ServiceConfig.batch_window_us must be finite, >= 0 and inside the "
        "steady clock's range";
  } else if (!after_wall_us(Clock::time_point{}, cfg_.breaker.cooldown_us)) {
    config_error_ =
        "ServiceConfig.breaker.cooldown_us must be finite, >= 0 and inside "
        "the steady clock's range";
  } else if (const std::string chain_error =
                 gpu::fallback_chain_error(cfg_.fallback_chain);
             !chain_error.empty()) {
    config_error_ = "ServiceConfig.fallback_chain: " + chain_error;
  }
  if (!config_error_.empty()) return;  // rejecting state: never accepts
  accepting_ = true;
  if (cfg_.auto_start) start();
}

SolveService::~SolveService() { shutdown(); }

std::future<SolveResult> SolveService::submit(SolveRequest req) {
  std::promise<SolveResult> promise;
  auto future = promise.get_future();

  // A rejecting config never accepts: such a request, empty or not, is
  // answered bad_argument below like any request after shutdown().
  if (config_error_.empty() && req.system.size() == 0) {
    m_rejected_.add();
    SolveResult r;
    r.code = tridiag::SolveCode::bad_size;
    promise.set_value(std::move(r));
    return future;
  }

  Pending p;
  p.req = std::move(req);
  p.promise = std::move(promise);
  p.arrival = Clock::now();
  p.bytes = queued_bytes(p.req.system.size());
  if (const auto deadline = after_wall_us(p.arrival, p.req.deadline_us);
      deadline && p.req.deadline_us > 0.0) {
    p.has_deadline = true;
    p.deadline = *deadline;
  }
  auto& tracer = obs::SpanTracer::instance();
  if (tracer.enabled()) p.wall_submit_us = tracer.now_wall_us();

  // Admission (docs/SERVICE.md § Overload & degradation) runs under mu_
  // with the push, so the bounds hold without any rollback; shed futures
  // resolve after unlocking.
  enum class Verdict { queued, shed, rejected };
  Verdict verdict = Verdict::queued;
  std::optional<Pending> evictee;
  {
    std::lock_guard lk(mu_);
    if (!accepting_) {
      verdict = Verdict::rejected;
    } else if (cfg_.admission.policy == ShedPolicy::brownout &&
               p.has_deadline &&
               admission_.estimated_delay_us(cfg_.max_batch) >
                   p.req.deadline_us) {
      // Brownout sheds up front when the estimated queue delay already
      // eats the whole deadline: the request could only expire in-queue,
      // and refusing it now is honest about that (and free).
      verdict = Verdict::shed;
    } else if (!admission_.try_reserve(p.bytes)) {
      const Pending* victim = nullptr;
      switch (cfg_.admission.policy) {
        case ShedPolicy::reject_newest:
          break;
        case ShedPolicy::reject_lowest_priority:
          victim = lowest_priority_victim(p.req.priority);
          break;
        case ShedPolicy::brownout:
          victim = doomed_victim(p.arrival);
          break;
      }
      if (victim != nullptr) evictee = evict(*victim);
      // A byte bound can still refuse a request larger than its evictee.
      if (victim == nullptr || !admission_.try_reserve(p.bytes)) {
        verdict = Verdict::shed;
      }
    }
    if (verdict == Verdict::queued) {
      p.seq = next_seq_++;
      queue_.push_back(std::move(p));
    }
  }
  if (evictee) shed(*evictee);
  switch (verdict) {
    case Verdict::queued:
      m_submitted_.add();
      cv_.notify_one();
      break;
    case Verdict::shed:
      shed(p);
      break;
    case Verdict::rejected: {
      m_rejected_.add();
      SolveResult r;
      r.code = tridiag::SolveCode::bad_argument;
      r.x.assign(p.req.system.d().begin(), p.req.system.d().end());
      p.promise.set_value(std::move(r));
      break;
    }
  }
  return future;
}

void SolveService::start() {
  std::lock_guard lk(lifecycle_mu_);
  std::lock_guard queue_lk(mu_);
  // Not accepting: a rejected config, or shut down already.
  if (!accepting_ || batcher_.joinable()) return;
  batcher_ = std::thread([this] { batcher_main(); });
}

void SolveService::shutdown() {
  std::lock_guard lk(lifecycle_mu_);
  {
    std::lock_guard queue_lk(mu_);
    if (!accepting_ && !batcher_.joinable()) {
      return;  // already shut down (or never accepted: rejected config)
    }
    // Under mu_, so no submit can push after the batcher's last take.
    accepting_ = false;
    stop_ = true;
  }
  cv_.notify_all();
  if (batcher_.joinable()) {
    batcher_.join();
  } else {
    // Never started (auto_start = false and start() never called): drain
    // inline so every accepted future is still fulfilled.
    batcher_main();
  }
}

std::uint64_t SolveService::batches_launched() const noexcept {
  return batches_.load(std::memory_order_relaxed);
}
std::uint64_t SolveService::requests_completed() const noexcept {
  return completed_.load(std::memory_order_relaxed);
}
std::uint64_t SolveService::requests_expired() const noexcept {
  return expired_.load(std::memory_order_relaxed);
}
std::uint64_t SolveService::requests_shed() const noexcept {
  return shed_.load(std::memory_order_relaxed);
}
std::uint64_t SolveService::requests_retried() const noexcept {
  return retried_.load(std::memory_order_relaxed);
}
std::uint64_t SolveService::requests_degraded() const noexcept {
  return degraded_.load(std::memory_order_relaxed);
}
std::uint64_t SolveService::requests_quarantined() const noexcept {
  return quarantined_.load(std::memory_order_relaxed);
}
std::uint64_t SolveService::batches_bisected() const noexcept {
  return bisections_.load(std::memory_order_relaxed);
}
std::size_t SolveService::peak_queue_depth() const noexcept {
  return admission_.peak_depth();
}

void SolveService::fulfill_unran(Pending& p, tridiag::SolveCode code) {
  const auto now = Clock::now();
  SolveResult r;
  r.code = code;
  r.x.assign(p.req.system.d().begin(), p.req.system.d().end());
  r.latency_us = us_between(p.arrival, now);
  r.queue_us = r.latency_us;
  r.attempts = p.prior_attempts;
  r.solve_us = p.prior_solve_us;
  h_queue_.record(r.queue_us);
  h_latency_.record(r.latency_us);
  p.promise.set_value(std::move(r));
}

void SolveService::shed(Pending& p) {
  // Tally before fulfilling: a client woken by the future must already
  // see itself in requests_shed().
  m_shed_.add();
  shed_.fetch_add(1, std::memory_order_relaxed);
  fulfill_unran(p, tridiag::SolveCode::overloaded);
}

const SolveService::Pending* SolveService::lowest_priority_victim(
    int incoming_priority) const {
  const Pending* victim = nullptr;
  for (const Pending& c : queue_) {
    if (c.req.priority >= incoming_priority) continue;
    if (victim == nullptr || c.req.priority < victim->req.priority ||
        (c.req.priority == victim->req.priority && c.seq > victim->seq)) {
      victim = &c;
    }
  }
  return victim;
}

const SolveService::Pending* SolveService::doomed_victim(
    Clock::time_point now) const {
  const double est = admission_.estimated_delay_us(cfg_.max_batch);
  if (est <= 0.0) return nullptr;  // no latency signal yet — nobody is doomed
  const Pending* victim = nullptr;
  double victim_headroom = 0.0;
  for (const Pending& c : queue_) {
    if (!c.has_deadline) continue;
    const double headroom = us_between(now, c.deadline);
    if (headroom >= est) continue;  // still expected to make it
    if (victim == nullptr || headroom < victim_headroom) {
      victim = &c;
      victim_headroom = headroom;
    }
  }
  return victim;
}

SolveService::Pending SolveService::evict(const Pending& victim) {
  const auto it = queue_.begin() + (&victim - queue_.data());
  Pending evictee = std::move(*it);
  queue_.erase(it);
  admission_.release(evictee.bytes);
  return evictee;
}

void SolveService::dispatch(std::vector<Pending> group) {
  // The breaker gate picks the execute stage. Bisection halves re-enter
  // here too, so a fault storm that trips the breaker mid-recovery
  // degrades the remaining halves instead of hammering a failing engine.
  const bool degraded =
      breaker_.admit(Clock::now()) == CircuitBreaker::Gate::degrade;

  const std::size_t m = group.size();
  const std::size_t n = group.front().req.system.size();
  const std::uint64_t batch_id =
      batches_.fetch_add(1, std::memory_order_relaxed) + 1;
  m_batches_.add();
  if (m == 1) m_solo_batches_.add();
  h_batch_size_.record(static_cast<double>(m));
  obs::gauge("service.batch.occupancy", static_cast<double>(m));

  auto& tracer = obs::SpanTracer::instance();
  obs::SpanScope batch_span("service.batch");
  batch_span.attr("n", obs::JsonValue(static_cast<double>(n)));
  batch_span.attr("occupancy", obs::JsonValue(static_cast<double>(m)));
  const char* solver =
      degraded ? "cpu-thomas" : gpu::solver_name(cfg_.solver);
  batch_span.attr("solver", obs::JsonValue(solver));
  if (degraded) batch_span.attr("degraded", obs::JsonValue(true));

  const auto admit = Clock::now();
  tridiag::SystemBatch<double> batch(m, n, gpu::preferred_layout(m, n));
  for (std::size_t j = 0; j < m; ++j) {
    tridiag::copy_system(group[j].req.system.ref(), batch.system(j));
  }

  // Either stage solves the gathered batch in place (solved d per
  // recovered member, pristine d otherwise) and hands back one status
  // row with attempts per member.
  tridiag::BatchStatus status;
  double solve_us = 0.0;
  if (degraded) {
    // Open breaker: the simulated GPU is presumed down, so solve on the
    // host-Thomas stage — fault-immune, residual-gated, zero simulated
    // time. It reads each member in full before writing that member's
    // d, so the batch is its own pristine source.
    status.resize(m);
    std::vector<std::size_t> all(m);
    std::iota(all.begin(), all.end(), std::size_t{0});
    tridiag::host_thomas_stage<double>(batch, all, batch, status);
  } else {
    tridiag::ResiliencePolicy policy = gpu::engine_resilience_policy();
    if (cfg_.max_retries >= 0) policy.max_retries = cfg_.max_retries;
    if (!cfg_.fallback_chain.empty()) {
      policy.fallback_chain = cfg_.fallback_chain;
    }
    // Budget from the earliest member deadline: recovery must not keep
    // burning simulated time past the point where the batch's most
    // urgent rider is already late. (Engine --deadline-us still applies
    // when it is tighter.)
    for (const Pending& p : group) {
      if (!p.has_deadline) continue;
      const double remaining = std::max(1.0, us_between(admit, p.deadline));
      if (policy.deadline_us <= 0.0 || remaining < policy.deadline_us) {
        policy.deadline_us = remaining;
      }
    }
    auto res = gpu::run_solver_resilient(cfg_.solver, cfg_.device, batch, {},
                                         policy);
    solve_us = res.outcome.time_us;
    status = std::move(res.outcome.status);
    bool launch_failed = false;
    for (const auto& a : res.report.attempts) {
      if (a.reason == tridiag::SolveCode::launch_failed) {
        launch_failed = true;
        break;
      }
    }
    if (launch_failed) {
      breaker_.record_failure(Clock::now());
    } else {
      breaker_.record_success();
    }
  }
  h_solve_us_.record(solve_us);

  const auto done = Clock::now();
  // Feed the brownout delay estimate before fulfilling any future, so a
  // caller that observes a completed request is guaranteed to also
  // observe an EWMA that accounts for its batch.
  admission_.observe_batch_latency(us_between(admit, done));

  std::vector<Pending> redisp;  // launch-failed members to bisect
  for (std::size_t j = 0; j < m; ++j) {
    Pending& p = group[j];
    const tridiag::SolveStatus live = status[j];

    if (m > 1 && live.code == tridiag::SolveCode::launch_failed) {
      // Blast-radius isolation: this member's launches kept failing
      // inside the coalesced batch. Re-dispatch it in bisected halves
      // from its pristine inputs so one poisoned request cannot fail its
      // co-batched riders; a request that still fails alone is
      // quarantined below on its solo pass.
      p.prior_attempts += status.attempts(j);
      p.prior_solve_us += solve_us;
      p.saw_failure = true;
      redisp.push_back(std::move(p));
      continue;
    }

    SolveResult r;
    r.batch_id = batch_id;
    r.batch_size = m;
    r.solve_us = p.prior_solve_us + solve_us;
    r.queue_us = us_between(p.arrival, admit);
    r.latency_us = us_between(p.arrival, done);
    r.attempts = p.prior_attempts + status.attempts(j);
    r.code = live.code;
    r.pivot_growth = live.pivot_growth;
    r.recovered = live.code == tridiag::SolveCode::ok &&
                  (p.saw_failure ||
                   tridiag::solve_code_severity(status.detected(j).code) >
                       tridiag::solve_code_severity(live.code));
    r.degraded = degraded;
    const auto x = batch.system(j).d;
    r.x.resize(n);
    for (std::size_t i = 0; i < n; ++i) r.x[i] = x[i];
    if (r.code == tridiag::SolveCode::launch_failed) {
      // Solo and still failing after every retry and fallback stage:
      // quarantined — pristine inputs go back with the structured code.
      m_quarantined_.add();
      quarantined_.fetch_add(1, std::memory_order_relaxed);
    }
    if (r.attempts > 1) {
      m_retried_.add();
      retried_.fetch_add(1, std::memory_order_relaxed);
    }
    if (degraded) {
      m_degraded_.add();
      degraded_.fetch_add(1, std::memory_order_relaxed);
    }
    // In-flight expiry: the answer is delivered but late — upgrade an ok
    // verdict to timed_out; a more severe per-system code is kept.
    if (p.has_deadline && done >= p.deadline &&
        tridiag::solve_code_severity(r.code) <
            tridiag::solve_code_severity(tridiag::SolveCode::timed_out)) {
      r.code = tridiag::SolveCode::timed_out;
    }
    h_queue_.record(r.queue_us);
    h_latency_.record(r.latency_us);
    m_completed_.add();
    completed_.fetch_add(1, std::memory_order_relaxed);

    if (tracer.enabled() && batch_span.id() != 0) {
      obs::Span child;
      child.id = tracer.reserve_id();
      child.parent = batch_span.id();
      child.name = "service.request";
      child.wall_t0_us = p.wall_submit_us >= 0.0
                             ? p.wall_submit_us
                             : tracer.now_wall_us() - r.latency_us;
      child.wall_t1_us = tracer.now_wall_us();
      child.sim_t0_us = tracer.sim_now();
      child.sim_t1_us = tracer.sim_now();
      child.thread_ordinal = tracer.thread_ordinal();
      child.attrs.emplace_back("seq",
                               obs::JsonValue(static_cast<double>(p.seq)));
      child.attrs.emplace_back("code",
                               obs::JsonValue(tridiag::solve_code_name(r.code)));
      tracer.emit(std::move(child));
    }
    p.promise.set_value(std::move(r));
  }

  if (!redisp.empty()) {
    m_bisected_batches_.add();
    bisections_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t half = (redisp.size() + 1) / 2;
    std::vector<Pending> lo, hi;
    lo.reserve(half);
    hi.reserve(redisp.size() - half);
    for (std::size_t j = 0; j < redisp.size(); ++j) {
      (j < half ? lo : hi).push_back(std::move(redisp[j]));
    }
    // Strictly shrinking groups (half < m), so the recursion bottoms out
    // at solo dispatches — which quarantine instead of re-splitting.
    dispatch(std::move(lo));
    if (!hi.empty()) dispatch(std::move(hi));
  }
}

void SolveService::batcher_main() {
  std::vector<Pending> backlog;
  // After a window wait times out, the next pass is judged at the close
  // it waited for: however late the wake, the window closes and its
  // members dispatch instead of expiring. Every other pass reads the
  // clock.
  auto judge_by = Clock::time_point::max();
  for (;;) {
    // Timestamp before taking the lock: charging a wait for mu_ against
    // queued deadlines would eat into the dispatch margin (expiry with a
    // slightly stale clock only ever errs toward dispatching, never
    // toward expiring early).
    const auto now = std::min(Clock::now(), judge_by);
    judge_by = Clock::time_point::max();
    bool stopping = false;
    std::vector<Pending>::iterator overdue;
    {
      std::lock_guard lk(mu_);
      std::move(queue_.begin(), queue_.end(), std::back_inserter(backlog));
      queue_.clear();
      // Read with the take: once stop_ is set nothing more is pushed.
      stopping = stop_;
      overdue = std::stable_partition(
          backlog.begin(), backlog.end(), [now](const Pending& p) {
            return !p.has_deadline || now < p.deadline;
          });
      for (auto it = overdue; it != backlog.end(); ++it) {
        admission_.release(it->bytes);
      }
    }
    for (auto it = overdue; it != backlog.end(); ++it) {
      // Tally before fulfilling: a client woken by the future must already
      // see itself in requests_expired().
      m_expired_.add();
      expired_.fetch_add(1, std::memory_order_relaxed);
      fulfill_unran(*it, tridiag::SolveCode::deadline);
    }
    backlog.erase(overdue, backlog.end());
    obs::gauge("service.queue.depth", static_cast<double>(backlog.size()));

    if (backlog.empty()) {
      if (stopping) break;
      std::unique_lock lk(mu_);
      cv_.wait(lk, [this] { return !queue_.empty() || stop_; });
      continue;
    }

    // Open the batch at the oldest pending request; every compatible
    // (same N) request joins its group.
    const auto oldest = std::min_element(
        backlog.begin(), backlog.end(),
        [](const Pending& a, const Pending& b) { return a.seq < b.seq; });
    const std::size_t n = oldest->req.system.size();
    std::size_t group_size = 0;
    auto close = after_wall_us(oldest->arrival, cfg_.batch_window_us)
                     .value_or(Clock::time_point::max());
    for (const Pending& p : backlog) {
      if (p.req.system.size() != n) continue;
      ++group_size;
      // Deadline-aware admission: never hold the window past the point
      // where a member would expire in-queue. Close a dispatch margin
      // early so the member is launched, not expired, when the wait
      // wakes (see kDeadlineDispatchMargin).
      if (p.has_deadline) {
        const auto latest = p.deadline - kDeadlineDispatchMargin;
        if (latest < close) close = latest;
      }
    }

    const bool admit =
        stopping || group_size >= cfg_.max_batch || now >= close;
    if (!admit) {
      std::unique_lock lk(mu_);
      if (!cv_.wait_until(lk, close,
                          [this] { return !queue_.empty() || stop_; })) {
        judge_by = close;
      }
      continue;
    }

    // Pull the group out of the backlog (stable: preserves drain order),
    // then order admission by (priority desc, submission order) and cap
    // at max_batch; overflow members stay queued for the next batch.
    std::vector<Pending> group;
    group.reserve(group_size);
    auto keep = backlog.begin();
    for (auto it = backlog.begin(); it != backlog.end(); ++it) {
      if (it->req.system.size() == n) {
        group.push_back(std::move(*it));
      } else {
        if (keep != it) *keep = std::move(*it);
        ++keep;
      }
    }
    backlog.erase(keep, backlog.end());
    std::sort(group.begin(), group.end(), [](const Pending& a,
                                             const Pending& b) {
      if (a.req.priority != b.req.priority) {
        return a.req.priority > b.req.priority;
      }
      return a.seq < b.seq;
    });
    while (group.size() > cfg_.max_batch) {
      backlog.push_back(std::move(group.back()));
      group.pop_back();
    }
    // The members leave the bounded queue here — release their admission
    // reservations only now, so the depth bound also covered the time
    // they sat in this backlog.
    {
      std::lock_guard lk(mu_);
      for (const Pending& p : group) admission_.release(p.bytes);
    }
    dispatch(std::move(group));
  }
}

}  // namespace tridsolve::service
