#pragma once
// Bounded admission for the solve service: queue-depth / queue-bytes
// bounds plus the shedding policy that decides who pays when a bound is
// hit. The controller owns only the accounting and the decision logic;
// SolveService owns the queues and performs the actual eviction, so the
// two stay independently testable.
//
// Policies (docs/SERVICE.md § Overload & degradation):
//  * reject_newest — the incoming request is shed; everything already
//    queued keeps its slot. The cheapest policy and the default.
//  * reject_lowest_priority — the lowest-priority queued request
//    (newest among ties) is evicted to make room, provided it ranks
//    strictly below the incoming one; otherwise the incoming request is
//    shed. Paid traffic displaces best-effort traffic under pressure.
//  * brownout — deadline-aware: a request whose *estimated* queue delay
//    already exceeds its remaining deadline is shed up front (it could
//    only expire in queue; shedding is honest and refuses the queueing
//    cost), and at the bound a deadline-doomed queued victim is evicted
//    before the incoming request is considered. The delay estimate is
//    an EWMA of recent batch wall latency scaled by the number of batch
//    waves ahead in the queue.
//
// Every shed resolves the victim's future with SolveCode::overloaded and
// the pristine right-hand side — never a blocked or lost future, and
// never partial elimination garbage (the request was untouched).
//
// Accounting contract: try_reserve() / release() form a strict
// reservation protocol — depth/bytes count *admitted* requests only, so
// the configured bounds are hard: the queue never holds more than
// max_queue requests (peak_depth() proves it). Writers are serialized by
// the caller: SolveService reserves and releases under its queue lock,
// and its batcher is the only EWMA writer. Every accessor reads an
// atomic, so readers on other threads never see a torn value.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace tridsolve::service {

/// Who gets shed when an admission bound is exceeded.
enum class ShedPolicy {
  reject_newest,
  reject_lowest_priority,
  brownout,
};

[[nodiscard]] constexpr const char* shed_policy_name(ShedPolicy p) noexcept {
  switch (p) {
    case ShedPolicy::reject_newest: return "reject-newest";
    case ShedPolicy::reject_lowest_priority: return "reject-lowest-priority";
    case ShedPolicy::brownout: return "brownout";
  }
  return "?";
}

/// Parse a policy token ("reject-newest", "reject-lowest-priority",
/// "brownout"; underscores accepted). Throws std::invalid_argument on
/// anything else — CLI parsing is strict everywhere in this repo.
[[nodiscard]] ShedPolicy parse_shed_policy(std::string_view tok);

/// Admission bounds and policy (part of ServiceConfig).
struct AdmissionConfig {
  /// Max queued (admitted, not yet dispatched) requests; 0 = unbounded.
  std::size_t max_queue = 0;
  /// Max queued bytes (4 coefficient arrays per request); 0 = unbounded.
  std::size_t max_queue_bytes = 0;
  ShedPolicy policy = ShedPolicy::reject_newest;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig cfg) : cfg_(cfg) {}

  /// Reserve one queue slot (+ `bytes`) for an incoming request. Returns
  /// false, reserving nothing, when either bound would be exceeded; the
  /// caller then applies the shed policy.
  [[nodiscard]] bool try_reserve(std::size_t bytes) noexcept;

  /// Release one slot (+ `bytes`): the request left the queue (drained
  /// into the batcher, or evicted by a shedding decision).
  void release(std::size_t bytes) noexcept;

  /// Fold one dispatched batch's wall latency (admission → futures
  /// resolved) into the EWMA the brownout estimate is built on.
  void observe_batch_latency(double us) noexcept;

  /// Estimated in-queue delay for a request arriving now: the EWMA batch
  /// latency times the number of batch waves ahead of it (depth /
  /// max_batch, plus the wave it joins). 0 until a first batch lands.
  [[nodiscard]] double estimated_delay_us(std::size_t max_batch) const noexcept;

  [[nodiscard]] std::size_t depth() const noexcept {
    return depth_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }
  /// High-water mark of *admitted* depth — never exceeds max_queue when
  /// a depth bound is set (the chaos soak asserts exactly this).
  [[nodiscard]] std::size_t peak_depth() const noexcept {
    return peak_depth_.load(std::memory_order_relaxed);
  }

 private:
  /// Weight of the newest sample in the batch-latency EWMA.
  static constexpr double kEwmaAlpha = 0.2;

  AdmissionConfig cfg_;
  std::atomic<std::size_t> depth_{0};
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::size_t> peak_depth_{0};
  std::atomic<double> ewma_us_{0.0};
};

}  // namespace tridsolve::service
