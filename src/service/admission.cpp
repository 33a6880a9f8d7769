#include "service/admission.hpp"

#include <algorithm>

namespace tridsolve::service {

ShedPolicy parse_shed_policy(std::string_view tok) {
  std::string norm(tok);
  std::replace(norm.begin(), norm.end(), '_', '-');
  if (norm == "reject-newest") return ShedPolicy::reject_newest;
  if (norm == "reject-lowest-priority") return ShedPolicy::reject_lowest_priority;
  if (norm == "brownout") return ShedPolicy::brownout;
  throw std::invalid_argument(
      "unknown shed policy \"" + std::string(tok) +
      "\" (expected reject-newest|reject-lowest-priority|brownout)");
}

bool AdmissionController::try_reserve(std::size_t bytes) noexcept {
  const std::size_t depth = depth_.load(std::memory_order_relaxed) + 1;
  const std::size_t total = bytes_.load(std::memory_order_relaxed) + bytes;
  if ((cfg_.max_queue > 0 && depth > cfg_.max_queue) ||
      (cfg_.max_queue_bytes > 0 && total > cfg_.max_queue_bytes)) {
    return false;
  }
  depth_.store(depth, std::memory_order_relaxed);
  bytes_.store(total, std::memory_order_relaxed);
  if (depth > peak_depth_.load(std::memory_order_relaxed)) {
    peak_depth_.store(depth, std::memory_order_relaxed);
  }
  return true;
}

void AdmissionController::release(std::size_t bytes) noexcept {
  depth_.store(depth_.load(std::memory_order_relaxed) - 1,
               std::memory_order_relaxed);
  bytes_.store(bytes_.load(std::memory_order_relaxed) - bytes,
               std::memory_order_relaxed);
}

void AdmissionController::observe_batch_latency(double us) noexcept {
  if (!(us >= 0.0)) return;
  const double prev = ewma_us_.load(std::memory_order_relaxed);
  const double next =
      prev <= 0.0 ? us : kEwmaAlpha * us + (1.0 - kEwmaAlpha) * prev;
  // The batcher is the only writer; a plain store is race-free and keeps
  // concurrent submit-side readers tear-free.
  ewma_us_.store(next, std::memory_order_relaxed);
}

double AdmissionController::estimated_delay_us(
    std::size_t max_batch) const noexcept {
  const double ewma = ewma_us_.load(std::memory_order_relaxed);
  if (ewma <= 0.0) return 0.0;
  const std::size_t cap = std::max<std::size_t>(1, max_batch);
  const std::size_t waves = 1 + depth_.load(std::memory_order_relaxed) / cap;
  return ewma * static_cast<double>(waves);
}

}  // namespace tridsolve::service
