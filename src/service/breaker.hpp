#pragma once
// Circuit breaker for the solve service's dispatch path.
//
// A dispatch-level failure (a coalesced launch that stayed launch_failed
// after the resilient pipeline's retries) costs the whole batch wall
// time; under a fault storm, re-launching batch after batch into a
// failing engine turns one fault into a latency catastrophe for every
// rider. The breaker bounds that blast radius with the classical three
// states:
//
//   closed ──(threshold consecutive failures)──► open
//     ▲                                            │ cooldown elapses
//     └──(probe succeeds)── half_open ◄────────────┘
//              │ probe fails: back to open, fresh cooldown
//
// While open, batches never reach the simulated GPU: they are degraded
// to the host-Thomas fallback stage, so answers keep flowing at host
// speed, marked `degraded`. When the cooldown expires the next batch is
// admitted as a half-open probe; one success closes the breaker, one
// failure re-opens it.
//
// Observability: gauge `service.breaker.state` (0 = closed, 1 =
// half_open, 2 = open) updated on every transition, counters
// `service.breaker.trips` / `service.breaker.resets`.
//
// Thread-safety: the batcher thread is the only caller of admit()/
// record_*() (dispatches are serialized), but all state is behind a
// mutex so tests and metrics readers may inspect it concurrently.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>

#include "obs/metrics.hpp"

namespace tridsolve::service {

/// `t` plus `us` wall microseconds, or std::nullopt when `us` is not a
/// finite value >= 0 or the sum passes the steady clock's range. Every
/// wall-time knob goes through here: a bare duration_cast of such a value
/// overflows the clock's integer ticks, which is undefined behaviour.
[[nodiscard]] std::optional<std::chrono::steady_clock::time_point>
after_wall_us(std::chrono::steady_clock::time_point t, double us) noexcept;

struct BreakerConfig {
  /// Consecutive dispatch failures that trip the breaker; 0 disables it
  /// (admit() always passes).
  int threshold = 0;
  /// Wall-clock cooldown in the open state before a half-open probe.
  /// SolveService rejects a value after_wall_us() cannot add to the clock.
  double cooldown_us = 5000.0;
};

enum class BreakerState { closed, half_open, open };

[[nodiscard]] constexpr const char* breaker_state_name(
    BreakerState s) noexcept {
  switch (s) {
    case BreakerState::closed: return "closed";
    case BreakerState::half_open: return "half_open";
    case BreakerState::open: return "open";
  }
  return "?";
}

class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  explicit CircuitBreaker(BreakerConfig cfg);

  /// What the dispatcher should do with the next batch: run it on the
  /// simulated GPU, or degrade it to the host-Thomas stage.
  enum class Gate { pass, degrade };

  /// Consult the breaker before a dispatch. In the open state this
  /// transitions to half_open once the cooldown has elapsed (the caller's
  /// batch becomes the probe); otherwise it returns Gate::degrade.
  [[nodiscard]] Gate admit(Clock::time_point now);

  /// Outcome of a dispatch that admit() passed. A success closes a
  /// half-open breaker and clears the consecutive-failure run; a failure
  /// extends the run and trips (or re-trips) the breaker.
  void record_success();
  void record_failure(Clock::time_point now);

  [[nodiscard]] BreakerState state() const;
  [[nodiscard]] std::uint64_t trips() const;
  [[nodiscard]] std::uint64_t resets() const;

 private:
  void set_state_locked(BreakerState next);

  BreakerConfig cfg_;
  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::closed;
  int consecutive_ = 0;
  Clock::time_point open_until_{};
  std::uint64_t trips_ = 0;
  std::uint64_t resets_ = 0;
  obs::MetricsRegistry::Counter m_trips_, m_resets_;
};

}  // namespace tridsolve::service
