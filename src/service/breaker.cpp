#include "service/breaker.hpp"

namespace tridsolve::service {

namespace {

/// Gauge encoding documented in docs/SERVICE.md: ordered by how broken
/// the dispatch path is, so dashboards can alert on `> 0`.
[[nodiscard]] double state_gauge_value(BreakerState s) noexcept {
  switch (s) {
    case BreakerState::closed: return 0.0;
    case BreakerState::half_open: return 1.0;
    case BreakerState::open: return 2.0;
  }
  return 0.0;
}

}  // namespace

std::optional<std::chrono::steady_clock::time_point> after_wall_us(
    std::chrono::steady_clock::time_point t, double us) noexcept {
  using Clock = std::chrono::steady_clock;
  // The tick count duration_cast would truncate to Clock::rep.
  const double ticks = std::chrono::duration<double, Clock::period>(
                           std::chrono::duration<double, std::micro>(us))
                           .count();
  if (!(ticks >= 0.0 &&
        ticks < static_cast<double>(Clock::duration::max().count()))) {
    return std::nullopt;
  }
  const Clock::duration d(static_cast<Clock::rep>(ticks));
  if (d > Clock::time_point::max() - t) return std::nullopt;
  return t + d;
}

CircuitBreaker::CircuitBreaker(BreakerConfig cfg)
    : cfg_(cfg),
      m_trips_(obs::counter_handle("service.breaker.trips")),
      m_resets_(obs::counter_handle("service.breaker.resets")) {
  obs::gauge("service.breaker.state", state_gauge_value(state_));
}

void CircuitBreaker::set_state_locked(BreakerState next) {
  if (state_ == next) return;
  state_ = next;
  obs::gauge("service.breaker.state", state_gauge_value(next));
}

CircuitBreaker::Gate CircuitBreaker::admit(Clock::time_point now) {
  if (cfg_.threshold <= 0) return Gate::pass;
  std::lock_guard lk(mu_);
  switch (state_) {
    case BreakerState::closed:
    case BreakerState::half_open:
      // half_open admits the probe batch; its record_* call settles the
      // state before the (serialized) next dispatch consults us again.
      return Gate::pass;
    case BreakerState::open:
      if (now >= open_until_) {
        set_state_locked(BreakerState::half_open);
        return Gate::pass;
      }
      return Gate::degrade;
  }
  return Gate::pass;
}

void CircuitBreaker::record_success() {
  if (cfg_.threshold <= 0) return;
  std::lock_guard lk(mu_);
  consecutive_ = 0;
  if (state_ == BreakerState::half_open) {
    ++resets_;
    m_resets_.add();
  }
  set_state_locked(BreakerState::closed);
}

void CircuitBreaker::record_failure(Clock::time_point now) {
  if (cfg_.threshold <= 0) return;
  std::lock_guard lk(mu_);
  ++consecutive_;
  const bool trip = state_ == BreakerState::half_open ||  // failed probe
                    consecutive_ >= cfg_.threshold;
  if (!trip) return;
  open_until_ =
      after_wall_us(now, cfg_.cooldown_us).value_or(Clock::time_point::max());
  if (state_ != BreakerState::open) {
    ++trips_;
    m_trips_.add();
  }
  set_state_locked(BreakerState::open);
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard lk(mu_);
  return state_;
}
std::uint64_t CircuitBreaker::trips() const {
  std::lock_guard lk(mu_);
  return trips_;
}
std::uint64_t CircuitBreaker::resets() const {
  std::lock_guard lk(mu_);
  return resets_;
}

}  // namespace tridsolve::service
