#include "workloads/traffic.hpp"

#include <cmath>

namespace tridsolve::workloads {

std::vector<double> arrival_times_us(const TrafficConfig& cfg) {
  std::vector<double> out;
  out.reserve(cfg.requests);
  const double rate = cfg.rate_rps > 0.0 ? cfg.rate_rps : 1.0;
  const double burst = cfg.burst > 1.0 ? cfg.burst : 1.0;
  const double gap_mean_us = 1e6 / (rate * burst);
  util::Xoshiro256 rng(cfg.seed);
  double tau = 0.0;  // virtual always-on clock
  for (std::size_t i = 0; i < cfg.requests; ++i) {
    // Inverse-CDF exponential gap; 1 - u keeps the argument in (0, 1].
    const double u = util::uniform(rng, 0.0, 1.0);
    tau += -gap_mean_us * std::log(1.0 - u);
    if (burst <= 1.0) {
      out.push_back(tau);
      continue;
    }
    // Warp the virtual clock onto on/off duty cycles: each cycle's
    // on-window (kBurstCycleUs / burst long) absorbs one window's worth of
    // virtual time, the off remainder passes instantly.
    const double on_len = kBurstCycleUs / burst;
    const double cycle_index = std::floor(tau / on_len);
    out.push_back(cycle_index * kBurstCycleUs + (tau - cycle_index * on_len));
  }
  return out;
}

tridiag::TridiagSystem<double> make_request_system(Kind kind, std::size_t n,
                                                   util::Xoshiro256& rng) {
  tridiag::TridiagSystem<double> sys(n);
  fill_matrix(kind, sys.ref(), rng);
  fill_rhs_random(sys.ref(), rng);
  return sys;
}

}  // namespace tridsolve::workloads
