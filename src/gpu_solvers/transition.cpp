#include "gpu_solvers/transition.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace tridsolve::gpu {

namespace {

[[nodiscard]] double pow2(unsigned e) noexcept {
  return static_cast<double>(std::size_t{1} << e);
}

}  // namespace

double cost_thomas(std::size_t m, unsigned n, double p) noexcept {
  const double md = static_cast<double>(m);
  const double steps = 2.0 * pow2(n) - 1.0;
  // M systems = M-way parallelism: below saturation the span is one
  // system's steps; above it, total work amortizes over P lanes.
  return md > p ? md / p * steps : steps;
}

double cost_pcr(std::size_t m, unsigned n, double p) noexcept {
  const double md = static_cast<double>(m);
  // PCR exposes row-level parallelism at every step, so work always
  // divides by P (Table II gives the same expression for both regimes).
  return md / p * (static_cast<double>(n) * pow2(n) + 1.0);
}

double cost_hybrid(std::size_t m, unsigned n, double p, unsigned k) noexcept {
  const double md = static_cast<double>(m);
  const double kd = static_cast<double>(k);
  const double pcr_part = kd * pow2(n);          // k * 2^n eliminations/system
  const double thomas_part = 2.0 * (pow2(n) - pow2(std::min(k, n)));
  if (md > p) {
    return md / p * (pcr_part + thomas_part);
  }
  // PCR still amortizes over P; whether p-Thomas does depends on whether
  // the 2^k * M reduced systems saturate the machine.
  const double reduced = pow2(std::min(k, n)) * md;
  if (reduced > p) {
    return md / p * pcr_part + md / p * thomas_part;
  }
  return md / p * pcr_part + thomas_part;
}

unsigned model_best_k(std::size_t m, std::size_t system_size,
                      const gpusim::DeviceSpec& dev) noexcept {
  if (system_size <= 1 || m == 0) return 0;
  const auto n = static_cast<unsigned>(std::bit_width(system_size - 1));
  const double p = machine_parallelism(dev);
  const unsigned k_cap = std::min(
      n, static_cast<unsigned>(std::bit_width(
             static_cast<std::size_t>(dev.max_threads_per_block)) - 1));
  unsigned best = 0;
  double best_cost = cost_hybrid(m, n, p, 0);
  for (unsigned k = 1; k <= k_cap; ++k) {
    const double cost = cost_hybrid(m, n, p, k);
    if (cost < best_cost) {
      best_cost = cost;
      best = k;
    }
  }
  return best;
}

unsigned heuristic_k(std::size_t m, std::size_t system_size) noexcept {
  unsigned k = 0;
  if (m < 16) {
    k = 8;
  } else if (m < 32) {
    k = 7;
  } else if (m < 512) {
    k = 6;
  } else if (m < 1024) {
    k = 5;
  } else {
    k = 0;
  }
  // A system must still have at least a couple of rows per reduced system
  // for the split to pay off; clamp 2^k <= system_size / 2.
  while (k > 0 && (std::size_t{1} << k) > system_size / 2) --k;
  return k;
}

unsigned heuristic_k(std::size_t m, std::size_t system_size,
                     tridiag::Layout layout) noexcept {
  const bool in_place = layout == tridiag::Layout::interleaved &&
                        m > kPthomasBlockSystems && 2 * m >= system_size;
  return in_place ? 0 : heuristic_k(m, system_size);
}

tridiag::Layout paired_layout(unsigned k) noexcept {
  return k == 0 ? tridiag::Layout::interleaved : tridiag::Layout::contiguous;
}

tridiag::Layout preferred_layout(std::size_t m,
                                 std::size_t system_size) noexcept {
  return paired_layout(heuristic_k(m, system_size));
}

double machine_parallelism(const gpusim::DeviceSpec& dev) noexcept {
  return static_cast<double>(dev.num_sms) *
         static_cast<double>(dev.max_threads_per_sm);
}

}  // namespace tridsolve::gpu
