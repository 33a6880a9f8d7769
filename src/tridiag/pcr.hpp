#pragma once
// Parallel cyclic reduction (PCR), paper §II.A.3 (Figs. 3-4, Eqs. 5-6).
//
// One PCR step eliminates, for every row i simultaneously, the coupling to
// rows i±s using rows i-s and i+s, doubling the coupling stride. After k
// steps a size-n system decomposes into 2^k independent interleaved systems
// (rows i ≡ r mod 2^k). Out-of-range neighbours are identity rows (0,1,0|0),
// which makes the transform valid for any n, not just powers of two.
//
// Contracts: free functions over caller-owned views — stateless,
// reentrant, safe concurrently on disjoint systems; fixed evaluation
// order makes repeat runs bit-identical, and tiled_pcr_reduce is pinned
// bit-exact against this plain implementation. Pivot-free: bad divisors
// propagate non-finite values for the guard layer to catch.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "tridiag/types.hpp"
#include "util/aligned_buffer.hpp"

namespace tridsolve::tridiag {

/// f(k) = 2^k - 1 (paper Eq. 8): halo width of a k-step PCR dependency,
/// i.e. the number of extra rows a naive tile must load per boundary.
[[nodiscard]] constexpr std::size_t pcr_halo(unsigned k) noexcept {
  return (std::size_t{1} << k) - 1;
}

/// g(k) = k*2^k - 2^{k+1} + 2 (paper Eq. 9): redundant elimination steps a
/// naive k-step tile performs per boundary.
[[nodiscard]] constexpr std::size_t pcr_redundant_elims(unsigned k) noexcept {
  if (k == 0) return 0;
  const std::size_t two_k = std::size_t{1} << k;
  return k * two_k - 2 * two_k + 2;
}

/// Read row i of `sys`, substituting the identity row outside [0, n).
template <typename T>
[[nodiscard]] inline Row<T> row_or_identity(const SystemRef<T>& sys,
                                            std::ptrdiff_t i) noexcept {
  if (i < 0 || i >= static_cast<std::ptrdiff_t>(sys.size())) {
    return identity_row<T>();
  }
  const auto u = static_cast<std::size_t>(i);
  return Row<T>{sys.a[u], sys.b[u], sys.c[u], sys.d[u]};
}

/// The PCR elimination for one row (Eqs. 5-6): combine `mid` with its
/// neighbours `lo` (at -stride) and `hi` (at +stride). Every PCR in the
/// library — host, tiled kernel, in-shared steps, Davidson's global steps
/// and CR's forward reduction — calls this one function. The two
/// divisions are independent and run as one two-lane division; IEEE
/// division rounds each lane exactly as a scalar division would.
template <typename T>
[[nodiscard]] inline Row<T> pcr_combine(const Row<T>& lo, const Row<T>& mid,
                                        const Row<T>& hi) noexcept {
  typedef T Pair __attribute__((vector_size(2 * sizeof(T))));
  const Pair k = Pair{mid.a, mid.c} / Pair{lo.b, hi.b};
  return Row<T>{
      -lo.a * k[0],
      mid.b - lo.c * k[0] - hi.a * k[1],
      -hi.c * k[1],
      mid.d - lo.d * k[0] - hi.d * k[1],
  };
}

namespace detail {

/// The divisor test of one pcr_combine: both PCR pivots (lo.b and hi.b,
/// the denominators of Eqs. 5-6) nonzero and finite; a NaN fails.
template <typename T>
[[nodiscard]] inline bool pcr_divisors_ok(const Row<T>& lo,
                                          const Row<T>& hi) noexcept {
  const double blo = std::abs(static_cast<double>(lo.b));
  const double bhi = std::abs(static_cast<double>(hi.b));
  return blo > 0.0 && bhi > 0.0 && std::isfinite(blo) && std::isfinite(bhi);
}

/// The growth ratio of one pcr_combine: the row's coefficient magnitude
/// over its smallest divisor. Meaningful only when pcr_divisors_ok.
template <typename T>
[[nodiscard]] inline double pcr_growth_ratio(const Row<T>& lo,
                                             const Row<T>& mid,
                                             const Row<T>& hi) noexcept {
  return max_abs3(mid.a, mid.b, mid.c) /
         std::min(std::abs(static_cast<double>(lo.b)),
                  std::abs(static_cast<double>(hi.b)));
}

/// Divisor check for one pcr_combine: a zero or non-finite PCR pivot
/// flags zero_pivot at `pos` (first offence wins); otherwise the
/// pivot-growth estimate absorbs pcr_growth_ratio. Read-only — shared by
/// the host tiled PCR and the GPU kernels' watched blocks, whose
/// arithmetic must stay bit-identical with guards on or off; the
/// kernels' batched level pass (tiled_pcr_kernel.hpp) calls the same test
/// and ratio. Branch-free (see absorb_pivot).
template <typename T>
inline void guard_pcr_combine(SolveStatus& guard, const Row<T>& lo,
                              const Row<T>& mid, const Row<T>& hi,
                              std::size_t pos) noexcept {
  absorb_pivot(guard, !pcr_divisors_ok(lo, hi), pcr_growth_ratio(lo, mid, hi),
               pos);
}

}  // namespace detail

/// One full PCR step at the given stride: dst[i] = combine(src[i-s], src[i],
/// src[i+s]) for all i. src and dst must not alias. Returns the number of
/// elimination steps performed (= n).
template <typename T>
std::size_t pcr_step(const SystemRef<T>& src, const SystemRef<T>& dst,
                     std::size_t stride);

/// Perform k PCR steps in place (ping-pong against an internal workspace).
/// Afterwards the rows of `sys` describe 2^k interleaved independent
/// systems coupled at stride 2^k. Returns total elimination steps (k*n).
template <typename T>
std::size_t pcr_reduce(SystemRef<T> sys, unsigned k);

/// Solve completely with PCR: reduce until the stride reaches n, then each
/// row is a 1x1 system x_i = d_i / b_i. Destroys `sys`; writes x.
template <typename T>
SolveStatus pcr_solve(SystemRef<T> sys, StridedView<T> x);

extern template std::size_t pcr_step<float>(const SystemRef<float>&,
                                            const SystemRef<float>&, std::size_t);
extern template std::size_t pcr_step<double>(const SystemRef<double>&,
                                             const SystemRef<double>&, std::size_t);
extern template std::size_t pcr_reduce<float>(SystemRef<float>, unsigned);
extern template std::size_t pcr_reduce<double>(SystemRef<double>, unsigned);
extern template SolveStatus pcr_solve<float>(SystemRef<float>, StridedView<float>);
extern template SolveStatus pcr_solve<double>(SystemRef<double>, StridedView<double>);

}  // namespace tridsolve::tridiag
