#pragma once
// Thomas algorithm (Eqs. 2-4 of the paper): Gaussian elimination
// specialized to tridiagonal matrices, 2n-1 elimination steps, O(n).
//
// The strided formulation below is the exact routine p-Thomas threads run:
// after k PCR steps each reduced system lives at stride 2^k in the original
// arrays, so one function serves the plain CPU path (stride 1), the
// interleaved batched path (stride M) and the post-PCR path (stride 2^k).
//
// Contracts: free functions over caller-owned views — stateless,
// reentrant, safe concurrently on disjoint systems; fixed sweep order
// makes repeat runs bit-identical, and the simulated p-Thomas kernel is
// pinned bit-exact against this host routine. Pivot-free: the optional
// SolveStatus* out-param reports zero/NaN pivots and pivot growth
// without changing any arithmetic (read-only detection); strides are in
// elements.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "tridiag/types.hpp"

namespace tridsolve::tridiag {

/// Number of elimination steps Thomas performs on an n-row system
/// (paper §II.A: 2n - 1).
[[nodiscard]] constexpr std::size_t thomas_elimination_steps(std::size_t n) noexcept {
  return n == 0 ? 0 : 2 * n - 1;
}

/// Solve one tridiagonal system in place.
///
/// Inputs are read through the views in `sys`; the solution is written to
/// `x` (which may alias `sys.d`). `cprime` is an n-element scratch array
/// (contiguous, caller-provided so batched loops can reuse it).
/// Fails with SolveCode::zero_pivot if any forward-reduction denominator
/// is zero or non-finite (a NaN pivot would otherwise stream NaNs through
/// the whole solution under an ok() status) — use lu_gtsv for matrices
/// that need pivoting.
///
/// When `guard` is non-null the pivot-growth estimate (see SolveStatus)
/// is tracked and written there along with the final code/row; the extra
/// per-row arithmetic is skipped entirely otherwise.
template <typename T>
SolveStatus thomas_solve(SystemRef<T> sys, StridedView<T> x, std::span<T> cprime,
                         SolveStatus* guard = nullptr) {
  const std::size_t n = sys.size();
  if (x.size() != n || cprime.size() < n) return {SolveCode::bad_size, 0};
  if (n == 0) return {};

  // Forward reduction: c'_1 = c_1/b_1, d'_1 = d_1/b_1, then
  // c'_i = c_i / (b_i - c'_{i-1} a_i), d'_i = (d_i - d'_{i-1} a_i) / same.
  // d' is accumulated directly in x. The reciprocal form below is the
  // exact arithmetic of the p-Thomas GPU kernel, so the two agree bitwise
  // (rows with a_0 = 0 make i = 0 a plain b pivot).
  T cp = T(0);
  T dp = T(0);
  double growth = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const T denom = sys.b[i] - cp * sys.a[i];
    // !(denom != 0) also catches a NaN denominator.
    if (!(denom != T(0)) || !std::isfinite(static_cast<double>(denom))) {
      const SolveStatus st{SolveCode::zero_pivot, i, growth};
      if (guard != nullptr) *guard = st;
      return st;
    }
    if (guard != nullptr) {
      const double scale =
          std::max({std::abs(static_cast<double>(sys.a[i])),
                    std::abs(static_cast<double>(sys.b[i])),
                    std::abs(static_cast<double>(sys.c[i]))});
      const double ratio = scale / std::abs(static_cast<double>(denom));
      if (ratio > growth) growth = ratio;
    }
    const T inv = T(1) / denom;
    cp = sys.c[i] * inv;
    dp = (sys.d[i] - dp * sys.a[i]) * inv;
    cprime[i] = cp;
    x[i] = dp;
  }

  // Backward substitution: x_n = d'_n, x_i = d'_i - c'_i x_{i+1}.
  for (std::size_t i = n - 1; i-- > 0;) {
    x[i] = x[i] - cprime[i] * x[i + 1];
  }
  SolveStatus st{};
  st.pivot_growth = growth;
  if (guard != nullptr) *guard = st;
  return st;
}

/// Convenience overload that allocates its own scratch.
template <typename T>
SolveStatus thomas_solve(SystemRef<T> sys, StridedView<T> x);

extern template SolveStatus thomas_solve<float>(SystemRef<float>, StridedView<float>);
extern template SolveStatus thomas_solve<double>(SystemRef<double>, StridedView<double>);

}  // namespace tridsolve::tridiag
