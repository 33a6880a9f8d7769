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

/// One Thomas forward-elimination row (Eqs. 2-3) in the reciprocal form
/// every Thomas sweep in the library runs: the host solve below, the
/// p-Thomas kernel body and its lane sweeps, the tiled PCR kernel's fused
/// store and the in-shared solver. pivot = b - c'a, then c' = c / pivot
/// and d' = (d - d'a) / pivot through one reciprocal. `cp` and `dp` carry
/// the previous row's c' and d' in (zero for a system's first row) and
/// this row's out. Returns the pivot for the guards to read.
template <typename T>
inline T thomas_forward_row(T a, T b, T c, T d, T& cp, T& dp) noexcept {
  const T pivot = b - cp * a;
  const T inv = T(1) / pivot;
  cp = c * inv;
  dp = (d - dp * a) * inv;
  return pivot;
}

namespace detail {

/// A pivot the forward row may divide by: nonzero and finite (a NaN
/// pivot fails the finiteness test).
template <typename T>
[[nodiscard]] inline bool thomas_pivot_ok(T pivot) noexcept {
  return pivot != T(0) && std::isfinite(static_cast<double>(pivot));
}

/// The growth ratio of one Thomas forward row (a, b, c): its coefficient
/// magnitude over |pivot|. Meaningful only when thomas_pivot_ok; `c` is
/// the row's input c, not c'.
template <typename T>
[[nodiscard]] inline double thomas_growth_ratio(T a, T b, T c,
                                                T pivot) noexcept {
  return max_abs3(a, b, c) / std::abs(static_cast<double>(pivot));
}

/// Pivot check for one Thomas forward-elimination row (a, b, c) whose
/// pivot thomas_forward_row returned: a zero or non-finite pivot flags
/// zero_pivot at `pos` (first offence wins); otherwise the growth
/// estimate absorbs thomas_growth_ratio. Read-only — shared by the host
/// solve, the p-Thomas kernel body and the tiled PCR kernel's fused
/// forward sweep; the p-Thomas lane sweeps call the same test and ratio
/// on per-lane arrays. Branch-free (see absorb_pivot).
template <typename T>
inline void guard_thomas_pivot(SolveStatus& guard, T a, T b, T c, T pivot,
                               std::size_t pos) noexcept {
  absorb_pivot(guard, !thomas_pivot_ok(pivot),
               thomas_growth_ratio(a, b, c, pivot), pos);
}

}  // namespace detail

/// Solve one tridiagonal system in place.
///
/// Inputs are read through the views in `sys`; the solution is written to
/// `x` (which may alias `sys.d`). `cprime` is an n-element scratch array
/// (contiguous, caller-provided so batched loops can reuse it).
/// Fails with SolveCode::zero_pivot if any forward-reduction pivot is
/// zero or non-finite (a NaN pivot would otherwise stream NaNs through
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

  // Forward reduction, one thomas_forward_row per row; d' is accumulated
  // directly in x (rows with a_0 = 0 make i = 0 a plain b pivot).
  T cp = T(0);
  T dp = T(0);
  SolveStatus st{};
  for (std::size_t i = 0; i < n; ++i) {
    const T pivot =
        thomas_forward_row(sys.a[i], sys.b[i], sys.c[i], sys.d[i], cp, dp);
    if (guard != nullptr) {
      detail::guard_thomas_pivot(st, sys.a[i], sys.b[i], sys.c[i], pivot, i);
    } else if (!detail::thomas_pivot_ok(pivot)) {
      st = {SolveCode::zero_pivot, i};
    }
    if (!st.ok()) break;
    cprime[i] = cp;
    x[i] = dp;
  }

  // Backward substitution: x_n = d'_n, x_i = d'_i - c'_i x_{i+1}.
  if (st.ok()) {
    for (std::size_t i = n - 1; i-- > 0;) {
      x[i] = x[i] - cprime[i] * x[i + 1];
    }
  }
  if (guard != nullptr) *guard = st;
  return st;
}

/// Convenience overload that allocates its own scratch.
template <typename T>
SolveStatus thomas_solve(SystemRef<T> sys, StridedView<T> x);

extern template SolveStatus thomas_solve<float>(SystemRef<float>, StridedView<float>);
extern template SolveStatus thomas_solve<double>(SystemRef<double>, StridedView<double>);

}  // namespace tridsolve::tridiag
