#pragma once
// Residual and error metrics for solver validation.
//
// Contracts: pure read-only functions over caller-owned views — no
// state, thread-safe, deterministic. NaN-propagating by design: a NaN
// solution entry or a zero normalization denominator yields NaN, never a
// reassuring 0.0 — this is what makes the guard layer's residual gate
// sound (gates must be written NaN-safe: `!(rel <= gate)`).
// residual_inf is an absolute infinity-norm in the units of d;
// relative_residual is the dimensionless ||d - Ax||_inf / (||A||_inf
// ||x||_inf + ||d||_inf).

#include <cmath>
#include <cstddef>
#include <limits>

#include "tridiag/types.hpp"

namespace tridsolve::tridiag {

/// ||A x - d||_inf computed against the *original* (unreduced) system.
/// Non-finite values propagate: a NaN anywhere in the residual yields NaN
/// (never a silent 0.0), an Inf yields Inf — so a corrupted solution can
/// never masquerade as a converged one.
template <typename T>
double residual_inf(const SystemRef<const T>& sys, StridedView<const T> x);

/// Scaled relative residual ||Ax - d||_inf / (||A||_inf ||x||_inf + ||d||_inf).
/// Values within a small multiple of machine epsilon indicate a
/// backward-stable solve.
///
/// Contract:
///  * NaN coefficients, solution entries or residuals propagate to NaN.
///  * A zero denominator (||A||·||x|| and ||d|| both zero, e.g. an
///    all-zero system — no scale to measure against) returns NaN: the
///    relative residual is undefined there, and callers gating on
///    `res <= tol` correctly treat NaN as "not ok". An *overflowed*
///    denominator (||x|| within a factor ||A|| of DBL_MAX) returns NaN
///    for the same reason — `finite / inf` would otherwise report an
///    absurdly large solution as a perfect 0.0.
///  * An empty system (n == 0) returns 0.0 (nothing to be wrong about).
template <typename T>
double relative_residual(const SystemRef<const T>& sys, StridedView<const T> x);

/// Convenience: build const views from a mutable SystemRef.
template <typename T>
[[nodiscard]] inline SystemRef<const T> as_const(const SystemRef<T>& s) noexcept {
  return {StridedView<const T>(s.a.data(), s.a.size(), s.a.stride()),
          StridedView<const T>(s.b.data(), s.b.size(), s.b.stride()),
          StridedView<const T>(s.c.data(), s.c.size(), s.c.stride()),
          StridedView<const T>(s.d.data(), s.d.size(), s.d.stride())};
}

template <typename T>
[[nodiscard]] inline StridedView<const T> as_const(const StridedView<T>& v) noexcept {
  return {v.data(), v.size(), v.stride()};
}

extern template double residual_inf<float>(const SystemRef<const float>&,
                                           StridedView<const float>);
extern template double residual_inf<double>(const SystemRef<const double>&,
                                            StridedView<const double>);
extern template double relative_residual<float>(const SystemRef<const float>&,
                                                StridedView<const float>);
extern template double relative_residual<double>(const SystemRef<const double>&,
                                                 StridedView<const double>);

/// The residual gate every guarded solution passes (the registry's
/// post-hoc scan and the resilient pipeline's host stages): a status that
/// is already flagged comes back unchanged; otherwise a non-finite x[i]
/// makes it zero_pivot at row i, and a relative residual that is not
/// <= sqrt(eps_T) (NaN included) makes it near_singular. Pivot growth is
/// carried through.
template <typename T>
[[nodiscard]] SolveStatus gate_solution(const SystemRef<const T>& sys,
                                        StridedView<const T> x,
                                        SolveStatus st = {}) noexcept {
  if (!st.ok()) return st;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!std::isfinite(static_cast<double>(x[i]))) {
      return {SolveCode::zero_pivot, i, st.pivot_growth};
    }
  }
  const double gate =
      std::sqrt(static_cast<double>(std::numeric_limits<T>::epsilon()));
  if (!(relative_residual(sys, x) <= gate)) {
    return {SolveCode::near_singular, 0, st.pivot_growth};
  }
  return st;
}

}  // namespace tridsolve::tridiag
