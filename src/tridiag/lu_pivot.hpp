#pragma once
// Tridiagonal Gaussian elimination with partial pivoting, following the
// structure of LAPACK's ?gtsv (the routine behind the paper's Intel MKL
// baseline). Row interchanges create a second super-diagonal (du2) of
// fill-in, so this solver handles matrices the pivot-free Thomas/PCR
// family cannot — it is the correctness referee for every other solver
// in this repository.
//
// Contracts: free functions over caller-owned views — stateless,
// reentrant, safe concurrently on disjoint systems; deterministic
// (row-interchange decisions depend only on the input values, so repeat
// solves are bit-identical). It is the resilient pipeline's terminal
// "lu" stage (tridiag/resilient_solve.hpp).

#include <cstddef>
#include <span>

#include "tridiag/layout.hpp"
#include "tridiag/types.hpp"

namespace tridsolve::tridiag {

/// Workspace for lu_gtsv: working copies of the three diagonals plus the
/// fill-in diagonal. Reused across systems in batched loops.
template <typename T>
struct GtsvWorkspace {
  std::span<T> dl;   ///< sub-diagonal copy, n elements (dl[0] unused)
  std::span<T> dd;   ///< main diagonal copy, n elements
  std::span<T> du;   ///< super-diagonal copy, n elements (du[n-1] unused)
  std::span<T> du2;  ///< second super-diagonal fill-in, n elements

  [[nodiscard]] bool fits(std::size_t n) const noexcept {
    return dl.size() >= n && dd.size() >= n && du.size() >= n && du2.size() >= n;
  }
};

/// Solve one system with partial pivoting. Reads `sys` non-destructively
/// (coefficients are copied into the workspace), writes the solution to
/// `x` (may alias sys.d only if the caller accepts d being overwritten).
template <typename T>
SolveStatus lu_gtsv(const SystemRef<T>& sys, StridedView<T> x,
                    GtsvWorkspace<T> ws) {
  const std::size_t n = sys.size();
  if (x.size() != n || !ws.fits(n)) return {SolveCode::bad_size, 0};
  if (n == 0) return {};

  for (std::size_t i = 0; i < n; ++i) {
    ws.dl[i] = sys.a[i];
    ws.dd[i] = sys.b[i];
    ws.du[i] = sys.c[i];
    ws.du2[i] = T(0);
    x[i] = sys.d[i];
  }

  auto abs_val = [](T v) { return v < T(0) ? -v : v; };

  // Forward elimination with adjacent-row partial pivoting.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (abs_val(ws.dd[i]) >= abs_val(ws.dl[i + 1])) {
      // No interchange. Row i is (dd[i], du[i]); du2[i] stays zero.
      if (ws.dd[i] == T(0)) return {SolveCode::singular, i};
      const T fact = ws.dl[i + 1] / ws.dd[i];
      ws.dd[i + 1] -= fact * ws.du[i];
      x[i + 1] = x[i + 1] - fact * x[i];
    } else {
      // Interchange rows i and i+1; old row i+1 becomes the pivot row with
      // entries (dl[i+1], dd[i+1], du[i+1]) in columns i..i+2, producing
      // du2 fill-in in row i.
      const T fact = ws.dd[i] / ws.dl[i + 1];
      const T pivot_super = ws.dd[i + 1];
      const T pivot_super2 = (i + 2 < n) ? ws.du[i + 1] : T(0);
      ws.dd[i] = ws.dl[i + 1];
      ws.dd[i + 1] = ws.du[i] - fact * pivot_super;
      if (i + 2 < n) ws.du[i + 1] = -fact * pivot_super2;
      ws.du[i] = pivot_super;
      ws.du2[i] = pivot_super2;
      const T xt = x[i];
      x[i] = x[i + 1];
      x[i + 1] = xt - fact * x[i];
    }
  }
  if (ws.dd[n - 1] == T(0)) return {SolveCode::singular, n - 1};

  // Back substitution against the (dd, du, du2) upper-triangular factor.
  x[n - 1] = x[n - 1] / ws.dd[n - 1];
  if (n > 1) {
    x[n - 2] = (x[n - 2] - ws.du[n - 2] * x[n - 1]) / ws.dd[n - 2];
  }
  if (n > 2) {
    for (std::size_t r = n - 2; r-- > 0;) {  // rows n-3 .. 0
      x[r] = (x[r] - ws.du[r] * x[r + 1] - ws.du2[r] * x[r + 2]) / ws.dd[r];
    }
  }
  return {};
}

/// Convenience overload that allocates its own workspace.
template <typename T>
SolveStatus lu_gtsv(const SystemRef<T>& sys, StridedView<T> x);

extern template SolveStatus lu_gtsv<float>(const SystemRef<float>&, StridedView<float>);
extern template SolveStatus lu_gtsv<double>(const SystemRef<double>&, StridedView<double>);

}  // namespace tridsolve::tridiag
