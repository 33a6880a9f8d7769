#include "tridiag/residual.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tridsolve::tridiag {

namespace {

/// NaN-propagating infinity norm: the largest sample by a select (a NaN
/// never wins) and, apart, whether any sample was NaN, which makes the
/// norm NaN. std::max(worst, NaN) silently returns `worst`, which once let
/// a fully-NaN solution report residual 0.0 — the exact failure mode a
/// residual check exists to catch. The samples are magnitudes (never -0),
/// so the norm does not depend on the order they are folded in, and the
/// loops below fold them a chunk at a time on vector lanes.
struct InfNorm {
  double worst = 0.0;
  unsigned nan = 0;  // not bool: GCC does not vectorize a bool OR reduction

  void add(const double* s, std::size_t n) noexcept {
    worst = detail::fold_max(worst, s, n);
    unsigned seen = 0;
    for (std::size_t i = 0; i < n; ++i) seen |= std::isnan(s[i]) ? 1u : 0u;
    nan |= seen;
  }
  void add(double s) noexcept { add(&s, 1); }
  [[nodiscard]] double value() const noexcept {
    return nan != 0 ? std::numeric_limits<double>::quiet_NaN() : worst;
  }
};

/// Samples computed per chunk before they are folded.
constexpr std::size_t kChunk = 256;

/// Element i of one array of a system, widened to double. `Unit`: the
/// view's stride is 1, so the loops over it vectorize; strided views
/// (an interleaved batch's systems) run the same loops with their stride.
template <typename T, bool Unit>
struct Elems {
  const T* p;
  std::ptrdiff_t stride;

  explicit Elems(const StridedView<const T>& v) noexcept
      : p(v.data()), stride(v.stride()) {}
  double operator[](std::size_t i) const noexcept {
    return static_cast<double>(
        p[Unit ? static_cast<std::ptrdiff_t>(i)
               : static_cast<std::ptrdiff_t>(i) * stride]);
  }
};

/// The infinity norms of one pass over a system: the residual
/// ||A x - d|| and the scales relative_residual divides by, ||A|| (the
/// largest row sum |a| + |b| + |c|), ||x|| and ||d||. One pass reads
/// every element once, which matters most for strided views, where each
/// element is its own cache line.
struct Norms {
  InfNorm r, a, x, d;
};

/// Row i's residual is b x_i - d_i, plus a x_{i-1} and then c x_{i+1}
/// where those neighbours exist; rows 0 and n-1 are peeled, so the
/// interior loop carries no branch.
template <bool Unit, typename T>
Norms system_norms(const SystemRef<const T>& sys, StridedView<const T> xv) {
  const std::size_t n = sys.size();
  Norms out;
  if (n == 0) return out;
  const Elems<T, Unit> a(sys.a), b(sys.b), c(sys.c), d(sys.d), x(xv);
  const auto add_scales = [&](std::size_t i) {
    out.a.add(std::abs(a[i]) + std::abs(b[i]) + std::abs(c[i]));
    out.x.add(std::abs(x[i]));
    out.d.add(std::abs(d[i]));
  };
  double first = b[0] * x[0] - d[0];
  if (n > 1) first += c[0] * x[1];
  out.r.add(std::abs(first));
  add_scales(0);
  if (n == 1) return out;
  double sr[kChunk], sa[kChunk], sx[kChunk], sd[kChunk];
  for (std::size_t i0 = 1; i0 + 1 < n; i0 += kChunk) {
    const std::size_t m = std::min(kChunk, n - 1 - i0);
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t i = i0 + j;
      double r = b[i] * x[i] - d[i];
      r += a[i] * x[i - 1];
      r += c[i] * x[i + 1];
      sr[j] = std::abs(r);
      sa[j] = std::abs(a[i]) + std::abs(b[i]) + std::abs(c[i]);
      sx[j] = std::abs(x[i]);
      sd[j] = std::abs(d[i]);
    }
    out.r.add(sr, m);
    out.a.add(sa, m);
    out.x.add(sx, m);
    out.d.add(sd, m);
  }
  double last = b[n - 1] * x[n - 1] - d[n - 1];
  last += a[n - 1] * x[n - 2];
  out.r.add(std::abs(last));
  add_scales(n - 1);
  return out;
}

template <typename T>
Norms norms_of(const SystemRef<const T>& sys, StridedView<const T> x) {
  const bool unit = sys.a.stride() == 1 && sys.b.stride() == 1 &&
                    sys.c.stride() == 1 && sys.d.stride() == 1 &&
                    x.stride() == 1;
  return unit ? system_norms<true>(sys, x) : system_norms<false>(sys, x);
}

/// ||A x - d|| / (||A|| ||x|| + ||d||) of a non-empty system.
double relative_of(const Norms& norms) noexcept {
  const double norm_a = norms.a.value();  // ||A||_inf = max row sum
  const double norm_x = norms.x.value();
  const double norm_d = norms.d.value();
  const double denom = norm_a * norm_x + norm_d;
  // denom == 0 means ||A||*||x|| and ||d|| are both zero (e.g. an all-zero
  // system with any x): there is no scale to measure against, so the
  // relative residual is undefined — NaN, per the contract in
  // residual.hpp. Returning the absolute residual here (as this function
  // once did) reported that degenerate case as a perfect 0.0.
  if (!(denom > 0.0)) return std::numeric_limits<double>::quiet_NaN();
  // An *overflowed* denominator is just as undefined: with finite inputs
  // it means ||x|| (or ||d||) is within a factor ||A|| of DBL_MAX, where
  // `finite / inf == 0.0` would report a wildly wrong solution as a
  // perfect one (e.g. a corrupted x[i] near 1e308 — caught by the chaos
  // suite). No trustworthy scale exists there either.
  if (!std::isfinite(denom)) return std::numeric_limits<double>::quiet_NaN();
  return norms.r.value() / denom;
}

}  // namespace

template <typename T>
double residual_inf(const SystemRef<const T>& sys, StridedView<const T> x) {
  return norms_of(sys, x).r.value();
}

template <typename T>
double relative_residual(const SystemRef<const T>& sys, StridedView<const T> x) {
  if (sys.size() == 0) return 0.0;
  return relative_of(norms_of(sys, x));
}

template <typename T>
SolveStatus gate_solution(const SystemRef<const T>& sys, StridedView<const T> x,
                          SolveStatus st) noexcept {
  if (!st.ok() || sys.size() == 0) return st;
  const Norms norms = norms_of(sys, x);
  // ||x|| is NaN or inf exactly when some x[i] is not finite; only then
  // look for the first such row.
  if (!std::isfinite(norms.x.value())) {
    std::size_t i = 0;
    while (std::isfinite(static_cast<double>(x[i]))) ++i;
    return {SolveCode::zero_pivot, i, st.pivot_growth};
  }
  const double gate =
      std::sqrt(static_cast<double>(std::numeric_limits<T>::epsilon()));
  if (!(relative_of(norms) <= gate)) {
    return {SolveCode::near_singular, 0, st.pivot_growth};
  }
  return st;
}

template double residual_inf<float>(const SystemRef<const float>&,
                                    StridedView<const float>);
template double residual_inf<double>(const SystemRef<const double>&,
                                     StridedView<const double>);
template double relative_residual<float>(const SystemRef<const float>&,
                                         StridedView<const float>);
template double relative_residual<double>(const SystemRef<const double>&,
                                          StridedView<const double>);
template SolveStatus gate_solution<float>(const SystemRef<const float>&,
                                          StridedView<const float>,
                                          SolveStatus) noexcept;
template SolveStatus gate_solution<double>(const SystemRef<const double>&,
                                           StridedView<const double>,
                                           SolveStatus) noexcept;

}  // namespace tridsolve::tridiag
