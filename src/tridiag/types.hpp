#pragma once
// Core tridiagonal-system containers and views.
//
// Everything downstream (host algorithms, simulated GPU kernels, benches)
// works on the SoA representation the paper assumes: four arrays a, b, c, d
// where row i of A x = d is   a[i]*x[i-1] + b[i]*x[i] + c[i]*x[i+1] = d[i],
// with a[0] = 0 and c[n-1] = 0 (Eq. 1 of the paper).
//
// Contracts: StridedView/SystemRef are non-owning views with no
// synchronization — lifetime and aliasing are the caller's problem, and
// concurrent access is safe only when the underlying elements are
// disjoint (or all access is read-only). TridiagSystem owns its arrays.
// Sizes and strides are in elements, not bytes; strides come up as 1
// (contiguous), M (interleaved batch) and 2^k (post-PCR).

#include <cmath>
#include <cstddef>
#include <span>

#include "util/aligned_buffer.hpp"

namespace tridsolve::tridiag {

/// Outcome of a solve. Solvers never throw from hot loops; a zero (or,
/// for the pivoting LU, exactly-singular) pivot is reported here instead.
/// The last three codes are execution-level outcomes recorded by the
/// resilient pipeline (resilient_solve.hpp): they describe what happened
/// to an attempt, not a property of the matrix, and are transient — a
/// retry or fallback stage can clear them.
enum class SolveCode {
  ok,
  near_singular,  ///< solve completed but pivot growth exceeded the guard
                  ///< policy's limit — the answer may be badly amplified
  zero_pivot,     ///< elimination hit a zero (or non-finite) pivot (system
                  ///< not solvable by this pivot-free algorithm; see
                  ///< lu_gtsv for the referee)
  singular,       ///< pivoting LU found the matrix exactly singular
  timed_out,      ///< the dispatch overran its time budget; results suspect
  launch_failed,  ///< the kernel launch itself failed before running
  deadline,       ///< the resilience deadline expired before a clean solve
  overloaded,     ///< shed by admission control or an open circuit breaker
                  ///< before any compute was spent — pristine inputs, safe
                  ///< to resubmit once pressure drops (service layer)
  bad_size,       ///< size mismatch between matrix, rhs, or workspace
  bad_argument,   ///< caller-supplied option invalid for the shape (e.g.
                  ///< a forced transition point with 2^k > N)
};

[[nodiscard]] constexpr const char* solve_code_name(SolveCode c) noexcept {
  switch (c) {
    case SolveCode::ok: return "ok";
    case SolveCode::near_singular: return "near_singular";
    case SolveCode::zero_pivot: return "zero_pivot";
    case SolveCode::singular: return "singular";
    case SolveCode::timed_out: return "timed_out";
    case SolveCode::launch_failed: return "launch_failed";
    case SolveCode::deadline: return "deadline";
    case SolveCode::overloaded: return "overloaded";
    case SolveCode::bad_size: return "bad_size";
    case SolveCode::bad_argument: return "bad_argument";
  }
  return "?";
}

struct SolveStatus {
  SolveCode code = SolveCode::ok;
  std::size_t index = 0;  ///< offending row for zero_pivot/singular

  /// Pivot-growth estimate: the largest ratio of a row's coefficient
  /// magnitude to the elimination pivot it was divided by — roughly the
  /// factor by which forward elimination can amplify rounding error.
  /// O(1) for diagonally dominant systems; blows up as the matrix
  /// approaches singularity. 1.0 when the solver does not track it.
  double pivot_growth = 1.0;

  [[nodiscard]] bool ok() const noexcept { return code == SolveCode::ok; }
};

namespace detail {

/// max(|a|, |b|, |c|) in double with std::max({...})'s NaN behaviour: an
/// operand replaces the running maximum only when it compares greater, so
/// a NaN after the first operand never wins.
template <typename T>
[[nodiscard]] inline double max_abs3(T a, T b, T c) noexcept {
  double m = std::abs(static_cast<double>(a));
  const double vb = std::abs(static_cast<double>(b));
  m = m < vb ? vb : m;
  const double vc = std::abs(static_cast<double>(c));
  return m < vc ? vc : m;
}

/// Fold one checked pivot into a guard status by selects alone, so the
/// pivot guards (pcr.hpp, thomas.hpp) sit inside level and lane loops: a
/// bad pivot flags zero_pivot at `pos` unless an earlier offence did (the
/// first offence wins); a good one raises pivot_growth to `ratio` when
/// larger. `ratio` is ignored for a bad pivot.
inline void absorb_pivot(SolveStatus& guard, bool bad, double ratio,
                         std::size_t pos) noexcept {
  const bool first = bad && guard.code == SolveCode::ok;
  guard.code = first ? SolveCode::zero_pivot : guard.code;
  guard.index = first ? pos : guard.index;
  guard.pivot_growth =
      !bad && ratio > guard.pivot_growth ? ratio : guard.pivot_growth;
}

}  // namespace detail

/// Non-owning strided 1-D view. The stride is in elements, not bytes.
///
/// Batched layouts address row i of system m at base + i*stride, so a
/// single view type serves both contiguous (stride 1 within a system)
/// and interleaved (stride M) layouts, as well as the stride-2^k systems
/// PCR leaves behind.
template <typename T>
class StridedView {
 public:
  StridedView() = default;
  StridedView(T* data, std::size_t n, std::ptrdiff_t stride) noexcept
      : data_(data), n_(n), stride_(stride) {}

  /// Contiguous view over a span.
  explicit StridedView(std::span<T> s) noexcept
      : data_(s.data()), n_(s.size()), stride_(1) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::ptrdiff_t stride() const noexcept { return stride_; }
  [[nodiscard]] T* data() const noexcept { return data_; }

  T& operator[](std::size_t i) const noexcept {
    return data_[static_cast<std::ptrdiff_t>(i) * stride_];
  }

  /// Address of element i (used by the GPU simulator's transaction model).
  [[nodiscard]] T* ptr(std::size_t i) const noexcept {
    return data_ + static_cast<std::ptrdiff_t>(i) * stride_;
  }

  /// View of `count` elements starting at element `first`.
  [[nodiscard]] StridedView subview(std::size_t first, std::size_t count) const noexcept {
    return {ptr(first), count, stride_};
  }

 private:
  T* data_ = nullptr;
  std::size_t n_ = 0;
  std::ptrdiff_t stride_ = 1;
};

/// The four coefficient views of one tridiagonal system (mutable).
template <typename T>
struct SystemRef {
  StridedView<T> a;  ///< sub-diagonal   (a[0] ignored / zero)
  StridedView<T> b;  ///< main diagonal
  StridedView<T> c;  ///< super-diagonal (c[n-1] ignored / zero)
  StridedView<T> d;  ///< right-hand side

  [[nodiscard]] std::size_t size() const noexcept { return b.size(); }
};

/// Copy every element of `src` into `dst` (equal sizes; the strides may
/// differ, so this also gathers between layouts). `S` is T or const T.
template <typename S, typename T>
void copy_view(const StridedView<S>& src, const StridedView<T>& dst) noexcept {
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
}

/// Copy all four coefficient arrays of `src` into `dst`.
template <typename S, typename T>
void copy_system(const SystemRef<S>& src, const SystemRef<T>& dst) noexcept {
  copy_view(src.a, dst.a);
  copy_view(src.b, dst.b);
  copy_view(src.c, dst.c);
  copy_view(src.d, dst.d);
}

/// One owning tridiagonal system in SoA form.
template <typename T>
class TridiagSystem {
 public:
  TridiagSystem() = default;
  explicit TridiagSystem(std::size_t n) : a_(n), b_(n), c_(n), d_(n), n_(n) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  [[nodiscard]] std::span<T> a() noexcept { return a_.span(); }
  [[nodiscard]] std::span<T> b() noexcept { return b_.span(); }
  [[nodiscard]] std::span<T> c() noexcept { return c_.span(); }
  [[nodiscard]] std::span<T> d() noexcept { return d_.span(); }
  [[nodiscard]] std::span<const T> a() const noexcept { return a_.span(); }
  [[nodiscard]] std::span<const T> b() const noexcept { return b_.span(); }
  [[nodiscard]] std::span<const T> c() const noexcept { return c_.span(); }
  [[nodiscard]] std::span<const T> d() const noexcept { return d_.span(); }

  [[nodiscard]] SystemRef<T> ref() noexcept {
    return {StridedView<T>(a_.span()), StridedView<T>(b_.span()),
            StridedView<T>(c_.span()), StridedView<T>(d_.span())};
  }
  [[nodiscard]] SystemRef<const T> ref() const noexcept {
    return {StridedView<const T>(a_.span()), StridedView<const T>(b_.span()),
            StridedView<const T>(c_.span()), StridedView<const T>(d_.span())};
  }

  /// Deep copy (the solvers are destructive; tests copy before solving).
  [[nodiscard]] TridiagSystem clone() const {
    TridiagSystem out(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      out.a_[i] = a_[i];
      out.b_[i] = b_[i];
      out.c_[i] = c_[i];
      out.d_[i] = d_[i];
    }
    return out;
  }

 private:
  util::AlignedBuffer<T> a_, b_, c_, d_;
  std::size_t n_ = 0;
};

/// Identity row (0,1,0 | 0): the virtual row used for all out-of-range
/// neighbours, which makes PCR size-agnostic (x_virtual = 0).
template <typename T>
struct Row {
  T a{}, b{}, c{}, d{};
};

template <typename T>
constexpr Row<T> identity_row() noexcept {
  return Row<T>{T(0), T(1), T(0), T(0)};
}

}  // namespace tridsolve::tridiag
