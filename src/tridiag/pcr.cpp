#include "tridiag/pcr.hpp"

#include <bit>
#include <cmath>

namespace tridsolve::tridiag {

template <typename T>
std::size_t pcr_step(const SystemRef<T>& src, const SystemRef<T>& dst,
                     std::size_t stride) {
  const std::size_t n = src.size();
  const auto s = static_cast<std::ptrdiff_t>(stride);
  for (std::size_t i = 0; i < n; ++i) {
    const auto ip = static_cast<std::ptrdiff_t>(i);
    const Row<T> lo = row_or_identity(src, ip - s);
    const Row<T> mid{src.a[i], src.b[i], src.c[i], src.d[i]};
    const Row<T> hi = row_or_identity(src, ip + s);
    const Row<T> out = pcr_combine(lo, mid, hi);
    dst.a[i] = out.a;
    dst.b[i] = out.b;
    dst.c[i] = out.c;
    dst.d[i] = out.d;
  }
  return n;
}

namespace {

/// Contiguous scratch system of n rows backed by one allocation.
template <typename T>
struct ScratchSystem {
  explicit ScratchSystem(std::size_t n) : storage(4 * n), n_(n) {}

  [[nodiscard]] SystemRef<T> ref() {
    auto s = storage.span();
    return {StridedView<T>(s.subspan(0, n_)), StridedView<T>(s.subspan(n_, n_)),
            StridedView<T>(s.subspan(2 * n_, n_)),
            StridedView<T>(s.subspan(3 * n_, n_))};
  }

  util::AlignedBuffer<T> storage;
  std::size_t n_;
};

}  // namespace

template <typename T>
std::size_t pcr_reduce(SystemRef<T> sys, unsigned k) {
  const std::size_t n = sys.size();
  if (k == 0 || n == 0) return 0;

  ScratchSystem<T> scratch(n);
  SystemRef<T> ping = sys;
  SystemRef<T> pong = scratch.ref();

  std::size_t elims = 0;
  std::size_t stride = 1;
  for (unsigned step = 0; step < k; ++step) {
    elims += pcr_step(ping, pong, stride);
    std::swap(ping, pong);
    stride *= 2;
  }
  if (k % 2 == 1) copy_system(ping, sys);  // result landed in the scratch
  return elims;
}

template <typename T>
SolveStatus pcr_solve(SystemRef<T> sys, StridedView<T> x) {
  const std::size_t n = sys.size();
  if (x.size() != n) return {SolveCode::bad_size, 0};
  if (n == 0) return {};

  const unsigned k = static_cast<unsigned>(std::bit_width(n - 1));  // ceil(log2 n)
  pcr_reduce(sys, k);
  for (std::size_t i = 0; i < n; ++i) {
    // A zero pivot at any level surfaces as 0 or NaN/Inf in the reduced
    // diagonal; !(b != 0) also catches NaN.
    if (!(sys.b[i] != T(0)) || !std::isfinite(static_cast<double>(sys.b[i]))) {
      return {SolveCode::zero_pivot, i};
    }
    x[i] = sys.d[i] / sys.b[i];
  }
  return {};
}

template std::size_t pcr_step<float>(const SystemRef<float>&,
                                     const SystemRef<float>&, std::size_t);
template std::size_t pcr_step<double>(const SystemRef<double>&,
                                      const SystemRef<double>&, std::size_t);
template std::size_t pcr_reduce<float>(SystemRef<float>, unsigned);
template std::size_t pcr_reduce<double>(SystemRef<double>, unsigned);
template SolveStatus pcr_solve<float>(SystemRef<float>, StridedView<float>);
template SolveStatus pcr_solve<double>(SystemRef<double>, StridedView<double>);

}  // namespace tridsolve::tridiag
