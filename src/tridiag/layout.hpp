#pragma once
// Batched system storage and the two memory layouts the paper discusses.
//
// * contiguous  — system m occupies elements [m*n, (m+1)*n). Natural for a
//   CPU (each system is a cache-friendly streak) and for MKL-style calls.
// * interleaved — element i of system m lives at i*M + m. Consecutive
//   threads working on consecutive systems touch consecutive addresses,
//   which is exactly the coalescing-friendly layout p-Thomas wants (§III.B:
//   "PCR naturally produces interleaved results which is perfect match
//   with p-Thomas").
//
// Contracts: SystemBatch owns its storage and has no internal locking —
// share read-only across threads freely; concurrent writers must target
// disjoint systems. Layout converters copy element-for-element with no
// arithmetic, so a round trip is bit-identical (and conversion row counts
// are recorded as metrics, not charged as simulated time). Sizes are
// element counts; strides are in elements, not bytes.

#include <cstddef>

#include "obs/metrics.hpp"
#include "tridiag/types.hpp"
#include "util/aligned_buffer.hpp"

namespace tridsolve::tridiag {

enum class Layout { contiguous, interleaved };

/// M independent n-row tridiagonal systems in one SoA allocation.
template <typename T>
class SystemBatch {
 public:
  SystemBatch() = default;

  SystemBatch(std::size_t num_systems, std::size_t n, Layout layout)
      : a_(num_systems * n),
        b_(num_systems * n),
        c_(num_systems * n),
        d_(num_systems * n),
        m_(num_systems),
        n_(n),
        layout_(layout) {}

  [[nodiscard]] std::size_t num_systems() const noexcept { return m_; }
  [[nodiscard]] std::size_t system_size() const noexcept { return n_; }
  [[nodiscard]] std::size_t total_rows() const noexcept { return m_ * n_; }
  [[nodiscard]] Layout layout() const noexcept { return layout_; }

  /// Flat coefficient arrays (layout-dependent element order).
  [[nodiscard]] std::span<T> a() noexcept { return a_.span(); }
  [[nodiscard]] std::span<T> b() noexcept { return b_.span(); }
  [[nodiscard]] std::span<T> c() noexcept { return c_.span(); }
  [[nodiscard]] std::span<T> d() noexcept { return d_.span(); }
  [[nodiscard]] std::span<const T> a() const noexcept { return a_.span(); }
  [[nodiscard]] std::span<const T> b() const noexcept { return b_.span(); }
  [[nodiscard]] std::span<const T> c() const noexcept { return c_.span(); }
  [[nodiscard]] std::span<const T> d() const noexcept { return d_.span(); }

  /// Flat index of row i of system m under the current layout.
  [[nodiscard]] std::size_t index(std::size_t m, std::size_t i) const noexcept {
    return layout_ == Layout::contiguous ? m * n_ + i : i * m_ + m;
  }

  /// Strided views of one system.
  [[nodiscard]] SystemRef<T> system(std::size_t m) noexcept {
    const std::size_t base = layout_ == Layout::contiguous ? m * n_ : m;
    const std::ptrdiff_t stride =
        layout_ == Layout::contiguous ? 1 : static_cast<std::ptrdiff_t>(m_);
    return {StridedView<T>(a_.data() + base, n_, stride),
            StridedView<T>(b_.data() + base, n_, stride),
            StridedView<T>(c_.data() + base, n_, stride),
            StridedView<T>(d_.data() + base, n_, stride)};
  }

  [[nodiscard]] SystemRef<const T> system(std::size_t m) const noexcept {
    const std::size_t base = layout_ == Layout::contiguous ? m * n_ : m;
    const std::ptrdiff_t stride =
        layout_ == Layout::contiguous ? 1 : static_cast<std::ptrdiff_t>(m_);
    return {StridedView<const T>(a_.data() + base, n_, stride),
            StridedView<const T>(b_.data() + base, n_, stride),
            StridedView<const T>(c_.data() + base, n_, stride),
            StridedView<const T>(d_.data() + base, n_, stride)};
  }

  /// Deep copy; each array is written once.
  [[nodiscard]] SystemBatch clone() const {
    SystemBatch out;
    out.a_ = util::AlignedBuffer<T>(a_.span());
    out.b_ = util::AlignedBuffer<T>(b_.span());
    out.c_ = util::AlignedBuffer<T>(c_.span());
    out.d_ = util::AlignedBuffer<T>(d_.span());
    out.m_ = m_;
    out.n_ = n_;
    out.layout_ = layout_;
    return out;
  }

 private:
  util::AlignedBuffer<T> a_, b_, c_, d_;
  std::size_t m_ = 0, n_ = 0;
  Layout layout_ = Layout::contiguous;
};

/// Produce a copy of `in` with the other layout (or the requested one).
/// Conversions are not free on real hardware, so the metrics registry
/// tracks how many rows crossed layouts (the paper's layout-conversion
/// cost the hybrid avoids by producing interleaved output in place).
template <typename T>
[[nodiscard]] SystemBatch<T> convert_layout(const SystemBatch<T>& in, Layout to) {
  static const auto conversions = obs::counter_handle("layout.conversions");
  static const auto rows = obs::counter_handle("layout.rows_converted");
  conversions.add();
  rows.add(static_cast<double>(in.num_systems() * in.system_size()));
  SystemBatch<T> out(in.num_systems(), in.system_size(), to);
  for (std::size_t m = 0; m < in.num_systems(); ++m) {
    for (std::size_t i = 0; i < in.system_size(); ++i) {
      const std::size_t src = in.index(m, i);
      const std::size_t dst = out.index(m, i);
      out.a()[dst] = in.a()[src];
      out.b()[dst] = in.b()[src];
      out.c()[dst] = in.c()[src];
      out.d()[dst] = in.d()[src];
    }
  }
  return out;
}

}  // namespace tridsolve::tridiag
