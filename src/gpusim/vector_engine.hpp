#pragma once
// Vectorized lane execution for the functional fast path.
//
// When a p-Thomas solve runs without instrumentation, hazard checking,
// fault injection or divisor guards, its grid-wide sweep
// (gpu_solvers/pthomas_kernel.cpp) drops the one-thread-at-a-time
// simulation entirely and executes whole *lane segments* — runs of
// consecutive systems whose coefficient arrays form an affine grid:
// element (row i, lane l) of each array lives at
// base + l*lane_step + i*row_step. The interleaved layout the paper's
// p-Thomas kernel prefers (and the reduced-system views the hybrid
// solver builds) satisfy this with lane_step == 1, so the inner loops
// below are contiguous, `__restrict`-annotated, and auto-vectorize under
// -O3 (see the `release-native` preset for full-width SIMD).
//
// Contracts:
//  * Bit-exactness: every function performs, per lane, exactly the
//    arithmetic of the p-Thomas kernel body in the same per-lane order
//    (lanes are independent systems, so cross-lane ordering is free).
//    tests/test_vector_engine.cpp pins vector-on vs vector-off outputs
//    bitwise across the solver registry.
//  * Aliasing: the four coefficient arrays (and the solution array of
//    the backward sweep, unless it is exactly the d array) must be
//    disjoint — the same precondition the in-place kernels always had.
//  * Thread-safety: all functions are pure loops over caller-owned
//    memory; distinct segments never overlap, so concurrent sweeps are
//    race-free exactly as the kernel's blocks are.
//
// LanePool is the other half of the fast path: a per-worker bump
// allocator backing the kernels' per-block lane carries (c', d', x_next,
// PCR window state). Capacity only grows, so steady-state blocks perform
// zero heap allocations; growth vs warm-serve tallies feed the
// gpusim.scratch.{acquires,reuses} metrics. After every launch the engine
// grows each participant's pool to the launch's largest per-block demand,
// so which worker happened to run which block never decides when a pool
// grows.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace tridsolve::gpusim {

/// One affine lane segment (see file comment for the layout contract).
template <typename T>
struct LaneSegment {
  const T* a = nullptr;
  const T* b = nullptr;
  T* c = nullptr;
  T* d = nullptr;
  std::ptrdiff_t lane_step = 1;  ///< lane-to-lane element step (all arrays)
  std::ptrdiff_t row_step = 1;   ///< row-to-row element step (all arrays)
  std::size_t lanes = 0;
  std::size_t rows = 0;
};

/// Solution-output addressing for the backward sweep. When `x == d` of
/// the segment (same base and steps) the sweep runs its in-place
/// variant; otherwise x must be disjoint from c and d.
template <typename T>
struct LaneOutput {
  T* x = nullptr;
  std::ptrdiff_t lane_step = 1;
  std::ptrdiff_t row_step = 1;
};

/// Thomas forward elimination across a lane segment, in place
/// (c <- c', d <- d'). `cp`/`dp` are the per-lane carries (>= lanes
/// entries, zero-initialized by the caller for fresh systems).
template <typename T>
void thomas_forward_lanes(const LaneSegment<T>& seg, T* __restrict cp,
                          T* __restrict dp) noexcept {
  if (seg.rows == 0 || seg.lanes == 0) return;
  if (seg.lane_step == 1) {
    // Lane-contiguous (interleaved layout): row-major walk, the inner
    // loop is a contiguous SIMD sweep across lanes.
    for (std::size_t i = 0; i < seg.rows; ++i) {
      const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(i) * seg.row_step;
      const T* __restrict a = seg.a + off;
      const T* __restrict b = seg.b + off;
      T* __restrict c = seg.c + off;
      T* __restrict d = seg.d + off;
      for (std::size_t l = 0; l < seg.lanes; ++l) {
        const T denom = b[l] - cp[l] * a[l];
        const T inv = T(1) / denom;
        const T cpl = c[l] * inv;
        const T dpl = (d[l] - dp[l] * a[l]) * inv;
        cp[l] = cpl;
        dp[l] = dpl;
        c[l] = cpl;
        d[l] = dpl;
      }
    }
    return;
  }
  // Row-contiguous (contiguous layout, e.g. k = 0): the recurrence is
  // serial per lane, but each lane streams its rows with unit stride and
  // carried state in registers.
  for (std::size_t l = 0; l < seg.lanes; ++l) {
    const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(l) * seg.lane_step;
    const T* __restrict a = seg.a + off;
    const T* __restrict b = seg.b + off;
    T* __restrict c = seg.c + off;
    T* __restrict d = seg.d + off;
    T cpl = cp[l];
    T dpl = dp[l];
    for (std::size_t i = 0; i < seg.rows; ++i) {
      const std::ptrdiff_t k = static_cast<std::ptrdiff_t>(i) * seg.row_step;
      const T denom = b[k] - cpl * a[k];
      const T inv = T(1) / denom;
      cpl = c[k] * inv;
      dpl = (d[k] - dpl * a[k]) * inv;
      c[k] = cpl;
      d[k] = dpl;
    }
    cp[l] = cpl;
    dp[l] = dpl;
  }
}

/// Thomas backward substitution across a lane segment:
/// x_{n-1} = d'_{n-1}, then x_i = d'_i - c'_i x_{i+1}. `xn` carries
/// x_{i+1} per lane. In-place when out.x addresses the segment's d.
template <typename T>
void thomas_backward_lanes(const LaneSegment<T>& seg, const LaneOutput<T>& out,
                           T* __restrict xn) noexcept {
  if (seg.rows == 0 || seg.lanes == 0) return;
  const bool in_place = out.x == seg.d && out.lane_step == seg.lane_step &&
                        out.row_step == seg.row_step;
  if (seg.lane_step == 1 && out.lane_step == 1) {
    for (std::size_t r = 0; r < seg.rows; ++r) {
      const std::size_t i = seg.rows - 1 - r;
      const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(i) * seg.row_step;
      const std::ptrdiff_t xoff =
          static_cast<std::ptrdiff_t>(i) * out.row_step;
      const T* __restrict d = seg.d + off;
      if (r == 0) {
        if (in_place) {
          for (std::size_t l = 0; l < seg.lanes; ++l) xn[l] = d[l];
        } else {
          T* __restrict x = out.x + xoff;
          for (std::size_t l = 0; l < seg.lanes; ++l) {
            const T v = d[l];
            x[l] = v;
            xn[l] = v;
          }
        }
        continue;
      }
      const T* __restrict c = seg.c + off;
      if (in_place) {
        T* __restrict dx = seg.d + off;
        for (std::size_t l = 0; l < seg.lanes; ++l) {
          const T v = dx[l] - c[l] * xn[l];
          dx[l] = v;
          xn[l] = v;
        }
      } else {
        T* __restrict x = out.x + xoff;
        for (std::size_t l = 0; l < seg.lanes; ++l) {
          const T v = d[l] - c[l] * xn[l];
          x[l] = v;
          xn[l] = v;
        }
      }
    }
    return;
  }
  // Row-contiguous / general: serial per lane, streaming rows backward.
  for (std::size_t l = 0; l < seg.lanes; ++l) {
    const T* __restrict c =
        seg.c + static_cast<std::ptrdiff_t>(l) * seg.lane_step;
    const T* __restrict d =
        seg.d + static_cast<std::ptrdiff_t>(l) * seg.lane_step;
    T* x = out.x + static_cast<std::ptrdiff_t>(l) * out.lane_step;
    const std::ptrdiff_t rs = seg.row_step;
    const std::ptrdiff_t xrs = out.row_step;
    const std::ptrdiff_t last = static_cast<std::ptrdiff_t>(seg.rows - 1);
    T v = d[last * rs];
    x[last * xrs] = v;
    for (std::ptrdiff_t i = last - 1; i >= 0; --i) {
      v = d[i * rs] - c[i * rs] * v;
      x[i * xrs] = v;
    }
    xn[l] = v;
  }
}

/// Per-worker bump pool for per-block lane carries (see file comment).
/// Chunked so a mid-block growth never invalidates earlier spans; the
/// next begin_block() consolidates into one warm buffer.
class LanePool {
 public:
  /// Reset for a new block. If the previous block overflowed into spill
  /// chunks, consolidate capacity first so this block runs warm.
  void begin_block() {
    reserve(total_needed_);
    spill_.clear();
    cursor_ = 0;
    total_needed_ = 0;
  }

  /// Grow the warm buffer to at least `bytes` (between blocks only: it
  /// may move the buffer). Growth counts as an acquire.
  void reserve(std::size_t bytes) {
    if (bytes <= cap_) return;
    buf_ = std::make_unique<std::byte[]>(bytes + kCacheLine);
    base_ = aligned_base(buf_.get());
    cap_ = bytes;
    ++acquires_;
  }

  /// Largest single-block demand (bytes) since the last drain.
  [[nodiscard]] std::size_t block_peak() const noexcept { return peak_; }

  /// Take n value-initialized Ts (trivially copyable only). Spans start
  /// kCacheLine-aligned (base and sizes are both rounded), so distinct
  /// carries never share a cache line.
  template <typename T>
  [[nodiscard]] std::span<T> take(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t bytes = align_up(n * sizeof(T));
    total_needed_ += bytes;
    peak_ = std::max(peak_, total_needed_);
    T* p;
    if (cursor_ + bytes <= cap_) {
      p = reinterpret_cast<T*>(base_ + cursor_);
      cursor_ += bytes;
      ++reuses_;
    } else {
      // Overflow: serve from a fresh spill chunk (kept alive until the
      // next begin_block so earlier spans stay valid).
      spill_.push_back(std::make_unique<std::byte[]>(bytes + kCacheLine));
      p = reinterpret_cast<T*>(aligned_base(spill_.back().get()));
      ++acquires_;
    }
    const std::span<T> out(p, n);
    for (T& v : out) v = T{};
    return out;
  }

  /// Drain the metric tallies (called once per launch by the engine).
  void drain(std::size_t& acquires, std::size_t& reuses) noexcept {
    acquires += acquires_;
    reuses += reuses_;
    acquires_ = 0;
    reuses_ = 0;
    peak_ = 0;
  }

 private:
  static constexpr std::size_t kCacheLine = 64;
  static std::size_t align_up(std::size_t n) noexcept {
    return (n + kCacheLine - 1) & ~(kCacheLine - 1);
  }
  static std::byte* aligned_base(std::byte* p) noexcept {
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    return p + (align_up(addr) - addr);
  }

  std::unique_ptr<std::byte[]> buf_;
  std::byte* base_ = nullptr;
  std::vector<std::unique_ptr<std::byte[]>> spill_;
  std::size_t cap_ = 0;
  std::size_t cursor_ = 0;
  std::size_t total_needed_ = 0;
  std::size_t peak_ = 0;
  std::size_t acquires_ = 0;
  std::size_t reuses_ = 0;
};

/// VecLength-style lane blocking for grid-wide fused sweeps: the widest
/// lane tile whose c and d slices (rows * width * 2 elements) still fit a
/// last-level-cache budget, so a backward substitution re-reads the
/// forward sweep's outputs from cache instead of DRAM. Power of two,
/// clamped to [64, 2^20] (tiny tiles would spend their time on loop
/// prologues instead of streaming).
[[nodiscard]] inline std::size_t lane_tile(std::size_t rows,
                                           std::size_t elem_size) noexcept {
  constexpr std::size_t kBudgetBytes = std::size_t{128} << 20;
  const std::size_t per_lane = 2 * std::max<std::size_t>(1, rows) *
                               std::max<std::size_t>(1, elem_size);
  std::size_t w = 64;
  while (w < (std::size_t{1} << 20) && (w * 2) * per_lane <= kBudgetBytes) {
    w *= 2;
  }
  return w;
}

/// The calling thread's LanePool for grid-level (host-side) fused sweeps
/// — the pooled scratch behind the functional fast path when a kernel
/// bypasses per-block execution entirely. Callers bracket a solve with
/// begin_block() and drain() into detail::note_scratch.
[[nodiscard]] LanePool& host_lane_pool() noexcept;

namespace detail {
/// Metric bookkeeping for the fast path (cached handles; see
/// vector_engine.cpp): per-launch LanePool tallies and the number of
/// launch blocks a lane sweep replaced, grid-wide or block by block
/// (gpusim.vector.blocks).
void note_scratch(std::size_t acquires, std::size_t reuses) noexcept;
void note_vector_blocks(double n) noexcept;
}  // namespace detail

extern template void thomas_forward_lanes<float>(const LaneSegment<float>&,
                                                 float* __restrict,
                                                 float* __restrict) noexcept;
extern template void thomas_forward_lanes<double>(const LaneSegment<double>&,
                                                  double* __restrict,
                                                  double* __restrict) noexcept;
extern template void thomas_backward_lanes<float>(const LaneSegment<float>&,
                                                  const LaneOutput<float>&,
                                                  float* __restrict) noexcept;
extern template void thomas_backward_lanes<double>(const LaneSegment<double>&,
                                                   const LaneOutput<double>&,
                                                   double* __restrict) noexcept;

}  // namespace tridsolve::gpusim
