#pragma once
// Host-side support for the simulator's fast paths.
//
// LanePool is a per-worker bump allocator backing the kernels' per-block
// lane carries (c', d', x_next, PCR window state, in-shared staging rows)
// and the grid-wide lane sweeps of gpu_solvers/pthomas_kernel.cpp.
// Capacity only grows, so steady-state blocks perform zero heap
// allocations; growth vs warm-serve tallies feed the
// gpusim.scratch.{acquires,reuses} metrics. After every launch the engine
// grows each participant's pool to the launch's largest per-block demand,
// so which worker happened to run which block never decides when a pool
// grows. lane_tile sizes the grid sweeps' cache tiles, and the note_*
// counters record what the fast paths did.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace tridsolve::gpusim {

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

}  // namespace tridsolve::gpusim
