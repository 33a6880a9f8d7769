#include "gpu_solvers/pthomas_kernel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "gpu_solvers/transition.hpp"
#include "gpusim/block_classes.hpp"
#include "gpusim/vector_engine.hpp"
#include "tridiag/thomas.hpp"

namespace tridsolve::gpu {

namespace {

// Each sweep is one body, written once over a generic thread handle `t`
// and run lockstep: one round per row, every live lane of the block
// advancing together, lanes innermost. That is how the warp executes on
// hardware, and on the simulator host it pipelines the per-row divide
// across the block's independent systems and turns the interleaved
// layout's accesses into contiguous row-major streams. Recorded costs are
// identical to the per-thread loop form (rounds, addresses and op counts
// are unchanged); per-thread carries (c', d', x_{i+1}) live in pooled
// lane arrays instead of registers.
//
// The executor (lockstep) picks the handle: blocks that record, check
// hazards or inject faults run the body through ThreadCtx; every other
// block runs it on gpusim::RawThread, whose cost calls are no-ops, so both
// compute the same bits by construction. The other paths are the lane
// sweeps below (thomas_forward_lanes, thomas_backward_lanes), pinned
// bit-identical to the bodies by tests/test_vector_engine.cpp: grid-wide
// for functional solves (grid_vector_sweep), and block by block for the
// unobserved blocks of an instrumented launch (block_forward_lanes,
// block_backward_lanes), both only while the vector engine is on, guarded
// or not. Every path runs tridiag::thomas_forward_row, one call per row
// and lane, and a guarded one tridiag::detail::guard_thomas_pivot after
// it.

/// Every block holds this many systems, one thread each.
constexpr int kBlockThreads = static_cast<int>(kPthomasBlockSystems);

// ---- Lane sweeps -----------------------------------------------------------
// The interleaved batched Thomas of Gloster et al. (arXiv:1909.04539):
// whole *lane segments* — runs of consecutive systems whose coefficient
// arrays form an affine grid, element (row i, lane l) of each array at
// base + l*lane_step + i*row_step — swept row by row across lanes. The
// interleaved layout the kernel prefers (and the reduced-system views the
// hybrid solver builds) has lane_step == 1, so the inner loops are
// contiguous, `__restrict`-annotated, and auto-vectorize under -O3 (see
// the `release-native` preset for full-width SIMD).
//
// Per lane each sweep performs exactly the kernel body's arithmetic in
// the same order (lanes are independent systems, so cross-lane order is
// free). The four coefficient arrays (and the solution array of the
// backward sweep, unless it is exactly the d array) must be disjoint, as
// the in-place kernels always required; distinct segments never overlap,
// so concurrent sweeps are race-free exactly as the kernel's blocks are.

/// One affine lane segment.
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
/// entries, zero-initialized by the caller for fresh systems). `Guarded`
/// folds every row's pivot into the lane's status st[l], as the kernel
/// body does; the unguarded instantiation carries no guard code.
template <bool Guarded, typename T>
void forward_lanes(const LaneSegment<T>& seg, T* __restrict cp,
                   T* __restrict dp,
                   tridiag::SolveStatus* __restrict st) noexcept {
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
        const T cl = c[l];  // the guard reads c, not c'
        const T pivot =
            tridiag::thomas_forward_row(a[l], b[l], cl, d[l], cp[l], dp[l]);
        if constexpr (Guarded) {
          tridiag::detail::guard_thomas_pivot(st[l], a[l], b[l], cl, pivot, i);
        }
        c[l] = cp[l];
        d[l] = dp[l];
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
    tridiag::SolveStatus sl{};
    if constexpr (Guarded) sl = st[l];
    for (std::size_t i = 0; i < seg.rows; ++i) {
      const std::ptrdiff_t k = static_cast<std::ptrdiff_t>(i) * seg.row_step;
      const T ck = c[k];
      const T pivot =
          tridiag::thomas_forward_row(a[k], b[k], ck, d[k], cpl, dpl);
      if constexpr (Guarded) {
        tridiag::detail::guard_thomas_pivot(sl, a[k], b[k], ck, pivot, i);
      }
      c[k] = cpl;
      d[k] = dpl;
    }
    cp[l] = cpl;
    dp[l] = dpl;
    if constexpr (Guarded) st[l] = sl;
  }
}

/// forward_lanes with an optional per-lane status accumulator: null runs
/// the unguarded sweep.
template <typename T>
void thomas_forward_lanes(const LaneSegment<T>& seg, T* cp, T* dp,
                          tridiag::SolveStatus* st = nullptr) noexcept {
  if (st != nullptr) {
    forward_lanes<true>(seg, cp, dp, st);
  } else {
    forward_lanes<false>(seg, cp, dp, st);
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

// ---- Kernel executors ------------------------------------------------------

/// Round count and lane count for one block of a thread-per-system grid.
template <typename T>
struct BlockLanes {
  std::size_t base = 0;   ///< first system id of the block
  std::size_t lanes = 0;  ///< live lanes (idle tail lanes do nothing)
  std::size_t rounds = 0; ///< max system size across live lanes

  BlockLanes(const gpusim::BlockContext& ctx,
             std::span<const tridiag::SystemRef<T>> systems) {
    const std::size_t bt = kPthomasBlockSystems;
    base = ctx.block_id() * bt;
    lanes = std::min(bt, systems.size() - base);
    for (std::size_t l = 0; l < lanes; ++l) {
      rounds = std::max(rounds, systems[base + l].size());
    }
  }
};

/// Run `body(t, round)` for every live lane of the block, round-major with
/// lanes innermost: through phase_rounds/ThreadCtx when the block is
/// observed, else on RawThread.
template <typename T, typename Body>
void lockstep(gpusim::BlockContext& ctx, const BlockLanes<T>& blk, Body&& body) {
  if (ctx.observed()) {
    ctx.phase_rounds(blk.rounds, body);
    return;
  }
  for (std::size_t r = 0; r < blk.rounds; ++r) {
    for (std::size_t lane = 0; lane < blk.lanes; ++lane) {
      gpusim::RawThread t(static_cast<int>(lane));
      body(t, r);
    }
  }
}

template <typename T>
std::size_t grid_for(std::span<const tridiag::SystemRef<T>> systems) {
  return (systems.size() + kPthomasBlockSystems - 1) / kPthomasBlockSystems;
}

/// Cost classes of a thread-per-system grid (gpusim/block_classes.hpp),
/// one table for the forward and the backward launch: per block its live
/// lane count and, per lane, the system size and every array's row stride
/// and address (xout's too, when given). Lanes sharing those touch
/// translated rows of equal shape, so the recorded costs agree.
template <typename T>
gpusim::BlockClasses lane_classes(const gpusim::DeviceSpec& dev,
                                  std::span<const tridiag::SystemRef<T>> systems,
                                  std::span<const tridiag::StridedView<T>> xout) {
  gpusim::BlockClasses classes(
      static_cast<std::size_t>(dev.transaction_bytes));
  const auto view = [&](const tridiag::StridedView<T>& v) {
    classes.push(v.stride());
    classes.address(reinterpret_cast<std::uintptr_t>(v.data()));
  };
  const std::size_t bt = kPthomasBlockSystems;
  for (std::size_t base = 0; base < systems.size(); base += bt) {
    const std::size_t end = std::min(systems.size(), base + bt);
    classes.begin_block();
    classes.push(static_cast<std::int64_t>(end - base));
    for (std::size_t l = base; l < end; ++l) {
      const tridiag::SystemRef<T>& s = systems[l];
      classes.push(static_cast<std::int64_t>(s.size()));
      view(s.a);
      view(s.b);
      view(s.c);
      view(s.d);
      if (!xout.empty()) view(xout[l]);
    }
    classes.end_block();
  }
  return classes;
}

/// True when every system's a/b/c/d arrays share one row stride, as lane
/// segments need (SystemBatch views always do; mismatched views run the
/// per-block bodies instead).
template <typename T>
bool strides_agree(std::span<const tridiag::SystemRef<T>> systems) {
  return std::all_of(systems.begin(), systems.end(), [](const auto& s) {
    const std::ptrdiff_t rs = s.a.stride();
    return s.b.stride() == rs && s.c.stride() == rs && s.d.stride() == rs;
  });
}

/// True when the grid-wide sweep may replace the launch bodies: the engine
/// is on its functional fast path and the strides agree.
template <typename T>
bool grid_sweep_applies(std::span<const tridiag::SystemRef<T>> systems) {
  return gpusim::ExecutionEngine::instance().functional_fast_path() &&
         strides_agree(systems);
}

/// True when the unobserved blocks of a launch may run their lanes as
/// lane segments (block_forward_lanes / block_backward_lanes) instead of
/// the lockstep body: the vector engine is on and the strides agree.
template <typename T>
bool block_lanes_apply(std::span<const tridiag::SystemRef<T>> systems) {
  return gpusim::ExecutionEngine::instance().vector_enabled() &&
         strides_agree(systems);
}

/// Add a launch's tally of blocks that ran a per-block lane sweep
/// (counted by every worker) to gpusim.vector.blocks.
void note_swept(const std::atomic<std::size_t>& swept) noexcept {
  if (const std::size_t n = swept.load(std::memory_order_relaxed)) {
    gpusim::detail::note_vector_blocks(static_cast<double>(n));
  }
}

/// Extend the maximal affine lane segment starting at lane `l0`:
/// consecutive systems of equal size and row stride whose a/b/c/d arrays
/// all advance lane-to-lane by one common element step. Fills `seg` and
/// returns one past its last lane.
template <typename T>
std::size_t affine_segment(std::span<const tridiag::SystemRef<T>> systems,
                           std::size_t l0, LaneSegment<T>& seg) {
  const tridiag::SystemRef<T>& s0 = systems[l0];
  seg = {.a = s0.a.data(), .b = s0.b.data(), .c = s0.c.data(),
         .d = s0.d.data(), .lane_step = 1, .row_step = s0.a.stride(),
         .lanes = 1, .rows = s0.size()};
  for (std::size_t l = l0 + 1; l < systems.size(); ++l) {
    const tridiag::SystemRef<T>& p = systems[l - 1];
    const tridiag::SystemRef<T>& s = systems[l];
    const std::ptrdiff_t step = s.a.data() - p.a.data();
    if (s.size() != seg.rows || s.a.stride() != seg.row_step ||
        s.b.data() - p.b.data() != step || s.c.data() - p.c.data() != step ||
        s.d.data() - p.d.data() != step ||
        (l > l0 + 1 && step != seg.lane_step)) {
      break;
    }
    seg.lane_step = step;
    seg.lanes = l - l0 + 1;
  }
  return l0 + seg.lanes;
}

/// Longest run of xout views starting at lane `abs0` (at most
/// `max_lanes`) that stays affine: equal row stride, constant
/// lane-to-lane pointer step. Fills `out` and returns the run length.
template <typename T>
std::size_t xout_affine_run(std::span<const tridiag::StridedView<T>> xout,
                            std::size_t abs0, std::size_t max_lanes,
                            LaneOutput<T>& out) {
  const tridiag::StridedView<T>& x0 = xout[abs0];
  out = {x0.data(), 1, x0.stride()};
  std::size_t xl = 1;
  for (; xl < max_lanes; ++xl) {
    const tridiag::StridedView<T>& p = xout[abs0 + xl - 1];
    const tridiag::StridedView<T>& s = xout[abs0 + xl];
    if (s.stride() != x0.stride()) break;
    const std::ptrdiff_t step = s.data() - p.data();
    if (xl == 1) {
      out.lane_step = step;
    } else if (step != out.lane_step) {
      break;
    }
  }
  return xl;
}

/// Shift an affine segment to its lanes [t0, t0 + w).
template <typename T>
LaneSegment<T> sub_segment(const LaneSegment<T>& seg, std::size_t t0,
                           std::size_t w) {
  LaneSegment<T> sub = seg;
  const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(t0) * seg.lane_step;
  sub.a += shift;
  sub.b += shift;
  sub.c += shift;
  sub.d += shift;
  sub.lanes = w;
  return sub;
}

/// Start the guard status of every non-empty lane of a segment afresh, as
/// the kernel body's accumulator starts; the sweep then folds each row
/// in, so each lane ends with the status the body writes at its last row
/// (an empty system's slot stays untouched, as in the body). Returns the
/// segment's slice of `guard`, or null when the solve is unguarded.
template <typename T>
tridiag::SolveStatus* fresh_guard(std::span<tridiag::SolveStatus> guard,
                                  std::size_t l0, const LaneSegment<T>& seg) {
  if (guard.empty()) return nullptr;
  tridiag::SolveStatus* st = guard.data() + l0;
  if (seg.rows > 0) std::fill(st, st + seg.lanes, tridiag::SolveStatus{});
  return st;
}

/// Forward sweep of one unobserved block (see block_lanes_apply): its
/// systems `mine` split into maximal affine segments, each swept with the
/// block's own zero-filled carries, and `guard` (the block's slice, or
/// empty) the statuses the body's guard would write. Per lane the
/// arithmetic and its order are the body's, so the bits are too
/// (tests/test_vector_engine.cpp).
template <typename T>
void block_forward_lanes(std::span<const tridiag::SystemRef<T>> mine,
                         std::span<T> cp, std::span<T> dp,
                         std::span<tridiag::SolveStatus> guard) {
  for (std::size_t l0 = 0; l0 < mine.size();) {
    LaneSegment<T> seg;
    const std::size_t end = affine_segment(mine, l0, seg);
    thomas_forward_lanes(seg, cp.data() + l0, dp.data() + l0,
                         fresh_guard(guard, l0, seg));
    l0 = end;
  }
}

/// Backward counterpart of block_forward_lanes; `xout` is the block's
/// slice of the output views (empty: in place).
template <typename T>
void block_backward_lanes(std::span<const tridiag::SystemRef<T>> mine,
                          std::span<const tridiag::StridedView<T>> xout,
                          std::span<T> x_next) {
  for (std::size_t l0 = 0; l0 < mine.size();) {
    LaneSegment<T> seg;
    std::size_t end = affine_segment(mine, l0, seg);
    LaneOutput<T> out{seg.d, seg.lane_step, seg.row_step};
    if (!xout.empty()) {
      seg.lanes = xout_affine_run(xout, l0, seg.lanes, out);
      end = l0 + seg.lanes;
    }
    thomas_backward_lanes(seg, out, x_next.data() + l0);
    l0 = end;
  }
}

/// Grid-wide vectorized sweep for the functional fast path (the launch
/// bodies become no-ops; see pthomas_solve). Requires grid_sweep_applies.
/// Walks maximal affine lane segments across the WHOLE grid — not per
/// 128-lane block, so streams are megabytes long — and lane-tiles each
/// segment (gpusim::lane_tile) so that when `fuse_backward` is set the
/// backward substitution re-reads the forward sweep's c'/d' tile from
/// cache instead of DRAM. A forward sweep writes each system's guard
/// status into `guard` when it is not empty. Per-lane arithmetic and
/// order are exactly the kernel bodies': bit-identical outputs and
/// statuses (tests/test_vector_engine.cpp).
template <typename T>
void grid_vector_sweep(std::span<const tridiag::SystemRef<T>> systems,
                       std::span<const tridiag::StridedView<T>> xout,
                       bool forward, bool fuse_backward,
                       std::span<tridiag::SolveStatus> guard = {}) {
  gpusim::LanePool& pool = gpusim::host_lane_pool();
  pool.begin_block();
  const bool backward = fuse_backward || !forward;
  std::size_t l0 = 0;
  while (l0 < systems.size()) {
    LaneSegment<T> seg;
    std::size_t end = affine_segment(systems, l0, seg);
    LaneOutput<T> out{seg.d, seg.lane_step, seg.row_step};
    if (backward && !xout.empty()) {
      seg.lanes = xout_affine_run(xout, l0, seg.lanes, out);
      end = l0 + seg.lanes;
    }
    const std::size_t tile =
        std::min(seg.lanes, gpusim::lane_tile(seg.rows, sizeof(T)));
    const std::span<T> cp = pool.take<T>(forward ? tile : 0);
    const std::span<T> dp = pool.take<T>(forward ? tile : 0);
    const std::span<T> xn = pool.take<T>(backward ? tile : 0);
    for (std::size_t t0 = 0; t0 < seg.lanes; t0 += tile) {
      const std::size_t w = std::min(tile, seg.lanes - t0);
      const LaneSegment<T> sub = sub_segment(seg, t0, w);
      const LaneOutput<T> osub{
          out.x + static_cast<std::ptrdiff_t>(t0) * out.lane_step,
          out.lane_step, out.row_step};
      if (forward) {
        std::fill(cp.begin(), cp.begin() + static_cast<std::ptrdiff_t>(w),
                  T(0));
        std::fill(dp.begin(), dp.begin() + static_cast<std::ptrdiff_t>(w),
                  T(0));
        thomas_forward_lanes(sub, cp.data(), dp.data(),
                             fresh_guard(guard, l0 + t0, sub));
      }
      if (backward) {
        thomas_backward_lanes(sub, osub, xn.data());
      }
    }
    l0 = end;
  }
  std::size_t acquires = 0;
  std::size_t reuses = 0;
  pool.drain(acquires, reuses);
  gpusim::detail::note_scratch(acquires, reuses);
}

/// Backward substitution: x_i = d'_i - c'_i x_{i+1}, walking rows from the
/// end; round r touches row n-1-r, x_{i+1} carries between rounds.
/// `classes` is the forward launch's cost-class table, or null to build
/// one here.
template <typename T>
gpusim::LaunchStats backward(const gpusim::DeviceSpec& dev,
                             std::span<const tridiag::SystemRef<T>> systems,
                             std::span<const tridiag::StridedView<T>> xout,
                             const gpusim::BlockClasses* classes) {
  const std::size_t grid = grid_for(systems);
  // Functional fast path (see pthomas_solve): one grid-wide vectorized
  // backward sweep, then an empty-bodied launch for the accounting.
  if (grid_sweep_applies(systems)) {
    grid_vector_sweep<T>(systems, xout, /*forward=*/false,
                         /*fuse_backward=*/false);
    gpusim::detail::note_vector_blocks(static_cast<double>(grid));
    return gpusim::launch(dev, {grid, kBlockThreads},
                          [](gpusim::BlockContext&) {});
  }
  std::optional<gpusim::BlockClasses> own;
  if (classes == nullptr) {
    classes = &own.emplace(lane_classes(dev, systems, xout));
  }
  const bool lanes = block_lanes_apply(systems);
  std::atomic<std::size_t> swept{0};
  const gpusim::LaunchStats stats = gpusim::launch(
      dev, {grid, kBlockThreads, classes->table()},
      [&](gpusim::BlockContext& ctx) {
        const BlockLanes<T> blk(ctx, systems);
        const std::span<T> x_next = ctx.lane_buffer<T>(blk.lanes);
        if (lanes && !ctx.observed()) {
          block_backward_lanes(
              systems.subspan(blk.base, blk.lanes),
              xout.empty() ? xout : xout.subspan(blk.base, blk.lanes), x_next);
          swept.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        lockstep(ctx, blk, [&](auto& t, std::size_t r) {
          const std::size_t lane = static_cast<std::size_t>(t.tid());
          if (lane >= blk.lanes) return;
          const tridiag::SystemRef<T>& s = systems[blk.base + lane];
          const std::size_t n = s.size();
          if (r >= n) return;
          const std::size_t i = n - 1 - r;
          T* const x_at =
              xout.empty() ? s.d.ptr(i) : xout[blk.base + lane].ptr(i);
          if (r == 0) {
            const T x = t.load(s.d.ptr(i));  // x_{n-1} = d'_{n-1}
            t.store(x_at, x);
            x_next[lane] = x;
            return;
          }
          const T cp = t.load(s.c.ptr(i));
          const T dp = t.load(s.d.ptr(i));
          const T x = dp - cp * x_next[lane];
          t.template flops<T>(2);
          t.store(x_at, x);
          x_next[lane] = x;
        });
      });
  note_swept(swept);
  return stats;
}

}  // namespace

template <typename T>
PthomasStats pthomas_solve(const gpusim::DeviceSpec& dev,
                           std::span<const tridiag::SystemRef<T>> systems,
                           std::span<const tridiag::StridedView<T>> xout,
                           std::span<tridiag::SolveStatus> guard) {
  if (!guard.empty() && guard.size() != systems.size()) {
    throw std::invalid_argument("pthomas_solve: guard/systems size mismatch");
  }
  if (!xout.empty() && xout.size() != systems.size()) {
    throw std::invalid_argument("pthomas_solve: xout/systems size mismatch");
  }
  PthomasStats stats;
  const bool guarding = !guard.empty();
  const std::size_t grid = grid_for(systems);

  // Functional fast path: no instrumentation, hazards or faults active,
  // so run one grid-wide fused sweep (forward + backward per lane tile,
  // cache-blocked, guard statuses included) and issue the two launches
  // with empty bodies — launch accounting, timeline labels and grid shape
  // stay exactly as in the per-block execution.
  if (grid_sweep_applies(systems)) {
    grid_vector_sweep<T>(systems, xout, /*forward=*/true,
                         /*fuse_backward=*/true, guard);
    gpusim::detail::note_vector_blocks(static_cast<double>(2 * grid));
    stats.forward =
        gpusim::launch(dev, {grid, kBlockThreads}, [](gpusim::BlockContext&) {});
    stats.backward =
        gpusim::launch(dev, {grid, kBlockThreads}, [](gpusim::BlockContext&) {});
    return stats;
  }

  const gpusim::BlockClasses classes =
      lane_classes(dev, systems, xout);
  const bool lanes = block_lanes_apply(systems);
  std::atomic<std::size_t> swept{0};
  // Forward reduction, in place: c <- c', d <- d'. One serialized memory
  // round per row (the loads of row i gate the elimination row i+1 needs).
  stats.forward = gpusim::launch(
      dev, {grid, kBlockThreads, classes.table()},
      [&](gpusim::BlockContext& ctx) {
        const BlockLanes<T> blk(ctx, systems);
        const std::span<T> cp = ctx.lane_buffer<T>(blk.lanes);
        const std::span<T> dp = ctx.lane_buffer<T>(blk.lanes);
        if (lanes && !ctx.observed()) {
          block_forward_lanes(
              systems.subspan(blk.base, blk.lanes), cp, dp,
              guarding ? guard.subspan(blk.base, blk.lanes) : guard);
          swept.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        const std::span<tridiag::SolveStatus> acc =
            ctx.lane_buffer<tridiag::SolveStatus>(guarding ? blk.lanes : 0);
        lockstep(ctx, blk, [&](auto& t, std::size_t i) {
          const std::size_t lane = static_cast<std::size_t>(t.tid());
          if (lane >= blk.lanes) return;
          const tridiag::SystemRef<T>& s = systems[blk.base + lane];
          if (i >= s.size()) return;
          const T a = t.load(s.a.ptr(i));
          const T b = t.load(s.b.ptr(i));
          const T c = t.load(s.c.ptr(i));
          const T d = t.load(s.d.ptr(i));
          const T pivot =
              tridiag::thomas_forward_row(a, b, c, d, cp[lane], dp[lane]);
          if (guarding) {
            // Each lane owns one system, so the slot write is race-free
            // regardless of block scheduling order.
            tridiag::detail::guard_thomas_pivot(acc[lane], a, b, c, pivot, i);
            if (i + 1 == s.size()) guard[blk.base + lane] = acc[lane];
          }
          t.template flops<T>(6);
          t.template divs<T>(1);
          t.store(s.c.ptr(i), cp[lane]);
          t.store(s.d.ptr(i), dp[lane]);
        });
      });
  note_swept(swept);

  stats.backward = backward(dev, systems, xout, &classes);
  return stats;
}

template <typename T>
gpusim::LaunchStats pthomas_backward(const gpusim::DeviceSpec& dev,
                                     std::span<const tridiag::SystemRef<T>> systems,
                                     std::span<const tridiag::StridedView<T>> xout) {
  if (!xout.empty() && xout.size() != systems.size()) {
    throw std::invalid_argument("pthomas_backward: xout/systems size mismatch");
  }
  return backward(dev, systems, xout, nullptr);
}

template PthomasStats pthomas_solve<float>(const gpusim::DeviceSpec&,
                                           std::span<const tridiag::SystemRef<float>>,
                                           std::span<const tridiag::StridedView<float>>,
                                           std::span<tridiag::SolveStatus>);
template PthomasStats pthomas_solve<double>(
    const gpusim::DeviceSpec&, std::span<const tridiag::SystemRef<double>>,
    std::span<const tridiag::StridedView<double>>,
    std::span<tridiag::SolveStatus>);
template gpusim::LaunchStats pthomas_backward<float>(
    const gpusim::DeviceSpec&, std::span<const tridiag::SystemRef<float>>,
    std::span<const tridiag::StridedView<float>>);
template gpusim::LaunchStats pthomas_backward<double>(
    const gpusim::DeviceSpec&, std::span<const tridiag::SystemRef<double>>,
    std::span<const tridiag::StridedView<double>>);

}  // namespace tridsolve::gpu
