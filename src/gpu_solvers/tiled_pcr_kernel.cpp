#include "gpu_solvers/tiled_pcr_kernel.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "gpusim/block_classes.hpp"
#include "tridiag/pcr.hpp"
#include "tridiag/thomas.hpp"

namespace tridsolve::gpu {

namespace {

using tridiag::Row;

/// Upper bound on cfg.k used to size per-window tail arrays. 2^16 block
/// threads is far beyond any DeviceSpec block limit, so this never bites
/// real configurations; it exists so window state is trivially copyable
/// (fixed-size tail array) and can live in pooled launch scratch.
constexpr unsigned kMaxK = 16;

/// What one Eqs. 5-6 elimination charges: op-equivalents and divisions.
/// The per-thread COMBINE body and a recording block's block_phase tally
/// both read these, so the two paths record the same costs.
constexpr std::uint32_t kCombineOps = 10;
constexpr std::uint32_t kCombineDivs = 2;

/// Cost classes of the launch (gpusim/block_classes.hpp): per block its
/// window count and, per window, the region length, how far the loaded
/// rows reach before r0 (the warm-up the system start clips) and from r0
/// on (the drain the system end clips), and every input and output
/// array's row stride and address at row r0. Blocks sharing those load
/// and store translated rows in the same phases; every combine is charged
/// whether its row is real or identity padding, so values never matter.
template <typename T>
gpusim::BlockClasses window_classes(const gpusim::DeviceSpec& dev,
                                    std::span<const TiledPcrWork<T>> work,
                                    std::size_t per_block, std::size_t S,
                                    std::size_t warm, std::size_t halo) {
  gpusim::BlockClasses classes(
      static_cast<std::size_t>(dev.transaction_bytes));
  const auto lead = static_cast<std::int64_t>(warm * S);
  for (std::size_t first = 0; first < work.size(); first += per_block) {
    const std::size_t end = std::min(work.size(), first + per_block);
    classes.begin_block();
    classes.push(static_cast<std::int64_t>(end - first));
    for (std::size_t g = first; g < end; ++g) {
      const TiledPcrWork<T>& w = work[g];
      const std::size_t len = w.r1 - w.r0;
      const auto reach =
          static_cast<std::int64_t>((len + halo + S - 1) / S * S);
      const auto r0 = static_cast<std::int64_t>(w.r0);
      const auto n = static_cast<std::int64_t>(w.sys.size());
      classes.push(static_cast<std::int64_t>(len));
      classes.push(std::min(r0, lead));
      classes.push(std::min(n - r0, reach));
      for (const tridiag::SystemRef<T>* sys : {&w.sys, &w.out}) {
        for (const tridiag::StridedView<T>* v : {&sys->a, &sys->b, &sys->c,
                                                 &sys->d}) {
          classes.push(v->stride());
          classes.address(reinterpret_cast<std::uintptr_t>(v->data()) +
                          static_cast<std::uintptr_t>(w.r0) *
                              static_cast<std::uintptr_t>(v->stride()) *
                              sizeof(T));
        }
      }
    }
    classes.end_block();
  }
  return classes;
}

}  // namespace

namespace detail {

template <typename T>
void guard_window_level(tridiag::SolveStatus& guard, const Row<T>* src,
                        const Row<T>* tail, std::size_t reach,
                        std::size_t from, std::size_t to, std::size_t threads,
                        std::ptrdiff_t pos0, double* ratio) noexcept {
  using tridiag::detail::pcr_divisors_ok;
  if (to <= from) return;
  // Each real row's ratio, NaN for a bad row (a NaN never wins the growth
  // fold), in loops with no loop-carried dependency, split where lo and
  // mid move from the tail cache to the batch as in combine_level; lo,
  // mid and hi point at the operands of row b.
  // (An integer flag: GCC does not vectorize a bool OR reduction.)
  unsigned any_bad = 0;
  const auto ratios = [&](std::size_t b, std::size_t e, const Row<T>* lo,
                          const Row<T>* mid, const Row<T>* hi) {
    unsigned bad = 0;
    for (std::size_t i = 0; i < e - b; ++i) {
      const double r =
          tridiag::detail::pcr_growth_ratio(lo[i], mid[i], hi[i]);
      const bool ok = pcr_divisors_ok(lo[i], hi[i]);
      ratio[b + i] = ok ? r : std::numeric_limits<double>::quiet_NaN();
      bad |= ok ? 0u : 1u;
    }
    any_bad |= bad;
  };
  const std::size_t r1 = std::clamp(reach, from, to);
  const std::size_t r2 = std::clamp(2 * reach, from, to);
  if (from < r1) ratios(from, r1, tail + from, tail + from + reach, src + from);
  if (r1 < r2) ratios(r1, r2, tail + r1, src + (r1 - reach), src + r1);
  if (r2 < to) {
    ratios(r2, to, src + (r2 - 2 * reach), src + (r2 - reach), src + r2);
  }
  const double growth =
      tridiag::detail::fold_max(guard.pivot_growth, ratio + from, to - from);
  // Only the first offence depends on the order; look for it only when a
  // row is bad and the window is not flagged yet. The phased order's key
  // is (i mod threads, i / threads), plain ascending i when c = 1.
  std::size_t first_bad = tridiag::detail::kNoOffence;
  if (any_bad != 0 && guard.ok()) {
    for (std::size_t tid = 0; tid < threads; ++tid) {
      for (std::size_t i = tid; i < to; i += threads) {
        const Row<T>& lo = i >= 2 * reach ? src[i - 2 * reach] : tail[i];
        if (i >= from && !pcr_divisors_ok(lo, src[i])) {
          first_bad = static_cast<std::size_t>(
              pos0 + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      if (first_bad != tridiag::detail::kNoOffence) break;
    }
  }
  tridiag::detail::close_guard(guard, first_bad, growth);
}

template void guard_window_level<float>(tridiag::SolveStatus&,
                                        const Row<float>*, const Row<float>*,
                                        std::size_t, std::size_t, std::size_t,
                                        std::size_t, std::ptrdiff_t,
                                        double*) noexcept;
template void guard_window_level<double>(tridiag::SolveStatus&,
                                         const Row<double>*,
                                         const Row<double>*, std::size_t,
                                         std::size_t, std::size_t, std::size_t,
                                         std::ptrdiff_t, double*) noexcept;

}  // namespace detail

std::size_t tiled_pcr_window_shared_bytes(unsigned k, std::size_t c,
                                          std::size_t elem_size) {
  const std::size_t s = c << k;
  const std::size_t rows = 2 * s + 2 * tridiag::pcr_halo(k);
  return rows * 4 * elem_size;
}

template <typename T>
TiledPcrStats tiled_pcr_kernel(const gpusim::DeviceSpec& dev,
                               std::span<const TiledPcrWork<T>> work,
                               const TiledPcrConfig& cfg,
                               std::span<tridiag::SolveStatus> window_guard) {
  if (cfg.k == 0) throw std::invalid_argument("tiled_pcr_kernel: k must be >= 1");
  if (cfg.k > kMaxK) {
    throw std::invalid_argument("tiled_pcr_kernel: k exceeds supported maximum");
  }
  if (!window_guard.empty() && window_guard.size() != work.size()) {
    throw std::invalid_argument(
        "tiled_pcr_kernel: window_guard/work size mismatch");
  }
  const bool guarding = !window_guard.empty();
  const int threads = 1 << cfg.k;
  if (threads > dev.max_threads_per_block) {
    throw std::invalid_argument("tiled_pcr_kernel: 2^k exceeds block limit");
  }
  const std::size_t S = cfg.c << cfg.k;                       // sub-tile rows
  const std::ptrdiff_t halo = static_cast<std::ptrdiff_t>(tridiag::pcr_halo(cfg.k));
  const std::size_t warm = (static_cast<std::size_t>(halo) + S - 1) / S;

  if (cfg.fuse_thomas_forward) {
    for (const auto& w : work) {
      if (w.r0 != 0 || w.r1 != w.sys.size()) {
        throw std::invalid_argument(
            "tiled_pcr_kernel: fusion requires whole-system windows");
      }
    }
  }
  for (const auto& w : work) {
    const bool aliases = w.out.a.data() == w.sys.a.data();
    if (aliases && (w.r0 != 0 || w.r1 != w.sys.size())) {
      throw std::invalid_argument(
          "tiled_pcr_kernel: split-system windows must not write in place "
          "(halo data race)");
    }
  }

  const std::size_t G = std::max<std::size_t>(1, cfg.systems_per_block);
  const std::size_t grid = (work.size() + G - 1) / G;

  TiledPcrStats stats;
  stats.windows = work.size();
  for (const auto& w : work) {
    const std::size_t len = w.r1 - w.r0;
    stats.rows_total += len;
    const std::size_t tiles = (len + S - 1) / S;
    if (tiles > 1) stats.sub_tile_boundaries += tiles - 1;
  }
  stats.halo_loads_avoided =
      stats.sub_tile_boundaries * tridiag::pcr_halo(cfg.k);
  stats.redundant_elims_avoided =
      stats.sub_tile_boundaries * tridiag::pcr_redundant_elims(cfg.k);

  const gpusim::BlockClasses classes =
      window_classes(dev, work, G, S, warm, static_cast<std::size_t>(halo));
  const gpusim::LaunchConfig launch_cfg{grid, threads, classes.table()};
  stats.launch = gpusim::launch(dev, launch_cfg, [&](gpusim::BlockContext& ctx) {
    // ---- Window state for this block -----------------------------------
    struct Window {
      TiledPcrWork<T> w{};
      std::ptrdiff_t P = 0;     // load cursor (start of current sub-tile)
      std::size_t iters = 0;    // total iterations for this window
      std::span<Row<T>> buf[2]{};          // ping-pong level batches
      // tails[j]: level-j tail, 2^{j+1} rows. Fixed-size array (not a
      // vector) so Window is trivially copyable and can live in the
      // per-launch lane pool instead of a heap vector.
      std::array<std::span<Row<T>>, kMaxK> tails{};
      // "Registers" of the fused Thomas forward, one carry per thread;
      // zero-filled by lane_buffer, matching the T(0) carries.
      std::span<T> cp, dp;
      tridiag::SolveStatus guard_st{};     // per-window pivot guard (if guarding)
      std::size_t row_loads = 0;           // real input rows loaded
      std::size_t eliminations = 0;        // eliminations of real rows
    };
    const std::size_t first = ctx.block_id() * G;
    if (first >= work.size()) return;
    const std::size_t count = std::min(G, work.size() - first);
    const auto tcount = static_cast<std::size_t>(threads);

    const std::span<Window> win = ctx.lane_buffer<Window>(count);
    std::size_t max_iters = 0;
    for (std::size_t g = 0; g < count; ++g) {
      Window& wd = win[g];
      wd.w = work[first + g];
      wd.P = static_cast<std::ptrdiff_t>(wd.w.r0) -
             static_cast<std::ptrdiff_t>(warm * S);
      const std::size_t len = wd.w.r1 - wd.w.r0;
      wd.iters = warm + (len + static_cast<std::size_t>(halo) + S - 1) / S;
      max_iters = std::max(max_iters, wd.iters);
      wd.buf[0] = ctx.shared<Row<T>>(S);
      wd.buf[1] = ctx.shared<Row<T>>(S);
      for (unsigned j = 0; j < cfg.k; ++j) {
        wd.tails[j] = ctx.shared<Row<T>>(std::size_t{2} << j);
      }
      wd.cp = ctx.lane_buffer<T>(cfg.fuse_thomas_forward ? tcount : 0);
      wd.dp = ctx.lane_buffer<T>(cfg.fuse_thomas_forward ? tcount : 0);
    }

    // ---- Phase bodies, each written once over a thread handle `t` -------
    // INIT: one tail row to the identity (lead-in state of Fig. 10).
    auto init_tail = [](auto& t, Row<T>& row) {
      t.note_swrite(row);
      row = tridiag::identity_row<T>();
    };
    // LOAD: batch row `idx` of level 0 from global memory.
    auto load = [&](auto& t, Window& wd, std::size_t idx) {
      const std::ptrdiff_t pos = wd.P + static_cast<std::ptrdiff_t>(idx);
      t.note_swrite(wd.buf[0][idx]);
      if (pos >= 0 && pos < static_cast<std::ptrdiff_t>(wd.w.sys.size())) {
        const auto u = static_cast<std::size_t>(pos);
        wd.buf[0][idx] = Row<T>{t.load(wd.w.sys.a.ptr(u)),
                                t.load(wd.w.sys.b.ptr(u)),
                                t.load(wd.w.sys.c.ptr(u)),
                                t.load(wd.w.sys.d.ptr(u))};
        ++wd.row_loads;
      } else {
        wd.buf[0][idx] = tridiag::identity_row<T>();
      }
    };
    // Position of the row the level-j elimination of batch row `idx`
    // produces; outside [0, n) it is identity padding.
    auto level_pos = [](const Window& wd, unsigned j, std::size_t idx) {
      return wd.P - ((std::ptrdiff_t{2} << (j - 1)) - 1) +
             static_cast<std::ptrdiff_t>(idx);
    };
    // COMBINE: the level-j elimination (Eqs. 5-6) producing batch row `idx`.
    auto combine = [&](auto& t, Window& wd, unsigned j, std::size_t idx) {
      const auto reach = static_cast<std::ptrdiff_t>(std::size_t{1} << (j - 1));
      const std::ptrdiff_t span_j = 2 * reach;  // 2^j
      const std::span<Row<T>> src = wd.buf[(j - 1) & 1u];
      const std::span<Row<T>> tail = wd.tails[j - 1];
      // Read level j-1 at batch-relative index `rel`; rel < 0 comes from
      // the tail cache holding the previous sub-tile's last 2^j values.
      auto read = [&](std::ptrdiff_t rel) -> const Row<T>& {
        return rel >= 0 ? src[static_cast<std::size_t>(rel)]
                        : tail[static_cast<std::size_t>(rel + span_j)];
      };
      const auto i = static_cast<std::ptrdiff_t>(idx);
      const Row<T>& lo = read(i - span_j);
      const Row<T>& mid = read(i - reach);
      const Row<T>& hi = read(i);
      t.note_sread(lo);
      t.note_sread(mid);
      t.note_sread(hi);
      const std::ptrdiff_t pos = level_pos(wd, j, idx);
      const bool real_row =
          pos >= 0 && pos < static_cast<std::ptrdiff_t>(wd.w.sys.size());
      if (guarding && real_row) {
        // Read-only divisor check; the elimination below is unchanged.
        tridiag::detail::guard_pcr_combine(wd.guard_st, lo, mid, hi,
                                           static_cast<std::size_t>(pos));
      }
      Row<T>& dst = wd.buf[j & 1u][idx];
      t.note_swrite(dst);
      dst = tridiag::pcr_combine(lo, mid, hi);
      t.template flops<T>(kCombineOps);
      t.template divs<T>(kCombineDivs);
      // Count only eliminations of real rows for the redundancy
      // bookkeeping (identity warm-up/drain rows are free lanes).
      if (real_row) ++wd.eliminations;
    };
    // Batch rows [from, to) of a level-j elimination are real rows.
    auto real_rows = [&](const Window& wd, unsigned j) {
      const std::ptrdiff_t pos0 = level_pos(wd, j, 0);
      const auto n = static_cast<std::ptrdiff_t>(wd.w.sys.size());
      const auto s = static_cast<std::ptrdiff_t>(S);
      return std::pair{
          static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(-pos0, 0, s)),
          static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(n - pos0, 0, s))};
    };
    // COMBINE, a whole level as one loop: the rows of a level are
    // independent, so any order computes the phased order's bits. Split
    // by where `lo` and `mid` come from (tail cache or batch), the loops
    // carry no branch; real rows are counted in one step.
    auto combine_level = [&](Window& wd, unsigned j) {
      const std::size_t reach = std::size_t{1} << (j - 1);
      const Row<T>* src = wd.buf[(j - 1) & 1u].data();
      const Row<T>* tail = wd.tails[j - 1].data();
      Row<T>* dst = wd.buf[j & 1u].data();
      for (std::size_t i = 0; i < reach; ++i) {
        dst[i] = tridiag::pcr_combine(tail[i], tail[i + reach], src[i]);
      }
      for (std::size_t i = reach; i < 2 * reach; ++i) {
        dst[i] = tridiag::pcr_combine(tail[i], src[i - reach], src[i]);
      }
      for (std::size_t i = 2 * reach; i < S; ++i) {
        dst[i] =
            tridiag::pcr_combine(src[i - 2 * reach], src[i - reach], src[i]);
      }
      const auto [from, to] = real_rows(wd, j);
      if (to > from) wd.eliminations += to - from;
    };
    // GUARD, a whole level after combine_level (which leaves level j-1
    // intact), as one batched pass over its real rows that meets the
    // first offence where the per-thread walk does.
    const std::span<double> ratio =
        guarding ? ctx.lane_buffer<double>(S) : std::span<double>{};
    auto guard_level = [&](Window& wd, unsigned j) {
      const auto [from, to] = real_rows(wd, j);
      detail::guard_window_level(wd.guard_st, wd.buf[(j - 1) & 1u].data(),
                                 wd.tails[j - 1].data(),
                                 std::size_t{1} << (j - 1), from, to, tcount,
                                 level_pos(wd, j, 0), ratio.data());
    };
    // TAIL SAVE: row `r` of level j-1's last 2^j rows, kept for the next
    // sub-tile before buffer (j-1)&1 is overwritten by level j+1.
    auto save_tail = [&](auto& t, Window& wd, unsigned j, std::size_t r) {
      const Row<T>& row =
          wd.buf[(j - 1) & 1u][S - (std::size_t{2} << (j - 1)) + r];
      t.note_sread(row);
      t.note_swrite(wd.tails[j - 1][r]);
      wd.tails[j - 1][r] = row;
    };
    // STORE: batch row `idx` of level k back to global memory or, fused,
    // into the Thomas forward recurrence of reduced system idx mod 2^k,
    // entirely from shared/registers: store only (c', d').
    auto store = [&](auto& t, Window& wd, std::size_t idx) {
      const std::ptrdiff_t pos = wd.P - halo + static_cast<std::ptrdiff_t>(idx);
      if (pos < static_cast<std::ptrdiff_t>(wd.w.r0) ||
          pos >= static_cast<std::ptrdiff_t>(wd.w.r1)) {
        return;
      }
      const auto u = static_cast<std::size_t>(pos);
      const Row<T>& row = wd.buf[cfg.k & 1u][idx];
      t.note_sread(row);
      if (cfg.fuse_thomas_forward) {
        T& cp = wd.cp[idx & (tcount - 1)];  // idx mod 2^k
        T& dp = wd.dp[idx & (tcount - 1)];
        const T pivot =
            tridiag::thomas_forward_row(row.a, row.b, row.c, row.d, cp, dp);
        if (guarding) {
          tridiag::detail::guard_thomas_pivot(wd.guard_st, row.a, row.b,
                                              row.c, pivot, u);
        }
        t.template flops<T>(6);
        t.template divs<T>(1);
        t.store(wd.w.out.c.ptr(u), cp);
        t.store(wd.w.out.d.ptr(u), dp);
      } else {
        t.store(wd.w.out.a.ptr(u), row.a);
        t.store(wd.w.out.b.ptr(u), row.b);
        t.store(wd.w.out.c.ptr(u), row.c);
        t.store(wd.w.out.d.ptr(u), row.d);
      }
    };

    // ---- Executor ---------------------------------------------------------
    // One barrier-phase sequence for every block: INIT, then per sub-tile
    // iteration LOAD, k x (COMBINE, TAIL SAVE) and STORE, every window of
    // the block advancing together. Batch rows go in the phased order,
    // thread-major and sub-tile-minor (thread tid owns rows cc * 2^k +
    // tid), so each fused recurrence meets its rows in ascending order and
    // the guard meets its first offence where the hardware block would.
    //
    // LOAD and STORE touch global memory: an observed block runs them
    // through phase() so the coalescer (and any watcher) sees them, any
    // other block as the same loop on RawThread. The shared-memory phases
    // keep the per-thread walk only on a watched block (hazard detector or
    // fault injector attached), which needs every shared access in barrier
    // order. Every other block runs them as plain loops, whole levels at a
    // time (combine_level), and a recording one closes each with
    // block_phase and the per-thread body's tally. Outputs, recorded
    // costs and statuses are the same on every path, bit for bit.
    const bool watched = ctx.watched();
    const bool records = ctx.observed();
    gpusim::RawThread raw;
    auto per_row = [&](std::size_t iter, auto&& body) {
      if (records) {
        ctx.phase([&](gpusim::ThreadCtx& t) {
          for (Window& wd : win) {
            if (iter >= wd.iters) continue;
            for (std::size_t cc = 0; cc < cfg.c; ++cc) {
              body(t, wd, cc * tcount + static_cast<std::size_t>(t.tid()));
            }
          }
        });
        return;
      }
      for (Window& wd : win) {
        if (iter >= wd.iters) continue;
        for (std::size_t tid = 0; tid < tcount; ++tid) {
          for (std::size_t cc = 0; cc < cfg.c; ++cc) {
            body(raw, wd, cc * tcount + tid);
          }
        }
      }
    };
    // A shared-memory phase of an unwatched block, whose per-thread body
    // charges `combines` eliminations.
    auto shared_phase = [&](std::size_t combines, auto&& fn) {
      if (!records) {
        fn();
        return;
      }
      gpusim::PhaseTally tally;
      tally.ops[sizeof(T) == 8] = kCombineOps * combines;
      tally.divs[sizeof(T) == 8] = kCombineDivs * combines;
      ctx.block_phase(tally, fn);
    };

    if (watched) {
      ctx.phase([&](gpusim::ThreadCtx& t) {
        for (Window& wd : win) {
          for (unsigned j = 0; j < cfg.k; ++j) {
            for (std::size_t i = static_cast<std::size_t>(t.tid());
                 i < wd.tails[j].size(); i += tcount) {
              init_tail(t, wd.tails[j][i]);
            }
          }
        }
      });
    } else {
      shared_phase(0, [&] {
        for (Window& wd : win) {
          for (unsigned j = 0; j < cfg.k; ++j) {
            for (Row<T>& row : wd.tails[j]) init_tail(raw, row);
          }
        }
      });
    }
    for (std::size_t iter = 0; iter < max_iters; ++iter) {
      per_row(iter, load);
      std::size_t live = 0;
      for (const Window& wd : win) live += iter < wd.iters ? 1 : 0;
      for (unsigned j = 1; j <= cfg.k; ++j) {
        if (watched) {
          per_row(iter, [&](auto& t, Window& wd, std::size_t idx) {
            combine(t, wd, j, idx);
          });
          ctx.phase([&](gpusim::ThreadCtx& t) {
            const auto tid = static_cast<std::size_t>(t.tid());
            if (tid >= std::size_t{2} << (j - 1)) return;
            for (Window& wd : win) {
              if (iter < wd.iters) save_tail(t, wd, j, tid);
            }
          });
          continue;
        }
        shared_phase(live * S, [&] {
          for (Window& wd : win) {
            if (iter >= wd.iters) continue;
            combine_level(wd, j);
            if (guarding) guard_level(wd, j);
          }
        });
        shared_phase(0, [&] {
          for (Window& wd : win) {
            if (iter >= wd.iters) continue;
            for (std::size_t r = 0; r < std::size_t{2} << (j - 1); ++r) {
              save_tail(raw, wd, j, r);
            }
          }
        });
      }
      per_row(iter, store);
      for (Window& wd : win) wd.P += static_cast<std::ptrdiff_t>(S);
    }

    // Blocks run concurrently; publish the block's tallies once
    // (commutative integer adds keep the totals deterministic).
    std::size_t block_row_loads = 0;
    std::size_t block_eliminations = 0;
    for (std::size_t g = 0; g < count; ++g) {
      block_row_loads += win[g].row_loads;
      block_eliminations += win[g].eliminations;
      // Slots [first, first + count) belong to this block alone.
      if (guarding) window_guard[first + g] = win[g].guard_st;
    }
    std::atomic_ref<std::size_t>(stats.row_loads)
        .fetch_add(block_row_loads, std::memory_order_relaxed);
    std::atomic_ref<std::size_t>(stats.eliminations)
        .fetch_add(block_eliminations, std::memory_order_relaxed);
  });

  return stats;
}

template TiledPcrStats tiled_pcr_kernel<float>(const gpusim::DeviceSpec&,
                                               std::span<const TiledPcrWork<float>>,
                                               const TiledPcrConfig&,
                                               std::span<tridiag::SolveStatus>);
template TiledPcrStats tiled_pcr_kernel<double>(const gpusim::DeviceSpec&,
                                                std::span<const TiledPcrWork<double>>,
                                                const TiledPcrConfig&,
                                                std::span<tridiag::SolveStatus>);

}  // namespace tridsolve::gpu
