#pragma once
// Block-level building blocks for solvers that keep a whole (sub)system in
// shared memory: in-shared PCR steps and thread-parallel Thomas.
//
// Used by the Zhang-style small-system solver [16][17] and by the final
// stage of the Davidson-style baseline [19]. An in-shared PCR step is done
// in place with the usual read-into-registers / barrier / write-back
// discipline (two phases = two barriers per step). The arithmetic is the
// host's: tridiag::pcr_combine per PCR row, tridiag::thomas_forward_row
// per Thomas row.

#include <algorithm>
#include <cstddef>
#include <span>

#include "gpusim/block_context.hpp"
#include "tridiag/pcr.hpp"
#include "tridiag/thomas.hpp"

namespace tridsolve::gpu {

/// One in-place PCR step at `stride` over shared rows[0..q): every thread
/// handles rows tid, tid+threads, ...; results are staged in `staged` (the
/// threads' registers, q rows) and written back after a barrier.
/// Out-of-range neighbours act as identity.
template <typename T>
void inshared_pcr_step(gpusim::BlockContext& ctx,
                       std::span<tridiag::Row<T>> rows,
                       std::span<tridiag::Row<T>> staged, std::size_t stride) {
  const std::size_t q = rows.size();
  const auto threads = static_cast<std::size_t>(ctx.block_threads());

  ctx.phase([&](gpusim::ThreadCtx& t) {
    for (std::size_t i = static_cast<std::size_t>(t.tid()); i < q; i += threads) {
      const bool has_lo = i >= stride;
      const bool has_hi = i + stride < q;
      t.note_sread(rows[i]);
      if (has_lo) t.note_sread(rows[i - stride]);
      if (has_hi) t.note_sread(rows[i + stride]);
      staged[i] = tridiag::pcr_combine(
          has_lo ? rows[i - stride] : tridiag::identity_row<T>(), rows[i],
          has_hi ? rows[i + stride] : tridiag::identity_row<T>());
      t.flops<T>(10);
      t.divs<T>(2);
    }
  });
  ctx.phase([&](gpusim::ThreadCtx& t) {
    for (std::size_t i = static_cast<std::size_t>(t.tid()); i < q; i += threads) {
      t.note_swrite(rows[i]);
      rows[i] = staged[i];
    }
  });
}

/// Thread-parallel Thomas entirely in shared memory: rows already reduced
/// to `num_subsystems` interleaved subsystems (coupling stride ==
/// num_subsystems); each thread solves subsystems tid, tid+threads, ...
/// The solution overwrites rows[i].d.
template <typename T>
void inshared_pthomas(gpusim::BlockContext& ctx,
                      std::span<tridiag::Row<T>> rows,
                      std::size_t num_subsystems) {
  const std::size_t q = rows.size();
  const auto threads = static_cast<std::size_t>(ctx.block_threads());
  ctx.phase([&](gpusim::ThreadCtx& t) {
    for (std::size_t r = static_cast<std::size_t>(t.tid()); r < num_subsystems;
         r += threads) {
      // Forward.
      T cp = T(0), dp = T(0);
      for (std::size_t i = r; i < q; i += num_subsystems) {
        t.note_sread(rows[i]);
        t.note_swrite(rows[i].c);
        t.note_swrite(rows[i].d);
        tridiag::thomas_forward_row(rows[i].a, rows[i].b, rows[i].c, rows[i].d,
                                    cp, dp);
        rows[i].c = cp;
        rows[i].d = dp;
        t.flops<T>(6);
        t.divs<T>(1);
      }
      // Backward.
      T x_next = T(0);
      bool first = true;
      const std::size_t count = r < q ? (q - r + num_subsystems - 1) / num_subsystems : 0;
      for (std::size_t jj = count; jj-- > 0;) {
        const std::size_t i = r + jj * num_subsystems;
        t.note_sread(rows[i].d);
        t.note_sread(rows[i].c);
        t.note_swrite(rows[i].d);
        const T x = first ? rows[i].d : rows[i].d - rows[i].c * x_next;
        first = false;
        rows[i].d = x;
        x_next = x;
        t.flops<T>(2);
      }
    }
  });
}

/// The whole in-shared solve of a block's rows: PCR steps at strides 1,
/// 2, 4, ... until there is one subsystem per thread (or per row), then
/// thread-parallel Thomas; the solution overwrites rows[i].d. One lane
/// buffer per block stages every step's rows, so a warm worker allocates
/// nothing.
template <typename T>
void inshared_pcr_thomas(gpusim::BlockContext& ctx,
                         std::span<tridiag::Row<T>> rows) {
  const std::size_t q = rows.size();
  const auto threads = static_cast<std::size_t>(ctx.block_threads());
  const std::span<tridiag::Row<T>> staged =
      ctx.lane_buffer<tridiag::Row<T>>(q);
  std::size_t split = 1;
  while (split < threads && split < q) {
    inshared_pcr_step(ctx, rows, staged, split);
    split *= 2;
  }
  inshared_pthomas(ctx, rows, std::min(split, q));
}

}  // namespace tridsolve::gpu
