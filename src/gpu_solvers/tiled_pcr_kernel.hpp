#pragma once
// Tiled PCR kernel (paper §III.A, Figs. 8-11) on the simulated GPU.
//
// Each *window* streams one region of one system through k PCR steps using
// a shared-memory buffered sliding window:
//   * two ping-pong work buffers of S = c * 2^k rows (the "middle"/"bottom"
//     buffers of Fig. 9 — each level's batch of S rows is produced from the
//     previous level's batch in the other buffer),
//   * per-level tail caches of 2^{j+1} rows (the "top" buffer / dependency
//     cache of Fig. 8(b)): the trailing values level j+1 still needs when
//     the window slides by one sub-tile.
// Total shared footprint: (2S + 2*f(k)) rows of 4 values — the paper's
// 3*f(k) cache + S bottom buffer for c = 1 (Table I).
//
// A thread block owns `systems_per_block` windows (Fig. 11(c): multiplexed
// windows issue their loads in the same round, hiding more latency), with
// 2^k threads; each thread performs c eliminations per level per sub-tile
// (Table I: c*k eliminations per thread per sub-tile). Large systems may
// instead be split across `blocks_per_system` blocks (Fig. 11(b)), each
// region paying warm-up halo loads at its leading edge (the variant's
// redundant-load cost, which the stats expose).
//
// With `fuse_thomas_forward` (§III.C) the final-level store phase feeds the
// reduced rows straight into the per-thread Thomas forward recurrence and
// stores (c', d') instead of raw rows — saving 2 stores + 4 loads per row
// and one kernel launch; afterwards only pthomas_backward is needed. The
// price: the p-Thomas forward work inherits this kernel's shared-memory
// occupancy, which is the fusion caveat the paper warns about.

#include <cstddef>
#include <span>

#include "gpusim/device_spec.hpp"
#include "gpusim/launch.hpp"
#include "tridiag/types.hpp"

namespace tridsolve::gpu {

/// One window assignment: produce k-step-reduced rows for positions
/// [r0, r1) of `sys`, written to `out`.
///
/// `out` may alias `sys` only for whole-system windows (the window writes
/// strictly behind its own load frontier). Split-system windows
/// (Fig. 11(b)) MUST use a separate output: concurrent blocks re-load halo
/// rows their neighbour may already have overwritten — a real data race on
/// hardware too, which is why that variant double-buffers.
template <typename T>
struct TiledPcrWork {
  tridiag::SystemRef<T> sys;
  tridiag::SystemRef<T> out;
  std::size_t r0 = 0;
  std::size_t r1 = 0;
  std::size_t system_id = 0;  ///< caller's batch index (guard merge key)
};

struct TiledPcrConfig {
  unsigned k = 4;                     ///< PCR steps; block threads = 2^k
  std::size_t c = 1;                  ///< sub-tile multiplier, S = c * 2^k
  std::size_t systems_per_block = 1;  ///< windows multiplexed per block
  bool fuse_thomas_forward = false;   ///< §III.C kernel fusion
};

struct TiledPcrStats {
  gpusim::LaunchStats launch;
  std::size_t eliminations = 0;  ///< PCR row eliminations performed
  std::size_t row_loads = 0;     ///< real input rows loaded (incl. halo redundancy)
  std::size_t rows_total = 0;    ///< sum of region lengths (useful rows)

  // The paper's redundancy model (Eqs. 8-9): a naive halo-tiled kernel
  // with the same sub-tile size S re-loads f(k) = 2^k - 1 rows and
  // re-eliminates g(k) = k*2^k - 2^{k+1} + 2 rows at every interior
  // sub-tile boundary. The sliding window pays neither; these counters
  // quantify exactly what it avoided.
  std::size_t windows = 0;              ///< window assignments executed
  std::size_t sub_tile_boundaries = 0;  ///< interior boundaries, all windows
  std::size_t halo_loads_avoided = 0;       ///< f(k) per boundary (Eq. 8)
  std::size_t redundant_elims_avoided = 0;  ///< g(k) per boundary (Eq. 9)

  [[nodiscard]] std::size_t redundant_loads() const noexcept {
    return row_loads - rows_total;
  }
};

/// Run the kernel over all windows. Each block takes `systems_per_block`
/// consecutive entries of `work`. Requires k >= 1 (k = 0 means "skip PCR").
///
/// If `window_guard` is non-empty it must parallel `work`: every window
/// writes one SolveStatus slot flagging zero/non-finite PCR divisors (and,
/// under fusion, Thomas-forward pivots) seen while producing that window's
/// rows, plus the pivot-growth estimate. Blocks own disjoint slot ranges,
/// so the writes are race-free and deterministic; callers merge slots into
/// per-system status via TiledPcrWork::system_id. Detection is read-only —
/// no recorded costs, no arithmetic changes — so guarded runs stay
/// bit-identical (outputs and timing) to unguarded ones.
template <typename T>
TiledPcrStats tiled_pcr_kernel(const gpusim::DeviceSpec& dev,
                               std::span<const TiledPcrWork<T>> work,
                               const TiledPcrConfig& cfg,
                               std::span<tridiag::SolveStatus> window_guard = {});

namespace detail {

/// The pivot guard of one combine level of a window, as every unwatched
/// guarded block runs it after combine_level: a batched pass that leaves
/// `guard` with the code, index and pivot_growth bits that
/// tridiag::detail::guard_pcr_combine on each real row in the phased
/// order (thread-major, sub-tile-minor: the order a watched block's
/// threads meet the rows in) gives. Level j-1 is `src` (the sub-tile's
/// batch rows) and `tail` (the previous sub-tile's last 2·reach rows),
/// reach = 2^{j-1}: batch row i combines L(i - 2·reach), L(i - reach) and
/// L(i), where L(x) is src[x] for x >= 0 and tail[x + 2·reach] otherwise.
/// Rows [from, to) are real, row i at position pos0 + i; `threads` is the
/// block's 2^k, and `ratio` is scratch for `to` doubles.
template <typename T>
void guard_window_level(tridiag::SolveStatus& guard,
                        const tridiag::Row<T>* src,
                        const tridiag::Row<T>* tail, std::size_t reach,
                        std::size_t from, std::size_t to, std::size_t threads,
                        std::ptrdiff_t pos0, double* ratio) noexcept;

extern template void guard_window_level<float>(
    tridiag::SolveStatus&, const tridiag::Row<float>*,
    const tridiag::Row<float>*, std::size_t, std::size_t, std::size_t,
    std::size_t, std::ptrdiff_t, double*) noexcept;
extern template void guard_window_level<double>(
    tridiag::SolveStatus&, const tridiag::Row<double>*,
    const tridiag::Row<double>*, std::size_t, std::size_t, std::size_t,
    std::size_t, std::ptrdiff_t, double*) noexcept;

}  // namespace detail

/// Helper: the shared-memory bytes one window needs (for occupancy
/// reasoning and Table I/III checks).
[[nodiscard]] std::size_t tiled_pcr_window_shared_bytes(unsigned k, std::size_t c,
                                                        std::size_t elem_size);

extern template TiledPcrStats tiled_pcr_kernel<float>(
    const gpusim::DeviceSpec&, std::span<const TiledPcrWork<float>>,
    const TiledPcrConfig&, std::span<tridiag::SolveStatus>);
extern template TiledPcrStats tiled_pcr_kernel<double>(
    const gpusim::DeviceSpec&, std::span<const TiledPcrWork<double>>,
    const TiledPcrConfig&, std::span<tridiag::SolveStatus>);

}  // namespace tridsolve::gpu
