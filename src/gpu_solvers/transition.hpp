#pragma once
// Algorithm-transition logic (paper §III.D).
//
// The hybrid must decide how many PCR steps k to run before handing the
// 2^k * M independent systems to p-Thomas. Two mechanisms are provided:
//
//  * the analytic elimination-step cost model of Table II, parameterized
//    by M (number of systems), n (log2 of system size) and P (the
//    machine's usable parallelism) — the `cost_*` terms and
//    `model_best_k`, which the Table II, Table III and what-if-device
//    benches tabulate next to the heuristic;
//  * the empirical GTX480 heuristic of Table III — `heuristic_k`, which
//    the hybrid solver plans with at run time, exactly as in the paper
//    ("the closed-form solution cannot easily be expressed and found
//    during runtime. Instead, we present empirical heuristic values"),
//    read through the batch's layout: the paper pairs k >= 1 with
//    contiguous systems and k = 0 with interleaved ones
//    (`paired_layout`), and a batch that arrives interleaved is
//    planned for where it lies. Offline tuning (bench_autotune --out,
//    replayed with --plan-file) is the only other source of non-forced
//    plans.
//
// Every function here is pure: no metrics, no state. Planning metrics
// belong to the planner (plan_from_request, which every uncalibrated
// plan_hybrid call runs, counts `transition.clamped` once per plan whose
// Table III k had to shrink to fit the system), and hybrid_solve sets the
// `transition.k` gauge — a process-wide most-recent-planning-event value,
// overwritten last-writer-wins by concurrent solves and chunked retries,
// never per-solve truth. The per-solve record is
// HybridReport::{k, plan_source} and the plan_* JSONL block.

#include <cstddef>

#include "gpusim/device_spec.hpp"
#include "tridiag/layout.hpp"

namespace tridsolve::gpu {

/// Elimination-step cost of plain Thomas on M systems of 2^n rows with
/// P-way parallelism (Table II row 1).
[[nodiscard]] double cost_thomas(std::size_t m, unsigned n, double p) noexcept;

/// Cost of full PCR (Table II row 2).
[[nodiscard]] double cost_pcr(std::size_t m, unsigned n, double p) noexcept;

/// Cost of k-step (tiled) PCR followed by p-Thomas (Table II row 3).
[[nodiscard]] double cost_hybrid(std::size_t m, unsigned n, double p,
                                 unsigned k) noexcept;

/// argmin_k cost_hybrid for k in [0, n], capped so 2^k threads fit a block.
[[nodiscard]] unsigned model_best_k(std::size_t m, std::size_t system_size,
                                    const gpusim::DeviceSpec& dev) noexcept;

/// The paper's empirical GTX480 transition table (Table III):
///   M < 16 -> 8, 16 <= M < 32 -> 7, 32 <= M < 512 -> 6,
///   512 <= M < 1024 -> 5, M >= 1024 -> 0.
/// k is additionally clamped so 2^k does not exceed the system size.
[[nodiscard]] unsigned heuristic_k(std::size_t m, std::size_t system_size) noexcept;

/// The layout a transition point k pairs with (the paper's setup,
/// §III.B): contiguous for k >= 1, where each tiled-PCR window reads one
/// system's rows and leaves 2^k interleaved reduced systems in place for
/// p-Thomas; interleaved for k = 0, where consecutive p-Thomas threads
/// read consecutive systems, perfectly coalesced. The one home of this
/// pairing: preferred_layout, autotune_cell and apps::AdiIntegrator all
/// ask it.
[[nodiscard]] tridiag::Layout paired_layout(unsigned k) noexcept;

/// The layout the hybrid wants for an M x N batch:
/// paired_layout(heuristic_k(m, system_size)).
[[nodiscard]] tridiag::Layout preferred_layout(
    std::size_t m, std::size_t system_size) noexcept;

/// Systems one p-Thomas block solves (its threads per block).
inline constexpr std::size_t kPthomasBlockSystems = 128;

/// The transition point for an M x N batch that arrives laid out in
/// `layout` (DESIGN.md "Layout-aware planning"). It is heuristic_k(m,
/// system_size), except that an interleaved batch with more systems than
/// one p-Thomas block (M > 128) and 2M >= N gets k = 0: p-Thomas solves
/// the systems where they lie, coalesced, instead of tiled PCR reading
/// them strided. A batch in preferred_layout(m, system_size) always gets
/// heuristic_k(m, system_size).
[[nodiscard]] unsigned heuristic_k(std::size_t m, std::size_t system_size,
                                   tridiag::Layout layout) noexcept;

/// An estimate of the machine's usable thread parallelism P for the cost
/// model (resident warps x warp width across SMs).
[[nodiscard]] double machine_parallelism(const gpusim::DeviceSpec& dev) noexcept;

}  // namespace tridsolve::gpu
