#pragma once
// Resilient batched solving: the policy, taxonomy, and host-side stages
// behind the registry's run_solver_resilient (gpu_solvers/registry.hpp).
//
// A ResiliencePolicy wraps any solver with three recovery mechanisms, in
// order:
//   1. retry — a flagged / failed / timed-out dispatch is re-run from
//      pristine inputs, restricted to the affected sub-batch and split
//      into chunks of 32 systems so one poisoned system cannot force a
//      full-batch re-solve;
//   2. fallback chain — after max_retries the pipeline degrades to the
//      next stage (default: tiled-PCR hybrid → p-Thomas → CPU Thomas →
//      pivoting LU), each stage attempting only the still-unrecovered
//      systems;
//   3. deadline — a simulated-time budget (deadline_us) checked before
//      every dispatch; on exhaustion the remaining systems are marked
//      SolveCode::deadline and a *partial* result is returned instead of
//      aborting.
// Per-system outcomes land in BatchStatus via record_attempt (live =
// latest attempt, sticky detection record + attempt counts preserved),
// so the final report is a severity-ordered taxonomy, never silence.
//
// Contracts:
//  * In place: the caller's batch is solved where it lies, next to one
//    pristine copy that feeds every residual gate, retry and host stage.
//    On return d holds the solution of each recovered system and the
//    pristine rhs of every other; a, b and c are consumed.
//  * Determinism: every stage re-solves from pristine inputs with
//    per-system arithmetic that does not depend on chunk size (the
//    registry pins the hybrid's k across retries), so a recovered system
//    is bit-identical to its fault-free solve.
//  * Host stages (cpu-thomas, lu) run outside the simulated GPU and are
//    immune to injected faults; they charge zero simulated time.
//  * Thread-safety: free functions over caller-owned batches; safe
//    concurrently on disjoint batches.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "tridiag/batch_status.hpp"
#include "tridiag/layout.hpp"
#include "tridiag/types.hpp"

namespace tridsolve::tridiag {

/// Retry / fallback / deadline knobs for one resilient solve.
struct ResiliencePolicy {
  int max_retries = 2;        ///< re-dispatches per stage after the first try
  double deadline_us = 0.0;   ///< total simulated-time budget; 0 = unlimited
  /// Stage names tried after the entry solver ("hybrid", "hybrid-fused",
  /// "pthomas", "zhang", "cr", "davidson", "partition", "cpu-thomas",
  /// "lu"). Empty = the default chain pthomas → cpu-thomas → lu.
  std::vector<std::string> fallback_chain;
};

/// One dispatch (or host pass) of the resilient pipeline.
struct AttemptRecord {
  std::string stage;           ///< stage name ("hybrid", "cpu-thomas", ...)
  int attempt = 0;             ///< 0 = the stage's first try
  std::size_t systems = 0;     ///< systems dispatched
  std::size_t recovered = 0;   ///< systems that came back ok
  std::size_t still_flagged = 0;  ///< systems still pending afterwards
  /// Attempt-level failure: ok when the dispatch ran to completion (even
  /// if some systems stayed flagged), launch_failed / timed_out /
  /// bad_size (config rejected) / bad_argument (caller options invalid
  /// for the shape) when the whole dispatch was discarded.
  SolveCode reason = SolveCode::ok;
  double time_us = 0.0;        ///< simulated time charged (0 for host stages)
};

/// What the resilient pipeline did, end to end.
struct ResilienceReport {
  std::vector<AttemptRecord> attempts;  ///< every dispatch, in order
  std::size_t retries = 0;          ///< re-dispatches past each stage's first
  std::size_t fallback_stages = 0;  ///< stages entered past the entry solver
  double spent_us = 0.0;            ///< simulated time incl. overruns
  bool deadline_exceeded = false;   ///< budget ran out with systems pending
  bool partial = false;             ///< some systems have no clean solution
  SolveCode worst = SolveCode::ok;  ///< most severe live code in the batch
};

/// Gather the listed systems of `batch` into a fresh sub-batch with the
/// same layout and system size (pristine inputs for a retry dispatch).
template <typename T>
[[nodiscard]] SystemBatch<T> extract_systems(
    const SystemBatch<T>& batch, std::span<const std::size_t> systems);

/// Host CPU-Thomas stage: solve each listed system from `pristine` into
/// `dst.d`, recording one attempt per system (through gate_solution, the
/// registry's post-hoc gate, so it cannot return silent garbage). Returns
/// the number of systems recovered (live status ok). Each system is read
/// in full before its own d is written, so a batch may be its own
/// pristine source (`dst` the same object as `pristine`): the service's
/// degraded execute stage solves its gathered batch that way.
template <typename T>
std::size_t host_thomas_stage(const SystemBatch<T>& pristine,
                              std::span<const std::size_t> systems,
                              SystemBatch<T>& dst, BatchStatus& status);

/// Host pivoting-LU stage (the terminal referee): like host_thomas_stage
/// but via lu_gtsv, which handles matrices the pivot-free family cannot.
template <typename T>
std::size_t host_lu_stage(const SystemBatch<T>& pristine,
                          std::span<const std::size_t> systems,
                          SystemBatch<T>& dst, BatchStatus& status);

extern template SystemBatch<float> extract_systems<float>(
    const SystemBatch<float>&, std::span<const std::size_t>);
extern template SystemBatch<double> extract_systems<double>(
    const SystemBatch<double>&, std::span<const std::size_t>);
extern template std::size_t host_thomas_stage<float>(
    const SystemBatch<float>&, std::span<const std::size_t>,
    SystemBatch<float>&, BatchStatus&);
extern template std::size_t host_thomas_stage<double>(
    const SystemBatch<double>&, std::span<const std::size_t>,
    SystemBatch<double>&, BatchStatus&);
extern template std::size_t host_lu_stage<float>(const SystemBatch<float>&,
                                                 std::span<const std::size_t>,
                                                 SystemBatch<float>&,
                                                 BatchStatus&);
extern template std::size_t host_lu_stage<double>(
    const SystemBatch<double>&, std::span<const std::size_t>,
    SystemBatch<double>&, BatchStatus&);

}  // namespace tridsolve::tridiag
