#pragma once
// A small registry over every GPU solver in the library, so benches,
// examples and what-if studies can sweep solver families uniformly and
// handle per-solver applicability (e.g. in-shared methods' size cap)
// without bespoke glue.

#include <optional>
#include <string>
#include <vector>

#include "gpusim/device_spec.hpp"
#include "gpusim/exec_engine.hpp"
#include "gpusim/launch.hpp"
#include "tridiag/batch_status.hpp"
#include "tridiag/layout.hpp"
#include "tridiag/resilient_solve.hpp"

namespace tridsolve::gpu {

enum class SolverKind {
  hybrid,        ///< the paper's tiled-PCR + p-Thomas (Table III heuristic)
  hybrid_fused,  ///< same with §III.C kernel fusion
  pthomas_only,  ///< force k = 0 (pure p-Thomas)
  zhang,         ///< in-shared PCR-Thomas [16][17]
  cr,            ///< in-shared cyclic reduction [3][10]
  davidson,      ///< stepped global PCR + in-shared finish [19]
  partition,     ///< register-packed block partition (SPIKE-style, [18])
};

[[nodiscard]] const char* solver_name(SolverKind kind) noexcept;
[[nodiscard]] std::vector<SolverKind> all_solver_kinds();

/// Outcome of running one solver on one batch.
struct SolveOutcome {
  bool supported = false;     ///< false: configuration rejected (with why)
  /// The solver ran to completion: statuses, faults and the timeline are
  /// filled and the solution is handed out. A functional_only run is
  /// solved but not supported (its untimed timeline has no time_us).
  bool solved = false;
  double time_us = 0.0;       ///< simulated execution time
  std::size_t launches = 0;   ///< kernel launches performed
  std::string detail;         ///< rejection reason or extra info

  /// Per-phase launch breakdown of the run (labels like "pcr",
  /// "thomas-fwd"; single-launch solvers report one segment named after
  /// the solver token). Empty unless solved. This is what the
  /// roofline profiler (obs::attribute_timeline / bench_profile)
  /// attributes phase by phase.
  gpusim::Timeline timeline;

  /// Per-system guard outcome, sized num_systems when guarding was
  /// requested (empty otherwise). A flagged system's solution is left as
  /// the solver produced it; run_solver_resilient is what recovers it.
  tridiag::BatchStatus status;
  std::size_t flagged = 0;  ///< systems with a non-ok status

  /// Injected-fault tallies summed over every launch of the run (all
  /// zero without an active FaultPlan). `faults.timeouts > 0` means the
  /// run overran its per-block budget — time_us includes the stall and
  /// the resilient pipeline treats the results as suspect.
  gpusim::FaultCounts faults;
  /// True when solved == false because a kernel launch itself failed
  /// (injected LaunchFailure) — a *retryable* condition, unlike a
  /// configuration rejection.
  bool launch_failed = false;
  /// True when solved == false because the caller's options were
  /// invalid for the shape (e.g. a forced 2^k > N) — a structured
  /// bad-argument rejection, never retryable.
  bool bad_argument = false;
  /// PCR step count of the hybrid family's plan (-1 for other kinds).
  /// run_solver_resilient reports its first hybrid-family stage's
  /// full-batch plan, which every dispatch of that stage ran.
  int k = -1;
  /// Where that plan came from ("heuristic", "forced" or "calibrated";
  /// empty for other kinds).
  std::string plan_source;
};

/// Per-run knobs threaded through the registry into the launch engine.
/// Hazard detection follows the engine default (--check-hazards /
/// ScopedHazardMode); in fatal mode a flagged launch surfaces as
/// supported = false with the finding in `detail`.
struct SolverRunOptions {
  /// Instrumentation mode for every launch of the run; empty = engine
  /// default. functional_only runs report solved but not supported (no
  /// timing).
  std::optional<gpusim::InstrumentMode> instrument{};
  /// Collect a per-system SolveStatus: hybrid-family kernels report their
  /// own pivot guards; every solver additionally gets a post-hoc scan
  /// (non-finite solution entries, then a relative-residual gate) so even
  /// guard-less kernels cannot return silent garbage. Detection only:
  /// recovery is run_solver_resilient's job.
  bool guard = false;
  /// Force the hybrid family's PCR step count (ignored by other kinds
  /// and by pthomas_only, which is k = 0 by definition). Out-of-range
  /// values (2^k > N, or 2^k threads over the device block limit) are
  /// rejected up front: run_solver returns supported = false with
  /// bad_argument = true instead of reaching the kernels.
  int force_k = -1;
};

/// Run `kind` over a fresh copy of `batch` (the input is not modified).
/// Unsupported configurations return supported = false instead of
/// throwing, so sweeps can tabulate applicability. When `solution` is
/// non-null it receives the solved copy (solution in d) whenever
/// `solved` is set, letting callers compare solver outputs without
/// re-running; functional_only runs — supported == false only because no
/// timing exists — still hand out their solution
/// (tests/test_vector_engine.cpp sweeps outputs this way).
template <typename T>
SolveOutcome run_solver(SolverKind kind, const gpusim::DeviceSpec& dev,
                        const tridiag::SystemBatch<T>& batch,
                        const SolverRunOptions& opts = {},
                        tridiag::SystemBatch<T>* solution = nullptr);

extern template SolveOutcome run_solver<float>(SolverKind,
                                               const gpusim::DeviceSpec&,
                                               const tridiag::SystemBatch<float>&,
                                               const SolverRunOptions&,
                                               tridiag::SystemBatch<float>*);
extern template SolveOutcome run_solver<double>(SolverKind,
                                                const gpusim::DeviceSpec&,
                                                const tridiag::SystemBatch<double>&,
                                                const SolverRunOptions&,
                                                tridiag::SystemBatch<double>*);

/// Result of a resilient solve: the final (possibly partial) outcome —
/// supported is always true, per-system verdicts live in outcome.status
/// — plus the full attempt-by-attempt report.
struct ResilientOutcome {
  SolveOutcome outcome;
  tridiag::ResilienceReport report;
};

/// The default degradation order for `entry`: the entry solver itself,
/// then pthomas → cpu-thomas → lu (duplicates of the entry elided).
[[nodiscard]] std::vector<std::string> default_fallback_chain(SolverKind entry);

/// Empty when every token of `chain` names a resilient stage (a solver
/// token, cpu-thomas or lu); otherwise the message run_solver_resilient
/// would throw for the first unknown token. Lets long-lived callers
/// reject a bad chain up front instead of mid-solve.
[[nodiscard]] std::string fallback_chain_error(
    const std::vector<std::string>& chain);

/// A ResiliencePolicy seeded from the engine's --deadline-us /
/// --max-retries CLI defaults (everything else at its default).
[[nodiscard]] tridiag::ResiliencePolicy engine_resilience_policy();

/// Run `kind` over `batch` in place under a resilience policy: guarded
/// solve, chunked sub-batch retries from pristine inputs, degradation
/// down the fallback chain, and a deadline budget — returning a partial
/// result with a severity-ordered taxonomy (never throwing, never silent
/// garbage). Recovered systems are bit-identical to a fault-free run of
/// the stage that recovered them: every dispatch of a hybrid-family stage
/// runs the plan plan_hybrid gives the full batch (k, variant, c and
/// geometry), retry chunks included. `opts.guard` is implied. The entry
/// stage's first dispatch solves `batch` itself, and one pristine copy
/// feeds every residual gate, retry and host stage. On return d holds
/// the solution of each recovered system and the pristine rhs of every
/// other; a, b and c are consumed.
template <typename T>
ResilientOutcome run_solver_resilient(
    SolverKind kind, const gpusim::DeviceSpec& dev,
    tridiag::SystemBatch<T>& batch, const SolverRunOptions& opts = {},
    const tridiag::ResiliencePolicy& policy = {});

extern template ResilientOutcome run_solver_resilient<float>(
    SolverKind, const gpusim::DeviceSpec&, tridiag::SystemBatch<float>&,
    const SolverRunOptions&, const tridiag::ResiliencePolicy&);
extern template ResilientOutcome run_solver_resilient<double>(
    SolverKind, const gpusim::DeviceSpec&, tridiag::SystemBatch<double>&,
    const SolverRunOptions&, const tridiag::ResiliencePolicy&);

}  // namespace tridsolve::gpu
