// Quickstart: build one tridiagonal system, solve it three ways (host
// Thomas, pivoting LU, and the paper's hybrid on the simulated GTX480),
// and check the residual.
//
//   ./quickstart [--n 1000] [--trace]   (--trace prints the simulated
//                                        per-kernel timeline)
//   --json/--trace-json/--spans-json/--metrics-json
//                          the benches' telemetry sinks (bench::Telemetry):
//                          one JSONL record, a Chrome trace, the span
//                          tree, and a metrics-registry dump
//   --break-row R          zeroes diagonal entry R: pivot-free solvers
//                          break down, the guard flags the system and the
//                          resilient pipeline's fallback chain recovers it
//                          (DESIGN.md "Guarded solve path")
//   --check-hazards        runs the simulated kernels under the shared-
//                          memory hazard detector (detect|fatal) and
//                          prints the findings (expected: none)
//   --fault-seed/--fault-rate/--fault-kinds
//                          arm the deterministic fault injector; the solve
//                          switches to the resilient pipeline (retry →
//                          fallback chain → partial result) and prints the
//                          resilience report
//   --deadline-us/--max-retries
//                          resilient-pipeline budget knobs (also switch
//                          the solve onto the resilient pipeline)
//   --force-k K            pin the hybrid's PCR transition point; values
//                          out of range for the shape (2^k > N) are a
//                          structured bad-argument error (exit 2)
//   --plan-file FILE       preload a calibration file (see DESIGN.md "Plan
//                          cache & autotuning")

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench_common.hpp"
#include "gpu_solvers/registry.hpp"
#include "tridiag/lu_pivot.hpp"
#include "tridiag/residual.hpp"
#include "tridiag/thomas.hpp"
#include "util/aligned_buffer.hpp"
#include "util/cli.hpp"
#include "workloads/generators.hpp"

using namespace tridsolve;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv,
                      util::with_obs_flags(
                          {"n", "trace", "break-row", "force-k"}));
  // Engine and plan-cache flags, and every telemetry sink.
  bench::Telemetry telemetry(cli, "quickstart");
  const std::size_t n = static_cast<std::size_t>(cli.get_int("n", 1000));
  const long break_row = cli.get_int("break-row", -1);
  const int force_k = static_cast<int>(cli.get_int("force-k", -1));

  // A diagonally dominant random system A x = d.
  util::Xoshiro256 rng(2026);
  tridiag::TridiagSystem<double> sys(n);
  workloads::fill_matrix(workloads::Kind::random_dominant, sys.ref(), rng);
  workloads::fill_rhs_random(sys.ref(), rng);
  if (break_row >= 0 && static_cast<std::size_t>(break_row) < n) {
    // A zero diagonal entry keeps the matrix nonsingular (LU with pivoting
    // still solves it) but breaks every pivot-free elimination.
    sys.b()[static_cast<std::size_t>(break_row)] = 0.0;
    std::printf("injected zero diagonal at row %ld\n", break_row);
  }

  // 1. Classic Thomas algorithm (O(n), sequential).
  auto thomas_in = sys.clone();
  util::AlignedBuffer<double> x_thomas(n);
  bool thomas_ok = true;
  if (auto st = tridiag::thomas_solve(thomas_in.ref(),
                                      tridiag::StridedView<double>(x_thomas.span()));
      !st.ok()) {
    if (break_row < 0) {
      std::fprintf(stderr, "thomas failed at row %zu\n", st.index);
      return 1;
    }
    // Expected with --break-row: the pivot-free sweep hits the zero pivot.
    std::printf("Thomas      : %s at row %zu (expected — no pivoting)\n",
                tridiag::solve_code_name(st.code), st.index);
    thomas_ok = false;
  }

  // 2. LU with partial pivoting (the robust referee).
  util::AlignedBuffer<double> x_lu(n);
  if (auto st = tridiag::lu_gtsv(sys.ref(), tridiag::StridedView<double>(x_lu.span()));
      !st.ok()) {
    std::fprintf(stderr, "lu_gtsv failed at row %zu\n", st.index);
    return 1;
  }

  // 3. The paper's hybrid tiled-PCR + p-Thomas on the simulated GTX480.
  //    (Batch of one system; the transition heuristic picks k = 8.)
  tridiag::SystemBatch<double> batch(1, n, tridiag::Layout::contiguous);
  tridiag::copy_system(sys.ref(), batch.system(0));
  const auto dev = gpusim::gtx480();
  // Fault injection, a broken row or an explicit deadline/retry budget
  // switches the solve onto the resilient pipeline (DESIGN.md "Fault
  // injection & resilience"): retries, fallback chain, partial results —
  // never a crash on an injected fault, never a silently broken system.
  const bool resilient_mode =
      gpusim::ExecutionEngine::instance().fault_plan().active() ||
      break_row >= 0 || cli.has("deadline-us") || cli.has("max-retries");
  gpu::HybridReport report;
  gpu::ResilientOutcome resil;
  if (resilient_mode) {
    gpu::SolverRunOptions ropts;
    ropts.guard = true;
    ropts.force_k = force_k;
    // Solved in place: recovered solutions (or pristine d) land in batch.
    resil = gpu::run_solver_resilient<double>(gpu::SolverKind::hybrid, dev,
                                              batch, ropts,
                                              gpu::engine_resilience_policy());
  } else {
    gpu::HybridOptions hopts;  // guard detection is on by default (free)
    hopts.force_k = force_k;
    try {
      report = gpu::hybrid_solve(dev, batch, hopts);
    } catch (const std::invalid_argument& e) {
      // A forced k out of range for the shape: structured rejection, the
      // same condition run_solver reports as bad_argument.
      std::fprintf(stderr, "quickstart: %s: %s\n",
                   tridiag::solve_code_name(tridiag::SolveCode::bad_argument),
                   e.what());
      return 2;
    }
  }

  // Residuals against the original system.
  const auto sys_c = tridiag::as_const(sys.ref());
  const double r_thomas = tridiag::relative_residual(
      sys_c, tridiag::StridedView<const double>(x_thomas.data(), n, 1));
  const double r_lu = tridiag::relative_residual(
      sys_c, tridiag::StridedView<const double>(x_lu.data(), n, 1));
  const double r_hybrid = tridiag::relative_residual(
      sys_c, tridiag::as_const(batch.system(0)).d);

  std::printf("n = %zu\n", n);
  if (thomas_ok) {
    std::printf("Thomas      : relative residual %.3e\n", r_thomas);
  }
  std::printf("LU (gtsv)   : relative residual %.3e\n", r_lu);
  if (resilient_mode) {
    const auto& rep = resil.report;
    const auto& out = resil.outcome;
    std::printf("Hybrid (resilient): relative residual %.3e, k=%d, %.1f us "
                "simulated on %s\n",
                r_hybrid, out.k, out.time_us, dev.name.c_str());
    std::printf("Resilience  : %zu attempt(s), %zu retrie(s), %zu fallback "
                "stage(s), worst=%s%s%s\n",
                rep.attempts.size(), rep.retries, rep.fallback_stages,
                tridiag::solve_code_name(rep.worst),
                rep.partial ? ", PARTIAL" : "",
                rep.deadline_exceeded ? ", DEADLINE EXCEEDED" : "");
    std::printf("Faults      : flips=%zu shared=%zu nan=%zu launch=%zu "
                "timeout=%zu\n",
                out.faults.bit_flips, out.faults.shared_corruptions,
                out.faults.nan_writes, out.faults.launch_failures,
                out.faults.timeouts);
  }
  // The guard's detection record: on the resilient path it keeps the worst
  // code any attempt reported, even after a later stage recovered.
  const auto& guard = resilient_mode ? resil.outcome.status : report.status;
  if (!guard.empty() && !guard.detected(0).ok()) {
    const tridiag::SolveStatus& det = guard.detected(0);
    std::printf("Guard       : %s at row %zu (growth %.2e)\n",
                tridiag::solve_code_name(det.code), det.index, det.pivot_growth);
  }
  if (!resilient_mode && report.timeline.timed()) {
    std::printf("Hybrid (sim): relative residual %.3e, k=%u, %zu reduced "
                "systems, %.1f us simulated on %s (PCR share %.0f%%)\n",
                r_hybrid, report.k, report.reduced_systems, report.total_us(),
                dev.name.c_str(), 100.0 * report.pcr_fraction());
  } else if (!resilient_mode) {
    // --instrument functional: the engine recorded no costs, so there is
    // no simulated time to report (and total_us() would refuse).
    std::printf("Hybrid (sim): relative residual %.3e, k=%u, %zu reduced "
                "systems, functional_only (no simulated timing) on %s\n",
                r_hybrid, report.k, report.reduced_systems, dev.name.c_str());
  }
  if (!resilient_mode &&
      gpusim::ExecutionEngine::instance().default_hazards() !=
          gpusim::HazardMode::off) {
    // Sum the per-launch hazard findings over the whole solve. A clean
    // run (the expected outcome) still reports tracked > 0, proving the
    // detector actually inspected the kernels' shared accesses.
    gpusim::HazardCounts hz;
    for (const auto& seg : report.timeline.segments()) {
      hz.merge(seg.stats.hazards);
    }
    std::printf("Hazards     : raw=%zu war=%zu waw=%zu oob=%zu divergence=%zu "
                "(%zu shared accesses tracked)\n",
                hz.raw, hz.war, hz.waw, hz.oob, hz.divergence, hz.tracked);
  }
  if (!resilient_mode && cli.get_bool("trace", false) &&
      report.timeline.timed()) {
    std::fputs(
        gpusim::timeline_table(dev, report.timeline, "hybrid solve timeline")
            .to_ascii()
            .c_str(),
        stdout);
  }

  // One telemetry record (DESIGN.md "Observability"). A functional_only
  // hybrid solve has no simulated time to record.
  if (resilient_mode) {
    const auto& rep = resil.report;
    const auto& out = resil.outcome;
    obs::JsonValue rec = obs::JsonValue::object();
    rec["solver"] = "hybrid-resilient";
    rec["m"] = 1;
    rec["n"] = n;
    rec["time_us"] = out.time_us;
    rec["k"] = out.k;
    rec["residual"] = r_hybrid;
    rec["guard_flagged"] = out.flagged;
    // The record's resilience group: what the pipeline did.
    rec["resilience_retries"] = rep.retries;
    rec["resilience_fallbacks"] = rep.fallback_stages;
    rec["resilience_spent_us"] = rep.spent_us;
    rec["resilience_partial"] = rep.partial ? 1 : 0;
    rec["resilience_deadline_exceeded"] = rep.deadline_exceeded ? 1 : 0;
    rec["resilience_worst"] = tridiag::solve_code_name(rep.worst);
    telemetry.record_raw(std::move(rec));
  } else if (report.timeline.timed()) {
    obs::JsonValue extra = obs::JsonValue::object();
    extra["residual"] = r_hybrid;
    telemetry.record_hybrid(dev, 1, n, report, "hybrid", std::move(extra));
  }
  return r_hybrid < 1e-10 ? 0 : 2;
}
