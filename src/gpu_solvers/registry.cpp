#include "gpu_solvers/registry.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "gpu_solvers/cr_kernel.hpp"
#include "gpusim/launch.hpp"
#include "gpu_solvers/davidson.hpp"
#include "gpu_solvers/hybrid_solver.hpp"
#include "gpu_solvers/partition_kernel.hpp"
#include "gpu_solvers/plan_cache.hpp"
#include "gpu_solvers/zhang_pcr_thomas.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "tridiag/residual.hpp"

namespace tridsolve::gpu {

const char* solver_name(SolverKind kind) noexcept {
  switch (kind) {
    case SolverKind::hybrid: return "hybrid(tiledPCR+pThomas)";
    case SolverKind::hybrid_fused: return "hybrid(fused)";
    case SolverKind::pthomas_only: return "p-Thomas only";
    case SolverKind::zhang: return "Zhang in-shared";
    case SolverKind::cr: return "CR in-shared";
    case SolverKind::davidson: return "Davidson stepped";
    case SolverKind::partition: return "register-packed partition";
  }
  return "?";
}

std::vector<SolverKind> all_solver_kinds() {
  return {SolverKind::hybrid, SolverKind::hybrid_fused, SolverKind::pthomas_only,
          SolverKind::zhang, SolverKind::cr, SolverKind::davidson,
          SolverKind::partition};
}

namespace {

/// Sum injected-fault tallies across every launch of a timeline.
[[nodiscard]] gpusim::FaultCounts timeline_faults(const gpusim::Timeline& tl) {
  gpusim::FaultCounts f;
  for (const auto& seg : tl.segments()) f.merge(seg.stats.faults);
  return f;
}

/// Run `kind` over `work` in place (solution in d). Each case keeps only
/// what differs between kinds and leaves its launches in out.timeline;
/// one tail fills the rest. Failures come back as structured outcomes.
/// The hybrid family plans for a batch of `plan_systems` systems of
/// work's N: run_solver passes work's own count, the resilient pipeline
/// its full batch's, so every chunk it dispatches runs that batch's plan.
template <typename T>
SolveOutcome solve_in_place(SolverKind kind, const gpusim::DeviceSpec& dev,
                            tridiag::SystemBatch<T>& work,
                            const SolverRunOptions& run_opts,
                            std::size_t plan_systems) {
  SolveOutcome out;
  std::optional<gpusim::ScopedInstrumentMode> instrument_guard;
  if (run_opts.instrument) instrument_guard.emplace(*run_opts.instrument);
  try {
    switch (kind) {
      case SolverKind::hybrid:
      case SolverKind::hybrid_fused:
      case SolverKind::pthomas_only: {
        HybridOptions opts;
        opts.fuse = kind == SolverKind::hybrid_fused;
        if (run_opts.force_k >= 0) opts.force_k = run_opts.force_k;
        if (kind == SolverKind::pthomas_only) opts.force_k = 0;
        // The hybrid's in-kernel guard supplies exact rows and pivot
        // growth; guard_scan covers every kind.
        opts.guard = run_opts.guard;
        const SolvePlan plan =
            plan_hybrid(dev, plan_systems, work.system_size(), sizeof(T),
                        work.layout(), opts);
        out.k = static_cast<int>(plan.k);
        out.plan_source = plan_source_name(plan.source);
        HybridReport rep = hybrid_solve(dev, work, opts, plan);
        out.timeline = std::move(rep.timeline);
        out.status = std::move(rep.status);
        out.detail = "k=" + std::to_string(rep.k);
        break;
      }
      case SolverKind::zhang:
        if (!zhang_fits(dev, work.system_size(), sizeof(T))) {
          out.detail = "system exceeds shared memory";
          return out;
        }
        out.timeline.add("zhang", zhang_solve(dev, work));
        break;
      case SolverKind::cr:
        if (!zhang_fits(dev, std::bit_ceil(work.system_size()), sizeof(T))) {
          out.detail = "padded system exceeds shared memory";
          return out;
        }
        out.timeline.add("cr", cr_kernel_solve(dev, work));
        break;
      case SolverKind::davidson: {
        DavidsonReport rep = davidson_solve(dev, work);
        out.timeline = std::move(rep.timeline);
        out.detail = std::to_string(rep.global_steps) + " global steps";
        break;
      }
      case SolverKind::partition:
        out.timeline = partition_solve_gpu(dev, work).timeline;
        break;
    }
    // Everything but time_us first: reading it throws for a
    // functional_only run, which stays solved (statuses, faults and
    // solution handed out) but unsupported.
    out.solved = true;
    out.launches = out.timeline.segments().size();
    out.faults = timeline_faults(out.timeline);
    out.time_us = out.timeline.total_us();
    out.supported = true;
  } catch (const gpusim::LaunchFailure& e) {
    // Retryable: the launch never ran. The resilient pipeline re-dispatches
    // instead of degrading straight down the fallback chain.
    out.supported = false;
    out.launch_failed = true;
    out.faults.launch_failures = 1;  // the throw bypassed LaunchStats
    out.detail = e.what();
  } catch (const std::invalid_argument& e) {
    // Structured rejection of caller-supplied options (forced 2^k > N,
    // over the block limit, ...): never retryable, never silent garbage.
    out.supported = false;
    out.bad_argument = true;
    out.detail = e.what();
  } catch (const std::exception& e) {
    out.supported = false;
    out.detail = e.what();
  }
  return out;
}

/// Post-hoc guard over a solved batch: each system j of `solved` goes
/// through tridiag::gate_solution against its pristine rows,
/// `pristine_of(j)`. This is solver-agnostic — it catches breakdowns
/// even in kernels that have no built-in pivot guard (Zhang, CR,
/// Davidson, partition).
template <typename T, typename PristineOf>
void guard_scan(SolveOutcome& out, const tridiag::SystemBatch<T>& solved,
                const PristineOf& pristine_of) {
  static const auto flagged_ctr = obs::counter_handle("solver.guard.flagged");
  static const auto guard_hist = obs::histogram_handle("solver.guard.wall_us");
  const auto guard_t0 = std::chrono::steady_clock::now();
  const std::size_t count = solved.num_systems();
  // resize() wipes to fresh statuses — only size up guard-less kinds,
  // never the hybrid family's kernel-reported rows and pivot growth.
  if (out.status.size() != count) out.status.resize(count);
  // The hybrid family already counted its kernel-reported flags in
  // solver.guard.flagged; only the scan's *new* flags are added here so
  // the taxonomy counters stay exact per system.
  const std::size_t kernel_flagged = out.status.flagged_count();
  for (std::size_t j = 0; j < count; ++j) {
    const tridiag::SolveStatus gated =
        tridiag::gate_solution(pristine_of(j), solved.system(j).d);
    if (!gated.ok()) out.status.absorb(j, gated);
  }
  out.flagged = out.status.flagged_count();
  flagged_ctr.add(static_cast<double>(out.flagged - kernel_flagged));
  guard_hist.record(std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - guard_t0)
                        .count());
}

}  // namespace

template <typename T>
SolveOutcome run_solver(SolverKind kind, const gpusim::DeviceSpec& dev,
                        const tridiag::SystemBatch<T>& batch,
                        const SolverRunOptions& run_opts,
                        tridiag::SystemBatch<T>* solution) {
  tridiag::SystemBatch<T> work = batch.clone();
  SolveOutcome out =
      solve_in_place(kind, dev, work, run_opts, work.num_systems());
  if (out.solved && run_opts.guard) {
    guard_scan(out, work, [&](std::size_t m) { return batch.system(m); });
  }
  if (out.solved && solution != nullptr) *solution = std::move(work);
  return out;
}

template SolveOutcome run_solver<float>(SolverKind, const gpusim::DeviceSpec&,
                                        const tridiag::SystemBatch<float>&,
                                        const SolverRunOptions&,
                                        tridiag::SystemBatch<float>*);
template SolveOutcome run_solver<double>(SolverKind, const gpusim::DeviceSpec&,
                                         const tridiag::SystemBatch<double>&,
                                         const SolverRunOptions&,
                                         tridiag::SystemBatch<double>*);

namespace {

/// One stage of the resilient fallback chain: a registry solver kind or
/// a fault-immune host stage (cpu-thomas / lu).
struct StageSpec {
  std::string name;
  bool host = false;
  bool is_lu = false;
  SolverKind kind = SolverKind::hybrid;
};

[[nodiscard]] const char* stage_token(SolverKind kind) noexcept {
  switch (kind) {
    case SolverKind::hybrid: return "hybrid";
    case SolverKind::hybrid_fused: return "hybrid-fused";
    case SolverKind::pthomas_only: return "pthomas";
    case SolverKind::zhang: return "zhang";
    case SolverKind::cr: return "cr";
    case SolverKind::davidson: return "davidson";
    case SolverKind::partition: return "partition";
  }
  return "?";
}

[[nodiscard]] StageSpec resolve_stage(const std::string& tok) {
  for (const SolverKind k : all_solver_kinds()) {
    if (tok == stage_token(k)) return {tok, false, false, k};
  }
  if (tok == "cpu-thomas") return {tok, true, false, SolverKind::hybrid};
  if (tok == "lu") return {tok, true, true, SolverKind::hybrid};
  throw std::invalid_argument(
      "unknown fallback stage \"" + tok +
      "\" (expected a solver token or cpu-thomas|lu)");
}

/// Systems per retry or fallback re-dispatch, so one poisoned system
/// cannot force full-batch re-solves.
constexpr std::size_t kRetryChunk = 32;

/// Attach an attempt's outcome (SolveCode cause, recovery counts) to its
/// span before the scope closes.
void tag_attempt(obs::SpanScope& span, const tridiag::AttemptRecord& a) {
  span.attr("code", obs::JsonValue(tridiag::solve_code_name(a.reason)));
  span.attr("recovered", obs::JsonValue(a.recovered));
  span.attr("still_flagged", obs::JsonValue(a.still_flagged));
}

}  // namespace

std::vector<std::string> default_fallback_chain(SolverKind entry) {
  std::vector<std::string> chain;
  const std::string entry_tok = stage_token(entry);
  for (const char* s : {"pthomas", "cpu-thomas", "lu"}) {
    if (entry_tok != s) chain.emplace_back(s);
  }
  return chain;
}

std::string fallback_chain_error(const std::vector<std::string>& chain) {
  try {
    for (const std::string& tok : chain) (void)resolve_stage(tok);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

tridiag::ResiliencePolicy engine_resilience_policy() {
  tridiag::ResiliencePolicy policy;
  const gpusim::ExecutionEngine& engine = gpusim::ExecutionEngine::instance();
  policy.max_retries = engine.default_max_retries();
  policy.deadline_us = engine.default_deadline_us();
  return policy;
}

template <typename T>
ResilientOutcome run_solver_resilient(SolverKind kind,
                                      const gpusim::DeviceSpec& dev,
                                      tridiag::SystemBatch<T>& batch,
                                      const SolverRunOptions& run_opts,
                                      const tridiag::ResiliencePolicy& policy) {
  static const auto retries_ctr =
      obs::counter_handle("solver.resilience.retries");
  static const auto fallback_ctr =
      obs::counter_handle("solver.resilience.fallback_stages");
  static const auto partial_ctr =
      obs::counter_handle("solver.resilience.partial");
  static const auto deadline_ctr =
      obs::counter_handle("solver.resilience.deadline_exceeded");
  static const auto attempt_hist =
      obs::histogram_handle("solver.resilience.attempt_us");

  // Root of the solve's span tree: every stage attempt (and, through the
  // thread-local span stack, every launch those attempts perform) becomes
  // a descendant. All no-ops when tracing is off.
  obs::SpanScope root_span("resilient_solve");
  root_span.attr("solver", obs::JsonValue(solver_name(kind)));
  root_span.attr("systems", obs::JsonValue(batch.num_systems()));
  root_span.attr("n", obs::JsonValue(batch.system_size()));

  ResilientOutcome ro;
  SolveOutcome& out = ro.outcome;
  tridiag::ResilienceReport& rep = ro.report;
  const std::size_t num_systems = batch.num_systems();

  // Stage list: the entry solver, then the fallback chain (resolved up
  // front so an unknown stage name fails before any work is done).
  std::vector<StageSpec> stages;
  stages.push_back(resolve_stage(stage_token(kind)));
  const std::vector<std::string> chain = policy.fallback_chain.empty()
                                             ? default_fallback_chain(kind)
                                             : policy.fallback_chain;
  for (const std::string& tok : chain) {
    StageSpec st = resolve_stage(tok);
    if (st.name != stages.back().name) stages.push_back(std::move(st));
  }

  // The one copy: pristine inputs for every residual gate, retry chunk
  // and host stage. `batch` itself is solved in place.
  const tridiag::SystemBatch<T> pristine = batch.clone();
  out.status.resize(num_systems);
  out.supported = true;

  std::vector<std::size_t> pending(num_systems);
  std::iota(pending.begin(), pending.end(), std::size_t{0});

  const auto out_of_budget = [&] {
    return policy.deadline_us > 0.0 && rep.spent_us >= policy.deadline_us;
  };

  bool budget_hit = false;
  for (std::size_t si = 0; si < stages.size() && !pending.empty() && !budget_hit;
       ++si) {
    const StageSpec& st = stages[si];
    const bool hybrid_family =
        !st.host &&
        (st.kind == SolverKind::hybrid || st.kind == SolverKind::hybrid_fused);
    SolverRunOptions stage_opts = run_opts;
    stage_opts.guard = true;  // detection feeds the retry/fallback decisions

    bool entered = false;
    // Host stages are deterministic and fault-immune: one pass is enough.
    const int max_attempts = st.host ? 1 : policy.max_retries + 1;
    for (int attempt = 0; attempt < max_attempts && !pending.empty();
         ++attempt) {
      if (out_of_budget()) {
        budget_hit = true;
        break;
      }
      if (attempt > 0) {
        ++rep.retries;
        retries_ctr.add();
      }
      entered = true;

      // The entry stage's first dispatch solves the whole batch where it
      // lies, and a host stage takes every pending system in one pass.
      // Retries and fallback GPU stages go chunk by chunk, each solved in
      // its own extract of the pristine copy.
      const bool in_place = si == 0 && attempt == 0;
      const std::size_t chunk =
          in_place || st.host ? pending.size() : kRetryChunk;
      std::vector<std::size_t> still;
      bool rejected = false;
      for (std::size_t first = 0; first < pending.size(); first += chunk) {
        if (out_of_budget()) {
          budget_hit = true;
          still.insert(still.end(), pending.begin() + first, pending.end());
          break;
        }
        const std::size_t count = std::min(chunk, pending.size() - first);
        const std::span<const std::size_t> systems(pending.data() + first,
                                                   count);
        // Child span per dispatch: the launches it performs parent under
        // it via the thread-local span stack.
        obs::SpanScope attempt_span("attempt");
        attempt_span.attr("stage", obs::JsonValue(st.name));
        attempt_span.attr("attempt", obs::JsonValue(attempt));
        attempt_span.attr("systems", obs::JsonValue(count));
        tridiag::AttemptRecord ar;
        ar.stage = st.name;
        ar.attempt = attempt;
        ar.systems = count;
        if (st.host) {
          // Records one attempt per system and writes each recovered
          // solution into batch.d.
          if (st.is_lu) {
            tridiag::host_lu_stage<T>(pristine, systems, batch, out.status);
          } else {
            tridiag::host_thomas_stage<T>(pristine, systems, batch,
                                          out.status);
          }
        } else {
          std::optional<tridiag::SystemBatch<T>> sub;
          if (!in_place) sub = tridiag::extract_systems<T>(pristine, systems);
          tridiag::SystemBatch<T>& work = in_place ? batch : *sub;
          // Every hybrid dispatch runs the plan of the *full* batch (k,
          // variant, c and geometry), so chunked retries and fallback
          // re-dispatches repeat a fault-free full-batch run's arithmetic:
          // planning depends on batch size, and a chunk is smaller.
          SolveOutcome so =
              solve_in_place<T>(st.kind, dev, work, stage_opts, num_systems);
          if (hybrid_family && out.plan_source.empty()) {
            out.k = so.k;
            out.plan_source = so.plan_source;
          }
          if (so.solved) {
            guard_scan(so, work, [&](std::size_t j) {
              return pristine.system(systems[j]);
            });
          }
          rep.spent_us += so.time_us;
          out.launches += so.launches;
          out.faults.merge(so.faults);
          attempt_hist.record(so.time_us);
          ar.time_us = so.time_us;
          if (so.launch_failed) {
            ar.reason = tridiag::SolveCode::launch_failed;
          } else if (!so.solved) {
            // Configuration rejected (size cap, bad caller options, fatal
            // hazard, ...): retrying the identical dispatch cannot succeed
            // — degrade. A functional_only run is solved, so it is kept.
            ar.reason = so.bad_argument ? tridiag::SolveCode::bad_argument
                                        : tridiag::SolveCode::bad_size;
            rejected = true;
          } else if (so.faults.timeouts > 0) {
            ar.reason = tridiag::SolveCode::timed_out;
          }
          // A discarded dispatch (reason not ok) fails all its systems.
          for (std::size_t j = 0; j < count; ++j) {
            const tridiag::SolveStatus verdict =
                ar.reason == tridiag::SolveCode::ok
                    ? so.status[j]
                    : tridiag::SolveStatus{ar.reason, 0};
            out.status.record_attempt(systems[j], verdict);
            if (verdict.ok() && sub) {
              tridiag::copy_view(sub->system(j).d, batch.system(systems[j]).d);
            }
          }
        }
        // GPU and host stages alike: a system is recovered iff the
        // attempt just recorded for it is ok.
        for (const std::size_t m : systems) {
          if (out.status[m].ok()) {
            ++ar.recovered;
          } else {
            still.push_back(m);
            ++ar.still_flagged;
          }
        }
        tag_attempt(attempt_span, ar);
        rep.attempts.push_back(std::move(ar));
      }
      pending.swap(still);
      if (rejected || budget_hit) break;
    }
    if (entered && si > 0) {
      ++rep.fallback_stages;
      fallback_ctr.add();
    }
  }

  // No stage recovered these: hand back their pristine rhs, never the
  // garbage a failed solve left in place.
  for (const std::size_t m : pending) {
    tridiag::copy_view(pristine.system(m).d, batch.system(m).d);
  }
  if (!pending.empty()) {
    if (budget_hit) {
      rep.deadline_exceeded = true;
      deadline_ctr.add();
      for (const std::size_t m : pending) {
        out.status.record_attempt(m, {tridiag::SolveCode::deadline, 0});
      }
    }
    rep.partial = true;
    partial_ctr.add();
  }
  out.flagged = out.status.flagged_count();
  int worst_sev = 0;
  for (std::size_t m = 0; m < num_systems; ++m) {
    const tridiag::SolveCode c = out.status[m].code;
    if (tridiag::solve_code_severity(c) > worst_sev) {
      worst_sev = tridiag::solve_code_severity(c);
      rep.worst = c;
    }
  }
  out.time_us = rep.spent_us;
  out.detail = std::to_string(rep.attempts.size()) + " attempts, " +
               std::to_string(rep.fallback_stages) + " fallback stages, " +
               std::to_string(rep.retries) + " retries";
  return ro;
}

template ResilientOutcome run_solver_resilient<float>(
    SolverKind, const gpusim::DeviceSpec&, tridiag::SystemBatch<float>&,
    const SolverRunOptions&, const tridiag::ResiliencePolicy&);
template ResilientOutcome run_solver_resilient<double>(
    SolverKind, const gpusim::DeviceSpec&, tridiag::SystemBatch<double>&,
    const SolverRunOptions&, const tridiag::ResiliencePolicy&);

}  // namespace tridsolve::gpu
