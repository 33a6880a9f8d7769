#include "gpu_solvers/hybrid_solver.hpp"

#include <algorithm>
#include <vector>

#include "gpu_solvers/plan_cache.hpp"
#include "gpu_solvers/pthomas_kernel.hpp"
#include "gpu_solvers/transition.hpp"
#include "obs/metrics.hpp"
#include "tridiag/pcr.hpp"

namespace tridsolve::gpu {

const char* window_variant_name(WindowVariant v) noexcept {
  switch (v) {
    case WindowVariant::auto_select: return "auto";
    case WindowVariant::one_block_per_system: return "one_block_per_system";
    case WindowVariant::split_system: return "split_system";
    case WindowVariant::multi_system_per_block: return "multi_system_per_block";
  }
  return "unknown";
}

std::optional<WindowVariant> window_variant_from_name(
    std::string_view name) noexcept {
  if (name == "auto") return WindowVariant::auto_select;
  if (name == "one_block_per_system") return WindowVariant::one_block_per_system;
  if (name == "split_system") return WindowVariant::split_system;
  if (name == "multi_system_per_block") {
    return WindowVariant::multi_system_per_block;
  }
  return std::nullopt;
}

const char* plan_source_name(PlanSource s) noexcept {
  switch (s) {
    case PlanSource::heuristic: return "heuristic";
    case PlanSource::forced: return "forced";
    case PlanSource::calibrated: return "calibrated";
    case PlanSource::autotuned: return "autotuned";
  }
  return "unknown";
}

namespace {

/// Views of the 2^k interleaved reduced systems inside `batch`-shaped
/// arrays (which may be a scratch copy), ordered so that consecutive
/// p-Thomas threads touch consecutive addresses. When `owners` is non-null
/// it receives, parallel to the views, the batch system index each reduced
/// system came from (the guard's merge key).
template <typename T>
std::vector<tridiag::SystemRef<T>> reduced_system_views(
    tridiag::SystemBatch<T>& batch, unsigned k,
    std::vector<std::size_t>* owners = nullptr) {
  const std::size_t m_count = batch.num_systems();
  const std::size_t n = batch.system_size();
  const std::size_t stride_sys = std::size_t{1} << k;
  std::vector<tridiag::SystemRef<T>> views;
  views.reserve(m_count * stride_sys);

  const bool contiguous = batch.layout() == tridiag::Layout::contiguous;
  const std::ptrdiff_t elem_stride = static_cast<std::ptrdiff_t>(
      contiguous ? stride_sys : stride_sys * m_count);

  auto push = [&](std::size_t m, std::size_t r) {
    if (r >= n) return;  // degenerate: system smaller than 2^k
    const std::size_t base = batch.index(m, r);
    const std::size_t count = (n - r + stride_sys - 1) / stride_sys;
    views.push_back(tridiag::SystemRef<T>{
        tridiag::StridedView<T>(batch.a().data() + base, count, elem_stride),
        tridiag::StridedView<T>(batch.b().data() + base, count, elem_stride),
        tridiag::StridedView<T>(batch.c().data() + base, count, elem_stride),
        tridiag::StridedView<T>(batch.d().data() + base, count, elem_stride)});
    if (owners != nullptr) owners->push_back(m);
  };

  if (contiguous) {
    // sid = m * 2^k + r: consecutive r -> consecutive addresses.
    for (std::size_t m = 0; m < m_count; ++m) {
      for (std::size_t r = 0; r < stride_sys; ++r) push(m, r);
    }
  } else {
    // sid = r * M + m: consecutive m -> consecutive addresses.
    for (std::size_t r = 0; r < stride_sys; ++r) {
      for (std::size_t m = 0; m < m_count; ++m) push(m, r);
    }
  }
  return views;
}

/// Counter handles for the per-solve hot path, resolved once per process
/// (registry slots are stable across obs resets).
struct HybridMetrics {
  obs::MetricsRegistry::Counter solve_time_us =
      obs::counter_handle("hybrid.solve.time_us");
  obs::MetricsRegistry::Counter solve_calls =
      obs::counter_handle("hybrid.solve.calls");
  obs::MetricsRegistry::Counter solves = obs::counter_handle("hybrid.solves");
  obs::MetricsRegistry::Counter source_forced =
      obs::counter_handle("transition.source.forced");
  obs::MetricsRegistry::Counter source_heuristic =
      obs::counter_handle("transition.source.heuristic");
  obs::MetricsRegistry::Counter source_calibrated =
      obs::counter_handle("transition.source.calibrated");
  obs::MetricsRegistry::Counter pcr_windows =
      obs::counter_handle("pcr.windows");
  obs::MetricsRegistry::Counter pcr_boundaries =
      obs::counter_handle("pcr.sub_tile_boundaries");
  obs::MetricsRegistry::Counter pcr_loads_avoided =
      obs::counter_handle("pcr.redundant_loads_avoided");
  obs::MetricsRegistry::Counter pcr_elims_avoided =
      obs::counter_handle("pcr.redundant_elims_avoided");
  obs::MetricsRegistry::Counter pcr_redundant_loads =
      obs::counter_handle("pcr.redundant_loads");
  obs::MetricsRegistry::Counter pcr_eliminations =
      obs::counter_handle("pcr.eliminations");
  obs::MetricsRegistry::Counter variant_pthomas_only =
      obs::counter_handle("hybrid.variant.pthomas_only");
  obs::MetricsRegistry::Counter guard_flagged =
      obs::counter_handle("solver.guard.flagged");

  [[nodiscard]] obs::MetricsRegistry::Counter& variant(WindowVariant v) {
    switch (v) {
      case WindowVariant::split_system: return variant_split;
      case WindowVariant::multi_system_per_block: return variant_multi;
      default: return variant_one_block;
    }
  }

  static HybridMetrics& instance() {
    static HybridMetrics m;
    return m;
  }

 private:
  obs::MetricsRegistry::Counter variant_one_block =
      obs::counter_handle("hybrid.variant.one_block_per_system");
  obs::MetricsRegistry::Counter variant_split =
      obs::counter_handle("hybrid.variant.split_system");
  obs::MetricsRegistry::Counter variant_multi =
      obs::counter_handle("hybrid.variant.multi_system_per_block");
};

}  // namespace

template <typename T>
HybridReport hybrid_solve(const gpusim::DeviceSpec& dev,
                          tridiag::SystemBatch<T>& batch,
                          const HybridOptions& opts) {
  return hybrid_solve(dev, batch, opts,
                      plan_hybrid(dev, batch.num_systems(), batch.system_size(),
                                  sizeof(T), batch.layout(), opts));
}

template <typename T>
HybridReport hybrid_solve(const gpusim::DeviceSpec& dev,
                          tridiag::SystemBatch<T>& batch,
                          const HybridOptions& opts, const SolvePlan& plan) {
  HybridReport report;
  const std::size_t m_count = batch.num_systems();
  const std::size_t n = batch.system_size();
  if (m_count == 0 || n == 0) return report;

  HybridMetrics& metrics = HybridMetrics::instance();
  const obs::ScopedTimer host_timer(metrics.solve_time_us, metrics.solve_calls);
  metrics.solves.add();

  // --- 1. the plan (transition point, variant, geometry) -------------------
  const unsigned k = plan.k;
  switch (plan.source) {
    case PlanSource::forced: metrics.source_forced.add(); break;
    case PlanSource::heuristic: metrics.source_heuristic.add(); break;
    case PlanSource::calibrated: metrics.source_calibrated.add(); break;
    case PlanSource::autotuned: break;  // tuned plans load as calibrated
  }
  report.k = k;
  report.plan_source = plan.source;
  report.plan_c = plan.c;
  // Most-recent-planning-event gauge only — see transition.hpp; the
  // per-solve truth is HybridReport / the plan_* JSONL block.
  obs::gauge("transition.k", k);

  const bool guard = opts.guard;
  if (guard) report.status.resize(m_count);

  // --- 2. tiled PCR ---------------------------------------------------------
  std::optional<tridiag::SystemBatch<T>> scratch;  // split-system double buffer
  tridiag::SystemBatch<T>* reduced = &batch;

  if (k >= 1) {
    // Everything below comes from the plan, never recomputed: a retry
    // chunk run on its full batch's plan repeats that batch's arithmetic.
    TiledPcrConfig cfg;
    cfg.k = k;
    cfg.c = plan.c;
    cfg.systems_per_block = plan.systems_per_block;
    cfg.fuse_thomas_forward = opts.fuse;

    const WindowVariant variant = plan.variant;
    report.variant = variant;

    std::vector<TiledPcrWork<T>> work;
    if (variant == WindowVariant::split_system) {
      const std::size_t regions = plan.blocks_per_system;
      scratch.emplace(m_count, n, batch.layout());
      reduced = &*scratch;
      for (std::size_t m = 0; m < m_count; ++m) {
        const std::size_t per = (n + regions - 1) / regions;
        for (std::size_t r = 0; r < regions; ++r) {
          const std::size_t r0 = r * per;
          const std::size_t r1 = std::min(n, r0 + per);
          if (r0 >= r1) break;
          work.push_back(
              TiledPcrWork<T>{batch.system(m), scratch->system(m), r0, r1, m});
        }
      }
    } else {
      for (std::size_t m = 0; m < m_count; ++m) {
        work.push_back(
            TiledPcrWork<T>{batch.system(m), batch.system(m), 0, n, m});
      }
    }

    std::vector<tridiag::SolveStatus> window_guard(guard ? work.size() : 0);
    const auto pcr_stats = tiled_pcr_kernel<T>(
        dev, work, cfg, std::span<tridiag::SolveStatus>(window_guard));
    if (guard) {
      // Window slots are written in per-block private ranges; merging here
      // in window order keeps the per-system result deterministic.
      for (std::size_t w = 0; w < work.size(); ++w) {
        report.status.absorb(work[w].system_id, window_guard[w]);
      }
    }
    report.timeline.add(opts.fuse ? "pcr+thomas-fwd" : "pcr", pcr_stats.launch);
    report.eliminations_pcr = pcr_stats.eliminations;
    report.redundant_loads = pcr_stats.redundant_loads();
    report.pcr_shared_bytes = pcr_stats.launch.costs.shared_peak_bytes;

    // The paper's redundancy model (Eqs. 8-9), as first-class metrics.
    metrics.pcr_windows.add(static_cast<double>(pcr_stats.windows));
    metrics.pcr_boundaries.add(
        static_cast<double>(pcr_stats.sub_tile_boundaries));
    metrics.pcr_loads_avoided.add(
        static_cast<double>(pcr_stats.halo_loads_avoided));
    metrics.pcr_elims_avoided.add(
        static_cast<double>(pcr_stats.redundant_elims_avoided));
    metrics.pcr_redundant_loads.add(
        static_cast<double>(pcr_stats.redundant_loads()));
    metrics.pcr_eliminations.add(static_cast<double>(pcr_stats.eliminations));
    metrics.variant(report.variant).add();
  } else {
    report.variant = WindowVariant::one_block_per_system;
    metrics.variant_pthomas_only.add();
  }

  // --- 3. p-Thomas over the reduced systems ---------------------------------
  std::vector<std::size_t> owners;
  auto systems = reduced_system_views(*reduced, k, &owners);
  report.reduced_systems = systems.size();

  std::vector<tridiag::StridedView<T>> xout;
  if (reduced != &batch) {
    // Solutions belong in the caller's d array, not the scratch buffer.
    xout.reserve(systems.size());
    auto originals = reduced_system_views(batch, k);
    for (const auto& sys : originals) xout.push_back(sys.d);
  }

  if (opts.fuse && k >= 1) {
    // The forward sweep (and its pivot detection) already ran inside the
    // fused PCR kernel; the backward pass has no divisions to guard.
    report.timeline.add("thomas-bwd", pthomas_backward<T>(dev, systems, xout));
  } else {
    std::vector<tridiag::SolveStatus> sys_guard(guard ? systems.size() : 0);
    const auto th =
        pthomas_solve<T>(dev, systems, xout,
                         std::span<tridiag::SolveStatus>(sys_guard));
    report.timeline.add("thomas-fwd", th.forward);
    report.timeline.add("thomas-bwd", th.backward);
    if (guard) {
      for (std::size_t v = 0; v < systems.size(); ++v) {
        report.status.absorb(owners[v], sys_guard[v]);
      }
    }
  }

  // --- 4. guard: growth limit and taxonomy --------------------------------
  if (guard) {
    report.status.apply_growth_limit(tridiag::default_growth_limit<T>());
    report.flagged = report.status.flagged_count();
    metrics.guard_flagged.add(static_cast<double>(report.flagged));
  }

  // Split-system scratch: x was routed to batch.d via xout; nothing to copy.
  return report;
}

template HybridReport hybrid_solve<float>(const gpusim::DeviceSpec&,
                                          tridiag::SystemBatch<float>&,
                                          const HybridOptions&);
template HybridReport hybrid_solve<double>(const gpusim::DeviceSpec&,
                                           tridiag::SystemBatch<double>&,
                                           const HybridOptions&);
template HybridReport hybrid_solve<float>(const gpusim::DeviceSpec&,
                                          tridiag::SystemBatch<float>&,
                                          const HybridOptions&,
                                          const SolvePlan&);
template HybridReport hybrid_solve<double>(const gpusim::DeviceSpec&,
                                           tridiag::SystemBatch<double>&,
                                           const HybridOptions&,
                                           const SolvePlan&);

}  // namespace tridsolve::gpu
