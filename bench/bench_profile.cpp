// Roofline profiler: where does each solver's time go, and how close is
// each phase to the machine's roofs? For every registry solver and batch
// shape this bench attributes bytes moved (global + shared) and FLOPs to
// each timeline phase, prices them against the GTX480's peak bandwidth
// and peak GFLOP/s (obs::attribute_timeline), and reports the achieved
// fraction of roof plus the phase's binding resource.
//
// With --json each (solver, phase) becomes its own JSONL record — the
// unit tools/perfdiff compares across runs — followed by one per-solver
// total record carrying the phase split and the latency-histogram
// quantiles of the per-launch kernel times. All simulated numbers are
// deterministic; wall_us is the only noisy field.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "gpu_solvers/registry.hpp"
#include "obs/histogram.hpp"
#include "obs/roofline.hpp"

using namespace tridsolve;

namespace {

/// Deterministic per-launch kernel-time quantiles for one solve: the
/// timeline's kernel segments fed through the same log-bucketed histogram
/// the metrics registry uses, so JSONL and --metrics-json agree on
/// bucketing. Simulated times in, deterministic p50/p90/p99 out.
obs::JsonValue launch_hist_json(const gpusim::Timeline& timeline) {
  obs::LogHistogram hist;
  for (const auto& seg : timeline.segments()) {
    if (!seg.stats.timed) continue;
    hist.record(seg.stats.timing.time_us);
  }
  const obs::HistogramSnapshot snap = hist.snapshot();
  obs::JsonValue h = obs::JsonValue::object();
  h["count"] = snap.count;
  h["p50"] = snap.p50;
  h["p90"] = snap.p90;
  h["p99"] = snap.p99;
  h["max"] = snap.max;
  h["mean"] = snap.mean();
  return h;
}

void panel(const gpusim::DeviceSpec& dev, std::size_t m, std::size_t n,
           const util::Cli& cli, bench::Telemetry& telemetry) {
  util::Table table("Roofline attribution, M=" + std::to_string(m) +
                    " N=" + std::to_string(n) + " (double)");
  table.set_header({"solver", "phase", "time[us]", "GB/s", "GF/s",
                    "frac_bw", "frac_comp", "bound"});

  const auto batch = workloads::make_batch<double>(
      workloads::Kind::random_dominant, m, n, gpu::preferred_layout(m, n),
      /*seed=*/42);
  const std::string solver_filter = cli.get_string("solvers", "");

  for (const gpu::SolverKind kind : gpu::all_solver_kinds()) {
    const std::string name = gpu::solver_name(kind);
    if (!solver_filter.empty() &&
        solver_filter.find(name) == std::string::npos) {
      continue;
    }
    const gpu::SolveOutcome out = gpu::run_solver<double>(kind, dev, batch);
    if (!out.supported) {
      std::fprintf(stderr, "profile: %s skipped at M=%zu N=%zu (%s)\n",
                   name.c_str(), m, n, out.detail.c_str());
      continue;
    }

    const auto roofs = obs::attribute_timeline(dev, out.timeline);
    for (const auto& [phase, attr] : roofs) {
      table.add_row({name, phase, bench::us(attr.time_us),
                     util::Table::num(attr.achieved_gbps, 1),
                     util::Table::num(attr.achieved_gflops, 1),
                     util::Table::num(attr.frac_bandwidth, 3),
                     util::Table::num(attr.frac_compute, 3), attr.bound});

      obs::JsonValue rec = attr.to_json();
      rec["solver"] = name;
      rec["m"] = m;
      rec["n"] = n;
      rec["phase"] = phase;
      telemetry.record_raw(std::move(rec));
    }

    obs::JsonValue extra = obs::JsonValue::object();
    extra["phase"] = "total";
    extra["launches"] = out.launches;
    extra["hist_launch_us"] = launch_hist_json(out.timeline);
    obs::JsonValue& roof = extra["roofline"] = obs::JsonValue::object();
    for (const auto& [phase, attr] : roofs) roof[phase] = attr.to_json();
    telemetry.record(dev, name, m, n, out.timeline, std::move(extra));
  }
  bench::emit(table);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(
      argc, argv,
      util::with_obs_flags({"quick", "smoke", "m", "n", "solvers"}));
  const auto dev = gpusim::gtx480();
  bench::Telemetry telemetry(cli, "profile");

  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  if (cli.has("m")) {
    shapes = {{static_cast<std::size_t>(cli.get_int("m", 1024)),
               static_cast<std::size_t>(cli.get_int("n", 512))}};
  } else if (cli.get_bool("smoke", false)) {
    shapes = {{64, 512}};
  } else if (cli.get_bool("quick", false)) {
    shapes = {{1024, 512}};
  } else {
    shapes = {{256, 512}, {4096, 512}, {16384, 512}};
  }
  for (const auto& [m, n] : shapes) panel(dev, m, n, cli, telemetry);
  return 0;
}
