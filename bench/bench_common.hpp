#pragma once
// Shared plumbing for the figure/table reproduction benches.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cpu_baselines/mkl_like.hpp"
#include "gpu_solvers/hybrid_solver.hpp"
#include "gpu_solvers/plan_cache.hpp"
#include "gpu_solvers/transition.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/exec_engine.hpp"
#include "gpusim/trace.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/record_schema.hpp"
#include "obs/span_tracer.hpp"
#include "obs/telemetry.hpp"
#include "tridiag/layout.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workloads/generators.hpp"

namespace tridsolve::bench {

/// Run the full hybrid solve on a fresh random diagonally-dominant batch
/// and return the report (timings are simulated; the numerics are real).
template <typename T>
gpu::HybridReport run_ours(const gpusim::DeviceSpec& dev, std::size_t m,
                           std::size_t n, const gpu::HybridOptions& opts = {}) {
  auto batch =
      workloads::make_batch<T>(workloads::Kind::random_dominant, m, n,
                               gpu::preferred_layout(m, n), /*seed=*/42);
  return gpu::hybrid_solve<T>(dev, batch, opts);
}

/// Host-wide CPU time counters from the first line of /proc/stat, in
/// clock ticks: `steal` is time the hypervisor ran other guests on this
/// host's CPUs, `total` the sum of user, nice, system, idle, iowait, irq,
/// softirq and steal. Both read 0 where the file is unavailable.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

inline CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  std::uint64_t v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// Share of host CPU time stolen between two readings (0 when no tick
/// passed or /proc/stat is unavailable).
inline double steal_share(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total || after.steal < before.steal) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

/// The host's CPU model (/proc/cpuinfo "model name"), or "unknown".
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    if (start != std::string::npos) return line.substr(start);
  }
  return "unknown";
}

/// Write the host group of obs/record_schema.hpp: the logical CPU count,
/// the CPU model and the steal share of the record's timed repeats.
inline void put_host(obs::JsonValue& rec, double steal) {
  rec["host_nproc"] =
      static_cast<std::size_t>(std::max(1u, std::thread::hardware_concurrency()));
  rec["host_cpu_model"] = cpu_model();
  rec["host_steal_share"] = steal;
}

/// Host wall-time summary of repeated runs of one configuration.
struct WallStats {
  double min_us = 0.0;
  double median_us = 0.0;
  int repeats = 1;
  double steal_share = 0.0;  ///< host CPU steal during the timed repeats
};

/// Time `configs` configurations under --repeat N semantics: one untimed
/// warmup of each when N > 1, then N rounds that run `fn(i)` once for
/// every configuration i in turn; reports, per configuration, min and
/// median host wall time, plus the host's steal share across all rounds.
/// Interleaving the repetitions lets host load that comes and goes land
/// on every configuration alike, so ratios between their times hold. The
/// benches' *simulated* numbers are deterministic — this measures how
/// long the simulator itself takes, i.e. the quantity the execution
/// engine optimizes. `prep(i)` runs untimed before every `fn(i)` (warmup
/// included) — for benches that solve in place and must reset their
/// inputs between repeats, or switch engine settings between
/// configurations, without charging that to the kernel.
template <typename P, typename F>
std::vector<WallStats> repeat_wall_rounds(const util::Cli& cli,
                                          std::size_t configs, P&& prep,
                                          F&& fn) {
  const int repeats =
      std::max<int>(1, static_cast<int>(cli.get_int("repeat", 1)));
  if (repeats > 1) {  // warmup: populate scratch pools, page in data
    for (std::size_t i = 0; i < configs; ++i) {
      prep(i);
      fn(i);
    }
  }
  std::vector<std::vector<double>> samples(configs);
  const CpuTimes cpu0 = read_cpu_times();
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t i = 0; i < configs; ++i) {
      prep(i);
      const auto t0 = std::chrono::steady_clock::now();
      fn(i);
      const auto t1 = std::chrono::steady_clock::now();
      samples[i].push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
  }
  const CpuTimes cpu1 = read_cpu_times();
  std::vector<WallStats> out(configs);
  for (std::size_t i = 0; i < configs; ++i) {
    std::vector<double>& s = samples[i];
    std::sort(s.begin(), s.end());
    out[i].repeats = repeats;
    out[i].min_us = s.front();
    const std::size_t mid = s.size() / 2;
    out[i].median_us =
        s.size() % 2 == 1 ? s[mid] : 0.5 * (s[mid - 1] + s[mid]);
    out[i].steal_share = steal_share(cpu0, cpu1);
  }
  return out;
}

/// repeat_wall_rounds for one configuration.
template <typename P, typename F>
WallStats repeat_wall(const util::Cli& cli, P&& prep, F&& fn) {
  return repeat_wall_rounds(
             cli, 1, [&](std::size_t) { prep(); }, [&](std::size_t) { fn(); })
      .front();
}

template <typename F>
WallStats repeat_wall(const util::Cli& cli, F&& fn) {
  return repeat_wall(
      cli, [] {}, std::forward<F>(fn));
}

/// Print a table as aligned ASCII, followed by a blank line.
inline void emit(const util::Table& table) {
  std::fputs(table.to_ascii().c_str(), stdout);
  std::fputs("\n", stdout);
}

/// The record's plan group (obs/record_schema.hpp): the plan a solve ran
/// with, or the one the autotuner picked.
inline void put_plan(obs::JsonValue& rec, gpu::PlanSource source,
                     unsigned k, gpu::WindowVariant variant, std::size_t c) {
  rec["plan_source"] = gpu::plan_source_name(source);
  rec["plan_k"] = k;
  rec["plan_variant"] = gpu::window_variant_name(variant);
  rec["plan_c"] = c;
}

/// Observability hub of every bench and of quickstart, driven by the
/// shared flags (util::with_obs_flags): a JSONL record sink (--json), a
/// Chrome trace accumulating every recorded timeline as its own track
/// (--trace-json), span tracing (--spans-json) and a metrics-registry dump
/// (--metrics-json). Each is inert unless its flag was passed.
class Telemetry {
 public:
  Telemetry(const util::Cli& cli, std::string bench_name)
      : bench_(std::move(bench_name)),
        trace_(bench_),
        last_record_(std::chrono::steady_clock::now()) {
    // Every binary funnels through here, so this is the one place the
    // shared --sim-threads / --instrument / --check-hazards flags reach
    // the engine, and --plan-file reaches the calibration table.
    gpusim::configure_engine_from_cli(cli);
    gpu::configure_plan_cache_from_cli(cli);
    hazard_mode_ = gpusim::ExecutionEngine::instance().default_hazards();
    if (hazard_mode_ != gpusim::HazardMode::off) {
      hazard_deltas_ = counter_deltas(obs::hazard_fields);
    }
    fault_plan_ = gpusim::ExecutionEngine::instance().fault_plan();
    if (fault_plan_.active()) fault_deltas_ = counter_deltas(obs::fault_fields);
    if (const auto path = cli.get("json")) sink_ = obs::JsonlSink(*path);
    trace_path_ = cli.get_string("trace-json", "");
    metrics_path_ = cli.get_string("metrics-json", "");
    spans_path_ = cli.get_string("spans-json", "");
    if (!spans_path_.empty()) {
      // Opt-in: tracing stays off (and free) unless --spans-json asks
      // for it. Reset discards spans a previous Telemetry in the same
      // process may have left behind (tests construct several).
      obs::SpanTracer::instance().reset();
      obs::SpanTracer::instance().set_enabled(true);
    }
  }

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  ~Telemetry() {
    if (!spans_path_.empty()) {
      obs::SpanTracer& tracer = obs::SpanTracer::instance();
      tracer.set_enabled(false);
      if (!tracer.write_jsonl(spans_path_)) {
        std::fprintf(stderr, "telemetry: cannot write %s\n",
                     spans_path_.c_str());
      }
      // The span tree also lands in the Chrome trace (pid 1) so the
      // causal view and the per-launch tracks open side by side.
      if (!trace_path_.empty()) trace_.add_spans(tracer.spans());
    }
    if (!trace_path_.empty()) trace_.write_file(trace_path_);
    if (!metrics_path_.empty()) {
      if (std::FILE* f = std::fopen(metrics_path_.c_str(), "w")) {
        const std::string text =
            obs::MetricsRegistry::instance().to_json().dump(1);
        std::fwrite(text.data(), 1, text.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
      } else {
        std::fprintf(stderr, "telemetry: cannot open %s\n",
                     metrics_path_.c_str());
      }
    }
  }

  [[nodiscard]] bool enabled() const noexcept {
    return sink_.enabled() || !trace_path_.empty();
  }

  /// Append one record for a solver run over an (m, n) batch: shape,
  /// solver, total time, per-phase split (one entry per segment label)
  /// and the timeline's aggregate totals. `extra` fields are merged in.
  /// The timeline also becomes one track of the Chrome trace.
  void record(const gpusim::DeviceSpec& dev, std::string_view solver,
              std::size_t m, std::size_t n, const gpusim::Timeline& timeline,
              obs::JsonValue extra = obs::JsonValue::object()) {
    if (!enabled()) return;
    if (!trace_path_.empty()) {
      trace_.add_timeline(dev, timeline,
                          std::string(solver) + " M=" + std::to_string(m) +
                              " N=" + std::to_string(n));
    }
    if (!sink_.enabled()) return;

    obs::JsonValue rec = std::move(extra);
    rec["bench"] = bench_;
    rec["solver"] = std::string(solver);
    rec["m"] = m;
    rec["n"] = n;
    rec["time_us"] = timeline.total_us();
    // Host wall time spent producing this record (since the previous one)
    // — the perf-trajectory signal BENCH_*.json files track. Benches that
    // measured more precisely (repeat_wall) pass wall_us via `extra`.
    if (!rec.find("wall_us")) rec["wall_us"] = take_wall_us();

    obs::JsonValue& phases = rec["phases"] = obs::JsonValue::object();
    std::map<std::string, double> by_label;
    for (const auto& seg : timeline.segments()) {
      by_label[seg.label] += seg.stats.timing.time_us;
    }
    for (const auto& [label, us] : by_label) phases[label] = us;

    const auto totals = gpusim::summarize_timeline(dev, timeline);
    rec["overhead_us"] = totals.overhead_us;
    rec["launches"] = totals.launches;
    rec["transactions"] = totals.transactions;
    rec["coalescing_efficiency"] = totals.coalescing_efficiency();
    annotate_hazards(rec);
    annotate_faults(rec);
    sink_.write(rec);
  }

  /// record() specialization for the hybrid solver's report: adds the
  /// transition point, window variant and redundancy bookkeeping.
  void record_hybrid(const gpusim::DeviceSpec& dev, std::size_t m,
                     std::size_t n, const gpu::HybridReport& report,
                     std::string_view solver = "hybrid",
                     obs::JsonValue extra = obs::JsonValue::object()) {
    if (!enabled()) return;
    extra["k"] = report.k;
    extra["variant"] = gpu::window_variant_name(report.variant);
    // Per-solve plan provenance (the transition.* gauges are only
    // most-recent; this is the record of truth).
    put_plan(extra, report.plan_source, report.k, report.variant,
             report.plan_c);
    extra["reduced_systems"] = report.reduced_systems;
    extra["redundant_loads"] = report.redundant_loads;
    extra["pcr_us"] = report.pcr_us();
    extra["thomas_us"] = report.thomas_us();
    extra["pcr_fraction"] = report.pcr_fraction();
    // Guarded-solve taxonomy (all zero on healthy inputs; flagged > 0
    // means the pivot guard fired — see README troubleshooting).
    extra["guard_flagged"] = report.flagged;
    record(dev, solver, m, n, report.timeline, std::move(extra));
  }

  /// Append a caller-built record verbatim (plus the bench name and a
  /// wall_us default). For results without a usable timeline — e.g.
  /// functional_only runs, which have no timing to report. Callers must
  /// include the schema fields (solver, m, n, time_us) themselves.
  void record_raw(obs::JsonValue rec) {
    if (!rec.find("wall_us")) rec["wall_us"] = take_wall_us();
    if (!sink_.enabled()) return;
    rec["bench"] = bench_;
    annotate_hazards(rec);
    annotate_faults(rec);
    sink_.write(rec);
  }

 private:
  /// A counter-delta field of the record schema: the change of its
  /// metrics counter since the previous record.
  struct CounterDelta {
    std::string_view field;
    obs::MetricsRegistry::Counter handle;
    double last = 0.0;
  };

  static std::vector<CounterDelta> counter_deltas(
      std::span<const obs::Field> fields) {
    std::vector<CounterDelta> out;
    for (const obs::Field& f : fields) {
      if (f.counter.empty()) continue;
      const auto handle = obs::counter_handle(f.counter);
      out.push_back({f.key, handle, handle.value()});
    }
    return out;
  }

  static void stamp(obs::JsonValue& rec, std::vector<CounterDelta>& deltas) {
    for (CounterDelta& d : deltas) {
      const double now = d.handle.value();
      rec[std::string(d.field)] = now - d.last;
      d.last = now;
    }
  }

  /// When hazard detection is on (--check-hazards), stamp the record's
  /// hazard group: the mode and the findings attributable to the launches
  /// since the previous record.
  void annotate_hazards(obs::JsonValue& rec) {
    if (hazard_mode_ == gpusim::HazardMode::off) return;
    rec["hazard_mode"] = std::string(gpusim::hazard_mode_name(hazard_mode_));
    stamp(rec, hazard_deltas_);
  }
  /// When fault injection is armed (--fault-rate / --fault-seed /
  /// --fault-kinds), stamp the record's fault group: the plan's seed and
  /// rate and the injections since the previous record.
  void annotate_faults(obs::JsonValue& rec) {
    if (!fault_plan_.active()) return;
    rec["fault_seed"] = fault_plan_.seed;
    rec["fault_rate"] = fault_plan_.rate;
    stamp(rec, fault_deltas_);
  }
  /// Microseconds since the previous record (or construction).
  [[nodiscard]] double take_wall_us() noexcept {
    const auto now = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(now - last_record_).count();
    last_record_ = now;
    return us;
  }

  std::string bench_;
  obs::JsonlSink sink_;
  obs::ChromeTraceBuilder trace_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string spans_path_;
  std::chrono::steady_clock::time_point last_record_;
  gpusim::HazardMode hazard_mode_ = gpusim::HazardMode::off;
  std::vector<CounterDelta> hazard_deltas_;
  gpusim::FaultPlan fault_plan_;
  std::vector<CounterDelta> fault_deltas_;
};

inline std::string us(double v) { return util::Table::num(v, 1); }
inline std::string ms(double v) { return util::Table::num(v / 1000.0, 2); }
inline std::string ratio(double v) { return util::Table::num(v, 1) + "x"; }

}  // namespace tridsolve::bench
