// Simulator throughput bench: how many simulated blocks per second the
// execution engine retires on the Fig. 12 hybrid workload (N = 512,
// double precision), across its fast-path mechanisms:
//
//   exact-serial    1 sim thread, every block instrumented — the
//                   historical gpusim::launch behavior, the baseline
//   exact-parallel  all sim threads, every block instrumented
//   sampled         all sim threads, one block per cost class instrumented
//   functional      all sim threads, no instrumentation (and, by design,
//                   no timing — recorded without simulated times)
//
// Every mode reports identical simulated numbers (ctest pins this:
// tests/test_sim_engine.cpp); this bench reports how much cheaper they
// are to produce. Results land in BENCH_sim_throughput.json via --json.
// With --guard on every mode also runs unguarded in the same rounds, and
// the guarded rows carry the guard's overhead (guarded ÷ unguarded
// minimum wall, also the gauge bench.guard_overhead.<mode>).

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "gpu_solvers/hybrid_solver.hpp"
#include "gpusim/exec_engine.hpp"

using namespace tridsolve;

namespace {

struct ModeSpec {
  const char* name;
  bool serial;  ///< 1 sim thread instead of the configured pool
  gpusim::InstrumentMode mode;
};

constexpr ModeSpec kModes[] = {
    {"exact-serial", true, gpusim::InstrumentMode::exact},
    {"exact-parallel", false, gpusim::InstrumentMode::exact},
    {"sampled", false, gpusim::InstrumentMode::sampled},
    {"functional", false, gpusim::InstrumentMode::functional_only},
};

/// The kModes entries --modes selects by whole comma-separated tokens
/// (all of them when the flag is absent); empty, after a message on
/// stderr, when a token names no mode.
std::vector<bool> selected_modes(const util::Cli& cli) {
  std::vector<bool> run(std::size(kModes), !cli.has("modes"));
  if (!cli.has("modes")) return run;
  const std::string modes = cli.get_string("modes", "");
  std::string_view list = modes;
  for (;;) {
    const std::size_t comma = list.find(',');
    const std::string_view tok = list.substr(0, comma);
    const auto it = std::find_if(std::begin(kModes), std::end(kModes),
                                 [&](const ModeSpec& s) { return tok == s.name; });
    if (it == std::end(kModes)) {
      std::fprintf(stderr,
                   "bench_sim_throughput: unknown --modes token '%.*s' "
                   "(expected exact-serial, exact-parallel, sampled or "
                   "functional)\n",
                   static_cast<int>(tok.size()), tok.data());
      return {};
    }
    run[static_cast<std::size_t>(it - std::begin(kModes))] = true;
    if (comma == std::string_view::npos) return run;
    list.remove_prefix(comma + 1);
  }
}

void panel(const gpusim::DeviceSpec& dev, std::size_t m, std::size_t n,
           const util::Cli& cli, const std::vector<bool>& run_mode,
           bench::Telemetry& telemetry) {
  // exact-parallel must actually exercise the pool: on a box whose default
  // thread count is 1 (or when --sim-threads 1 is set), bump it to 2 so that
  // row measures pooled execution rather than silently re-running the
  // serial path under a different label. sampled and functional run at the
  // configured count, so --sim-threads 1 compares them on one core (the
  // vector-vs-scalar perf gate relies on this).
  const std::size_t configured_threads =
      gpusim::ExecutionEngine::instance().threads();
  const bool guard = cli.get_bool("guard", false);
  util::Table table("Simulator throughput, hybrid M=" + std::to_string(m) +
                    " N=" + std::to_string(n) + " (double)" +
                    (guard ? ", guarded" : ""));
  std::vector<std::string> header = {"mode", "threads", "wall_min[ms]",
                                     "wall_median[ms]", "blocks/s", "speedup"};
  if (guard) header.push_back("guard_x");
  table.set_header(header);

  const auto batch = workloads::make_batch<double>(
      workloads::Kind::random_dominant, m, n, gpu::preferred_layout(m, n),
      /*seed=*/42);
  auto scratch = batch.clone();
  const auto restore = [&] {
    std::copy(batch.a().begin(), batch.a().end(), scratch.a().begin());
    std::copy(batch.b().begin(), batch.b().end(), scratch.b().begin());
    std::copy(batch.c().begin(), batch.c().end(), scratch.c().begin());
    std::copy(batch.d().begin(), batch.d().end(), scratch.d().begin());
  };

  // Every selected mode is timed in one round-robin (repeat_wall_rounds),
  // so load on the host lands on each mode alike and the speedups, ratios
  // of this process's own timings, hold. Each repeat switches the engine
  // to its mode's settings untimed; the guards restore the configured
  // ones when the panel ends. --guard on times each mode twice a round,
  // unguarded then guarded, so the guard's overhead is a ratio of this
  // process's timings too; the rows are the guarded runs'.
  struct ModeRun {
    const ModeSpec* spec = nullptr;
    std::size_t threads = 0;  ///< the worker count the engine settled on
    bool guard = false;
    double blocks = 0.0;  ///< gpusim.blocks retired by this mode's solves
    std::size_t calls = 0;
    gpu::HybridReport report;
  };
  auto& engine = gpusim::ExecutionEngine::instance();
  const gpusim::ScopedSimThreads keep_threads(configured_threads);
  const gpusim::ScopedInstrumentMode keep_mode(engine.default_instrument());
  std::vector<ModeRun> runs;
  for (std::size_t mi = 0; mi < std::size(kModes); ++mi) {
    if (!run_mode[mi]) continue;
    const ModeSpec& spec = kModes[mi];
    engine.set_threads(spec.serial ? 1
                       : spec.mode == gpusim::InstrumentMode::exact
                           ? std::max<std::size_t>(2, configured_threads)
                           : configured_threads);
    // Read back what the engine actually settled on so the JSONL rows
    // record the real worker count, not the requested one.
    for (const bool guarded : {false, true}) {
      if (guarded && !guard) continue;
      ModeRun& run = runs.emplace_back();
      run.spec = &spec;
      run.threads = engine.threads();
      run.guard = guarded;
    }
  }

  auto& registry = obs::MetricsRegistry::instance();
  const std::vector<bench::WallStats> walls = bench::repeat_wall_rounds(
      cli, runs.size(),
      [&](std::size_t i) {
        restore();
        engine.set_threads(runs[i].threads);
        engine.set_default_instrument(runs[i].spec->mode);
      },
      [&](std::size_t i) {
        ModeRun& run = runs[i];
        const double blocks_before = registry.counter("gpusim.blocks");
        gpu::HybridOptions opts;
        opts.guard = run.guard;
        run.report = gpu::hybrid_solve<double>(dev, scratch, opts);
        run.blocks += registry.counter("gpusim.blocks") - blocks_before;
        ++run.calls;
      });

  double baseline_bps = 0.0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].guard != guard) continue;
    const ModeSpec& spec = *runs[i].spec;
    const std::size_t threads = runs[i].threads;
    const bench::WallStats& wall = walls[i];
    const double blocks_per_solve =
        runs[i].blocks / static_cast<double>(runs[i].calls);
    const double bps = blocks_per_solve / (wall.min_us * 1e-6);
    if (spec.serial) baseline_bps = bps;
    const double speedup = baseline_bps > 0.0 ? bps / baseline_bps : 1.0;
    // Both timings come from this process, so the ratio is free of the
    // speed swings between processes; --metrics-json carries it (latest
    // shape) for the recorder-smoke gate.
    registry.set(std::string("bench.speedup_vs_exact_serial.") + spec.name,
                 speedup);

    std::vector<std::string> row = {
        spec.name, std::to_string(threads),
        util::Table::num(wall.min_us / 1000.0, 2),
        util::Table::num(wall.median_us / 1000.0, 2),
        util::Table::num(bps, 0), bench::ratio(speedup)};
    obs::JsonValue extra = obs::JsonValue::object();
    if (guard) {
      // The guarded run's unguarded twin is the run before it.
      const bench::WallStats& off = walls[i - 1];
      const double overhead = wall.min_us / off.min_us;
      registry.set(std::string("bench.guard_overhead.") + spec.name, overhead);
      row.push_back(util::Table::num(overhead, 2) + "x");
      extra["guard_overhead"] = overhead;
      extra["unguarded_wall_us"] = off.min_us;
      extra["unguarded_wall_median_us"] = off.median_us;
    }
    table.add_row(row);

    extra["mode"] = spec.name;
    extra["instrument"] = gpusim::instrument_mode_name(spec.mode);
    extra["sim_threads"] = threads;
    extra["guard"] = guard;
    extra["vector"] = gpusim::ExecutionEngine::instance().vector_enabled();
    extra["repeats"] = wall.repeats;
    extra["wall_us"] = wall.min_us;
    extra["wall_median_us"] = wall.median_us;
    extra["blocks_per_solve"] = blocks_per_solve;
    extra["blocks_per_sec"] = bps;
    extra["speedup_vs_exact_serial"] = speedup;
    bench::put_host(extra, wall.steal_share);
    if (spec.mode == gpusim::InstrumentMode::functional_only) {
      // No simulated timing exists in this mode (that is the point);
      // record the throughput fields without a timeline.
      extra["solver"] = "hybrid";
      extra["m"] = m;
      extra["n"] = n;
      extra["time_us"] = 0.0;
      telemetry.record_raw(std::move(extra));
    } else {
      telemetry.record_hybrid(dev, m, n, runs[i].report, "hybrid",
                              std::move(extra));
    }
  }
  bench::emit(table);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv,
                      util::with_obs_flags(
                          {"quick", "smoke", "m", "n", "modes", "guard",
                           "repeat"}));
  const std::vector<bool> run_mode = selected_modes(cli);
  if (run_mode.empty()) return 2;
  const auto dev = gpusim::gtx480();
  bench::Telemetry telemetry(cli, "sim_throughput");

  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  if (cli.has("m")) {
    shapes = {{static_cast<std::size_t>(cli.get_int("m", 1024)),
               static_cast<std::size_t>(cli.get_int("n", 512))}};
  } else if (cli.get_bool("smoke", false)) {
    shapes = {{64, 512}};
  } else if (cli.get_bool("quick", false)) {
    shapes = {{1024, 512}};
  } else {
    shapes = {{256, 512}, {4096, 512}, {16384, 512}, {65536, 512}};
  }
  for (const auto& [m, n] : shapes) panel(dev, m, n, cli, run_mode, telemetry);
  return 0;
}
