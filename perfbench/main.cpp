// perfbench: the end-to-end benchmark of the tridiagonal solver stack.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --self-check [--seed N]
//
// --trace 0 sets the workload up several times (setup_s is the median),
// runs its timed phase untraced and prints the end-to-end metrics.
// --trace 1 is the separate traced run: every workload runs a short phase
// untraced and then traced (the named workload gets the longest), the
// layer probes run, and the per-layer metrics come from the phases and the
// span tree. The last stdout line is the JSON result; RATIONALE.md says
// what each workload and metric is for.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/exec_engine.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using tridsolve::obs::SpanTracer;

// Setups per run: at least kMinSetups, and more while under kSetupBudgetS
// seconds, so that short setups report a steady median.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 50;
constexpr double kSetupBudgetS = 1.0;

const std::vector<std::string> kEndToEnd = {
    "setup_s",   "peak_rss_mb", "sim_us_per_op",
    "op_p50_ms", "mrows_s",     "slo_share"};

/// Every per-layer metric the traced run prints.
std::vector<std::string> per_layer_names() {
  std::vector<std::string> v;
  for (const char* w : {"svc_open", "svc_closed"}) {
    for (const char* m : {"submit_us", "queue_us", "dispatch_us",
                          "batch_occupancy", "sim_us_per_req", "failed",
                          "retried", "batch_self_us"}) {
      v.push_back(std::string("service.") + m + "." + w);
    }
  }
  v.push_back("service.gen_lag_p99_us");
  for (const char* shape : {"m4_n16384", "m256_n512", "m4096_n512"}) {
    for (const char* mode : {"exact", "sampled", "functional"}) {
      v.push_back(std::string("gpu_solvers.solve_ms.") + shape + "." + mode);
    }
    v.push_back(std::string("gpu_solvers.plan_us.") + shape);
  }
  for (const char* mode : {"exact", "sampled", "functional"}) {
    v.push_back(std::string("gpu_solvers.run_solver_self_ms.") + mode);
    v.push_back(std::string("gpusim.blocks_per_s.") + mode);
  }
  for (const std::string& w : workload_names()) {
    v.push_back("gpu_solvers.plan_hit_ratio." + w);
    v.push_back("obs.trace_overhead." + w);
    v.push_back("obs.trace_overhead_ms." + w);
  }
  for (const char* w : {"solve_mix", "adi_heat"}) {
    v.push_back(std::string("gpu_solvers.launches.") + w);
    v.push_back(std::string("gpusim.transactions.") + w);
    v.push_back(std::string("gpusim.bytes_computed.") + w);
    v.push_back(std::string("gpusim.pool_speedup.") + w + ".t2");
    v.push_back(std::string("gpusim.pool_speedup.") + w + ".nproc");
  }
  for (const char* name :
       {"gpu_solvers.registry_ms.exact", "gpu_solvers.registry_ms.functional",
        "gpu_solvers.adi_solve_ms", "gpu_solvers.adi_transpose_ms",
        "gpu_solvers.guard_us", "gpu_solvers.sim_us.pcr",
        "gpu_solvers.sim_us.thomas-fwd", "gpu_solvers.sim_us.thomas-bwd",
        "gpu_solvers.sim_us.transpose", "gpusim.launch_wall_us",
        "gpusim.vector_block_share.sampled",
        "gpusim.vector_block_share.functional", "gpusim.scratch_reuse_ratio",
        "gpusim.sampling_mismatches", "apps.step_self_ms", "obs.spans",
        "obs.spans_dropped"}) {
    v.push_back(name);
  }
  return v;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool self_check = false;
  std::string rev = "unknown";
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--rev REV] [--spans-out FILE]\n"
               "       perfbench --self-check [--seed N]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      a.self_check = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value);
      } else if (flag == "--rev") {
        a.rev = value;
      } else if (flag == "--spans-out") {
        a.spans_out = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (a.self_check) return a;
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const auto& w : workload_names()) known = known || w == a.workload;
  if (!known) usage(("unknown workload " + a.workload).c_str());
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds out of range");
  return a;
}

/// Timings from Debug or sanitizer builds say nothing about the program.
bool optimized_build() {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return false;
#else
  const std::string type = PERFBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
#endif
}

void print_provenance(const Args& a) {
  std::printf(
      "perfbench provenance: seed=%llu rev=%s build=%s nproc=%u cpu=\"%s\"\n",
      static_cast<unsigned long long>(a.seed), a.rev.c_str(),
      PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
      cpu_model().c_str());
}

void print_sim_threads(const Workload& w) {
  std::printf("  %s: sim threads %zu (engine reports %zu)\n", w.name(),
              w.sim_threads(),
              tridsolve::gpusim::ExecutionEngine::instance().threads());
}

/// Set the workload up several times (the first from process start), run
/// its untraced timed phase and add the end-to-end metrics.
void end_to_end(Workload& w, Clock::time_point process_start, double seconds,
                Report& out) {
  std::vector<double> setups;
  const auto first = Clock::now();
  while (setups.size() < kMinSetups ||
         (setups.size() < kMaxSetups &&
          seconds_between(first, Clock::now()) < kSetupBudgetS)) {
    const auto t0 = setups.empty() ? process_start : Clock::now();
    w.setup();
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  print_sim_threads(w);
  w.verify();
  w.warm_up();
  const CpuTimes cpu0 = CpuTimes::now();
  const Phase p = w.run(seconds);
  // On a shared host, time the hypervisor gives other guests slows every
  // timing here; printed so that a slow run can be told from a slow program.
  std::printf("  %-44s %.4f share\n", "host steal during the timed phase",
              steal_share(cpu0, CpuTimes::now()));
  Report::timing("setup", summarize(setups), "s");
  Report::timing("operation", summarize(p.op_ms), "ms");
  w.describe(p);
  out.add("setup_s", median(setups), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("sim_us_per_op", p.sim_us, "sim_us");
  out.add("op_p50_ms", median(p.op_ms), "ms");
  out.add("mrows_s", median(p.mrows_s), "Mrows/s");
  const double sent = static_cast<double>(p.sent);
  out.add("slo_share", sent > 0 ? static_cast<double>(p.slo_ok) / sent : 0.0,
          "share");
}

/// The traced run: per workload an untraced then a traced phase (the
/// named workload gets the largest share of `seconds` and of the span
/// capacity), its layer metrics and probes; then span-tree metrics.
void traced(const std::string& focus, std::uint64_t seed, double seconds,
            Tally& tally, Report& out) {
  SpanTracer& tracer = SpanTracer::instance();
  tracer.set_enabled(false);
  tracer.reset();
  const std::size_t n = workload_names().size();
  std::map<std::string, std::pair<double, double>> windows;
  for (const auto& name : workload_names()) {
    const double share = name == focus ? 0.4 : 0.6 / static_cast<double>(n - 1);
    auto w = make_workload(name, seed, tally);
    w->setup();
    print_sim_threads(*w);
    w->warm_up();  // so neither timed phase pays first-use costs
    const Phase plain = w->run(seconds * share / 2.0);

    tridsolve::obs::MetricsRegistry::instance().reset();
    g_span_budget =
        tracer.span_count() +
        static_cast<std::size_t>(share * 0.85 * SpanTracer::kMaxSpans);
    const double wall0 = tracer.now_wall_us();
    tracer.set_enabled(true);
    const Phase with = w->run(seconds * share / 2.0);
    tracer.set_enabled(false);
    windows[name] = {wall0, tracer.now_wall_us()};

    const double plain_ms = median(plain.op_ms), traced_ms = median(with.op_ms);
    std::printf("  %s: traced p50 %.6g ms vs untraced %.6g ms (%+.6g ms)\n",
                name.c_str(), traced_ms, plain_ms, traced_ms - plain_ms);
    out.add("obs.trace_overhead." + name,
            plain_ms > 0 ? traced_ms / plain_ms : 0.0, "x");
    out.add("obs.trace_overhead_ms." + name, traced_ms - plain_ms, "ms");
    w->layer_metrics(out);
    w->probe(out);
  }

  const auto spans = tracer.spans();
  const auto self = span_self_us(spans, "service.request");
  std::vector<double> launch_us, step_self_ms;
  std::map<std::string, std::vector<double>> solver_self_ms, batch_self_us;
  for (const auto& s : spans) {
    const double self_us = self.at(s.id);
    if (s.name == "launch") {
      launch_us.push_back(s.wall_t1_us - s.wall_t0_us);
    } else if (s.name == "bench.adi_heat.step") {
      step_self_ms.push_back(self_us / 1e3);
    } else if (s.name == "bench.run_solver") {
      for (const auto& [key, value] : s.attrs) {
        if (key == "mode") {
          solver_self_ms[value.as_string()].push_back(self_us / 1e3);
        }
      }
    } else if (s.name == "service.batch") {
      for (const auto& [w, win] : windows) {
        if (s.wall_t0_us >= win.first && s.wall_t0_us <= win.second) {
          batch_self_us[w].push_back(self_us);
        }
      }
    }
  }
  out.add("gpusim.launch_wall_us", median(launch_us), "us");
  out.add("apps.step_self_ms", median(step_self_ms), "ms");
  for (const char* mode : {"exact", "sampled", "functional"}) {
    out.add(std::string("gpu_solvers.run_solver_self_ms.") + mode,
            median(solver_self_ms[mode]), "ms");
  }
  for (const char* w : {"svc_open", "svc_closed"}) {
    out.add(std::string("service.batch_self_us.") + w, median(batch_self_us[w]),
            "us");
  }
  out.add("obs.spans", static_cast<double>(spans.size()), "count");
  out.add("obs.spans_dropped", static_cast<double>(tracer.dropped()), "count");
}

/// Every workload for a fraction of a second with all checks on, then a
/// short traced run; fails on a failed check, a missing metric or a
/// dropped span.
int self_check(const Args& a) {
  Tally tally;
  bool complete = true;
  const auto require = [&](const Report& r,
                           const std::vector<std::string>& names) {
    for (const auto& m : names) {
      if (r.has(m)) continue;
      std::fprintf(stderr, "self-check: metric %s missing\n", m.c_str());
      complete = false;
    }
  };
  for (const auto& name : workload_names()) {
    std::printf("self-check: %s\n", name.c_str());
    Report out;
    end_to_end(*make_workload(name, a.seed, tally), Clock::now(), 0.3, out);
    require(out, kEndToEnd);
  }
  std::printf("self-check: traced run\n");
  Report layers;
  traced("solve_mix", a.seed, 2.0, tally, layers);
  require(layers, per_layer_names());
  const bool clean = layers.value("obs.spans_dropped") == 0.0;
  std::printf("self-check: %llu operations, %llu failed, metrics %s, %s\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              complete ? "complete" : "INCOMPLETE",
              clean ? "no spans dropped" : "SPANS DROPPED");
  return tally.failed == 0 && complete && clean ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  // Pin glibc's allocation policy: every buffer the workloads allocate (up
  // to 32 MiB) comes from the heap and freed memory is kept for reuse. The
  // default sliding mmap threshold moves whenever any thread frees a large
  // block, so which buffers were mmapped — and so peak RSS and page-fault
  // time — changed from run to run.
  ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
  ::mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const Args a = parse(argc, argv);
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a %s or sanitizer build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  // Only the command line configures a run.
  ::unsetenv("TRIDSOLVE_SIM_THREADS");
  ::unsetenv("TRIDSOLVE_PLAN_FILE");
  if (a.self_check) return self_check(a);

  print_provenance(a);
  Tally tally;
  Report out;
  try {
    if (a.trace == 0) {
      end_to_end(*make_workload(a.workload, a.seed, tally), process_start,
                 a.seconds, out);
    } else {
      traced(a.workload, a.seed, a.seconds, tally, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("  operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  if (a.trace == 1 && !a.spans_out.empty() &&
      !SpanTracer::instance().write_jsonl(a.spans_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 a.spans_out.c_str());
  }
  const auto& names = a.trace == 0 ? kEndToEnd : per_layer_names();
  return out.print_result(names, tally) ? 0 : 1;
}
