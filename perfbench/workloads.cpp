#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <numbers>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>

#include "apps/adi.hpp"
#include "gpu_solvers/hybrid_solver.hpp"
#include "gpu_solvers/plan_cache.hpp"
#include "gpu_solvers/registry.hpp"
#include "gpu_solvers/transpose_kernel.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/exec_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "service/solve_service.hpp"
#include "tridiag/residual.hpp"
#include "tridiag/thomas.hpp"
#include "util/random.hpp"
#include "workloads/generators.hpp"
#include "workloads/traffic.hpp"

namespace perfbench {

std::size_t g_span_budget = 0;

namespace {

using namespace tridsolve;
using gpusim::InstrumentMode;

std::size_t nproc() {
  const unsigned h = std::thread::hardware_concurrency();
  return h > 0 ? h : 1;
}

/// Independent stream seed for one input of the workload (splitmix64).
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double ms_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now()) * 1e3;
}

/// A timed phase ends when its time is up or, in the traced run, when it
/// has used its share of the tracer's span capacity.
bool phase_over(Clock::time_point t0, double seconds) {
  if (seconds_between(t0, Clock::now()) >= seconds) return true;
  const auto& tracer = obs::SpanTracer::instance();
  return tracer.enabled() && tracer.span_count() >= g_span_budget;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Rows of ok completions in consecutive 0.25 s windows from the start of
/// a service phase: the throughput samples whose median is `mrows_s`.
class RowWindows {
 public:
  explicit RowWindows(Clock::time_point t0) : t0_(t0) {}

  void add(double rows) {
    const double t = seconds_between(t0_, Clock::now());
    const auto i = static_cast<std::size_t>(std::max(t, 0.0) / kWidthS);
    if (i >= rows_.size()) rows_.resize(i + 1, 0.0);
    rows_[i] += rows;
  }

  /// Mrows/s of every window that closed by `end`.
  [[nodiscard]] std::vector<double> mrows_s(Clock::time_point end) const {
    const double span = std::max(seconds_between(t0_, end), 0.0);
    const auto closed = static_cast<std::size_t>(span / kWidthS);
    std::vector<double> out;
    for (std::size_t i = 0; i < closed; ++i) {
      out.push_back((i < rows_.size() ? rows_[i] : 0.0) / kWidthS / 1e6);
    }
    return out;
  }

 private:
  static constexpr double kWidthS = 0.25;
  Clock::time_point t0_;
  std::vector<double> rows_;
};

struct Mode {
  InstrumentMode mode;
  const char* name;
};
constexpr Mode kModes[] = {{InstrumentMode::exact, "exact"},
                           {InstrumentMode::sampled, "sampled"},
                           {InstrumentMode::functional_only, "functional"}};

/// Counters one phase reads as deltas (the registry is process-wide and
/// cumulative).
struct PhaseCounters {
  double plan_hits = 0, plan_misses = 0, scratch_acquires = 0,
         scratch_reuses = 0, sampling_mismatches = 0;

  static PhaseCounters between(const CounterSnapshot& a,
                               const CounterSnapshot& b) {
    PhaseCounters c;
    c.plan_hits = b.since(a, "gpu.plan_cache.hits");
    c.plan_misses = b.since(a, "gpu.plan_cache.misses");
    c.scratch_acquires = b.since(a, "gpusim.scratch.acquires");
    c.scratch_reuses = b.since(a, "gpusim.scratch.reuses");
    c.sampling_mismatches = b.since(a, "gpusim.sampling.mismatches");
    return c;
  }
  [[nodiscard]] double plan_hit_ratio() const {
    return ratio(plan_hits, plan_hits + plan_misses);
  }
};

/// Launch count, transactions and simulated time per phase label of one
/// timeline (deterministic: the same shapes always give the same values).
struct TimelineCosts {
  double launches = 0, transactions = 0;
  std::map<std::string, double> sim_us_by_phase;

  void add(const gpusim::Timeline& t) {
    for (const auto& seg : t.segments()) {
      if (seg.is_host()) continue;
      launches += 1;
      transactions += static_cast<double>(seg.stats.costs.transactions);
      sim_us_by_phase[seg.label] += seg.stats.timing.time_us;
    }
  }
  /// Simulated us of the segments whose label, or its part after a
  /// "sweep-x:"-style qualifier, starts with `prefix`.
  [[nodiscard]] double sim_with_prefix(const std::string& prefix) const {
    double sum = 0;
    for (const auto& [label, us] : sim_us_by_phase) {
      const std::string bare = label.substr(label.find(':') + 1);
      if (label.rfind(prefix, 0) == 0 || bare.rfind(prefix, 0) == 0) sum += us;
    }
    return sum;
  }
};

// ---------------------------------------------------------------------------
// solve_mix: run_solver(hybrid) on one shape per Table III regime, in every
// instrument mode.

class SolveMix final : public Workload {
 public:
  SolveMix(std::uint64_t seed, Tally& tally) : seed_(seed), tally_(tally) {}

  [[nodiscard]] const char* name() const noexcept override {
    return "solve_mix";
  }
  [[nodiscard]] std::size_t sim_threads() const noexcept override {
    return nproc();
  }

  void setup() override {
    gpusim::ExecutionEngine::instance().set_threads(sim_threads());
    shapes_.clear();
    // Solves per pass are chosen so that no shape takes most of a pass.
    add_shape("m4_n16384", 4, 16384, 8, 8);
    add_shape("m256_n512", 256, 512, 6, 8);
    add_shape("m4096_n512", 4096, 512, 0, 1);
    gpu::PlanCache::instance().clear();
    for (auto& s : shapes_) first_solves(s);
  }

  void verify() override {
    const gpusim::ScopedSimThreads one(1);
    for (const auto& s : shapes_) {
      gpu::SolveOutcome out;
      tridiag::SystemBatch<double> sol;
      solve(s, kModes[0], out, sol);
      tally_.op(matches(s, kModes[0], out, sol),
                s.name + ": exact solve at 1 sim thread differs from nproc");
    }
  }

  Phase run(double seconds) override {
    stats_ = {};
    Phase ph;
    const CounterSnapshot before;
    const auto t0 = Clock::now();
    do {
      pass(ph, kModes);
    } while (!phase_over(t0, seconds));
    counters_ = PhaseCounters::between(before, CounterSnapshot());
    return ph;
  }

  void layer_metrics(Report& out) override {
    for (const auto& s : shapes_) {
      for (const Mode& m : kModes) {
        const std::string key = s.name + "." + m.name;
        out.add("gpu_solvers.solve_ms." + key, median(stats_.call_ms[key]),
                "ms");
      }
    }
    for (const Mode& m : kModes) {
      const ModeStats& ms = stats_.modes[m.name];
      out.add(std::string("gpusim.blocks_per_s.") + m.name,
              ratio(ms.blocks, ms.busy_s), "1/s");
    }
    for (const char* m : {"sampled", "functional"}) {
      const ModeStats& ms = stats_.modes[m];
      out.add(std::string("gpusim.vector_block_share.") + m,
              ratio(ms.vector_blocks, ms.blocks), "share");
    }
    // Share of scratch requests served from warm pools (a steady phase
    // acquires nothing new, so reuses / acquires would divide by zero).
    out.add("gpusim.scratch_reuse_ratio",
            ratio(counters_.scratch_reuses,
                  counters_.scratch_reuses + counters_.scratch_acquires),
            "ratio");
    out.add("gpusim.sampling_mismatches", counters_.sampling_mismatches,
            "count");
    out.add("gpu_solvers.plan_hit_ratio.solve_mix", counters_.plan_hit_ratio(),
            "ratio");
    const TimelineCosts& c = stats_.exact_pass;
    out.add("gpu_solvers.launches.solve_mix", c.launches, "count");
    out.add("gpusim.transactions.solve_mix", c.transactions, "count");
    out.add("gpusim.bytes_computed.solve_mix",
            c.transactions * static_cast<double>(dev_.transaction_bytes),
            "bytes");
    for (const char* phase : {"pcr", "thomas-fwd", "thomas-bwd"}) {
      out.add(std::string("gpu_solvers.sim_us.") + phase,
              c.sim_with_prefix(phase), "sim_us");
    }
  }

  void describe(const Phase& p) const override {
    std::printf("  solve_mix: rounds=%zu, simulated us per exact pass=%.6g\n",
                p.op_ms.count(), p.sim_us);
    for (const Mode& m : kModes) {
      const auto it = stats_.modes.find(m.name);
      if (it == stats_.modes.end()) continue;
      std::printf("  %-44s %.6g Mrows/s\n",
                  (std::string("solve_") + m.name + "_mrows_s").c_str(),
                  ratio(it->second.rows, it->second.busy_s) / 1e6);
    }
  }

  void probe(Report& out) override {
    // Cold planning per shape: plan_hybrid is the pure planner behind the
    // PlanCache, so every call is a miss's worth of work.
    // One call takes tens of ns, so each sample times a batch of calls.
    for (const auto& s : shapes_) {
      constexpr int kCalls = 100;
      std::vector<double> us;
      for (int batch = 0; batch < 20; ++batch) {
        bool same_k = true;
        const auto t0 = Clock::now();
        for (int i = 0; i < kCalls; ++i) {
          same_k &=
              gpu::plan_hybrid(dev_, s.m, s.n, sizeof(double), {}).k == s.k;
        }
        us.push_back(ms_since(t0) * 1e3 / kCalls);
        tally_.op(same_k, s.name + ": plan_hybrid k");
      }
      out.add("gpu_solvers.plan_us." + s.name, median(us), "us");
    }

    // The registry's fresh copy: run_solver minus an in-place hybrid_solve
    // of the same batch.
    const Shape& big = shapes_.back();
    for (const Mode& m : {kModes[0], kModes[2]}) {
      std::vector<double> registry_ms, inplace_ms;
      for (int i = 0; i < 3; ++i) {
        gpu::SolveOutcome out_r;
        tridiag::SystemBatch<double> sol;
        registry_ms.push_back(solve(big, m, out_r, sol));
        tally_.op(matches(big, m, out_r, sol), big.name + ": registry probe");

        tridiag::SystemBatch<double> work = big.input.clone();
        const gpusim::ScopedInstrumentMode mode(m.mode);
        const auto t0 = Clock::now();
        gpu::hybrid_solve(dev_, work, {});
        inplace_ms.push_back(ms_since(t0));
        tally_.op(std::memcmp(work.d().data(), big.ref.data(),
                              big.ref.size() * sizeof(double)) == 0,
                  big.name + ": in-place hybrid_solve differs from run_solver");
      }
      out.add(std::string("gpu_solvers.registry_ms.") + m.name,
              median(registry_ms) - median(inplace_ms), "ms");
    }

    // Engine pool scaling of one exact-mode pass.
    const std::vector<std::size_t> counts = {
        1, std::min<std::size_t>(2, nproc()), nproc()};
    std::vector<double> pass_ms;
    for (const std::size_t t : counts) {
      const gpusim::ScopedSimThreads threads(t);
      Phase ph;
      for (int i = 0; i < 2; ++i) pass(ph, std::span(kModes, 1));
      pass_ms.push_back(median(ph.op_ms));
    }
    out.add("gpusim.pool_speedup.solve_mix.t2", ratio(pass_ms[0], pass_ms[1]),
            "x");
    out.add("gpusim.pool_speedup.solve_mix.nproc",
            ratio(pass_ms[0], pass_ms[2]), "x");
  }

 private:
  struct Shape {
    std::string name;
    std::size_t m = 0, n = 0;
    unsigned k = 0;  ///< transition point the planner picks for the shape
    int reps = 1;    ///< solves per pass
    tridiag::SystemBatch<double> input;
    std::vector<double> ref;  ///< checked exact-mode solution (d array)
    double sim_us = 0.0;      ///< simulated time of one solve
  };
  struct ModeStats {
    double busy_s = 0, rows = 0, blocks = 0, vector_blocks = 0;
  };
  struct Stats {
    std::map<std::string, std::vector<double>> call_ms;  ///< shape.mode
    std::map<std::string, ModeStats> modes;
    TimelineCosts exact_pass;  ///< one exact pass (identical every pass)
  };

  /// `k` is the transition point of the shape's Table III regime.
  void add_shape(std::string name, std::size_t m, std::size_t n, unsigned k,
                 int reps) {
    Shape s;
    s.name = std::move(name);
    s.m = m;
    s.n = n;
    s.reps = reps;
    // Interleaved for pure p-Thomas, contiguous when tiled PCR leads (the
    // paper's setup).
    const auto planned = gpu::plan_hybrid(dev_, m, n, sizeof(double), {});
    if (planned.k != k) {
      std::fprintf(stderr,
                   "perfbench: %s plans k=%u, not k=%u: it left its regime\n",
                   s.name.c_str(), planned.k, k);
    }
    s.k = planned.k;
    const auto layout = planned.k == 0 ? tridiag::Layout::interleaved
                                       : tridiag::Layout::contiguous;
    s.input = workloads::make_batch<double>(workloads::Kind::random_dominant, m,
                                            n, layout,
                                            derive(seed_, shapes_.size()));
    shapes_.push_back(std::move(s));
  }

  /// One timed run_solver call; returns host ms.
  double solve(const Shape& s, const Mode& mode, gpu::SolveOutcome& out,
               tridiag::SystemBatch<double>& sol) const {
    gpu::SolverRunOptions opts;
    opts.instrument = mode.mode;
    obs::SpanScope span("bench.run_solver");
    span.attr("shape", obs::JsonValue(s.name));
    span.attr("mode", obs::JsonValue(mode.name));
    const auto t0 = Clock::now();
    out = gpu::run_solver(gpu::SolverKind::hybrid, dev_, s.input, opts, &sol);
    return ms_since(t0);
  }

  /// The output check of every timed solve: bitwise the checked reference
  /// solution, and (timed modes) the reference's simulated time and plan.
  /// Functional-mode runs report supported = false by design.
  bool matches(const Shape& s, const Mode& mode, const gpu::SolveOutcome& out,
               const tridiag::SystemBatch<double>& sol) const {
    const bool timed = mode.mode != InstrumentMode::functional_only;
    bool ok = timed ? out.supported && out.k == static_cast<int>(s.k) &&
                          out.time_us == s.sim_us
                    : !out.supported && !out.bad_argument && !out.launch_failed;
    ok = ok && sol.num_systems() == s.m && sol.system_size() == s.n &&
         sol.layout() == s.input.layout();
    return ok && std::memcmp(sol.d().data(), s.ref.data(),
                             s.ref.size() * sizeof(double)) == 0;
  }

  /// The first solve of each shape in every mode: the exact solution is
  /// checked by relative residual and becomes the reference the sampled
  /// and functional solutions (and every later solve) must equal bitwise.
  void first_solves(Shape& s) {
    gpu::SolveOutcome out;
    tridiag::SystemBatch<double> sol;
    solve(s, kModes[0], out, sol);
    bool ok = out.supported && out.k == static_cast<int>(s.k) &&
              sol.num_systems() == s.m && sol.system_size() == s.n;
    for (std::size_t j = 0; ok && j < s.m; ++j) {
      const double rel = tridiag::relative_residual(
          std::as_const(s.input).system(j), std::as_const(sol).system(j).d);
      ok = rel <= 1e-12;
    }
    tally_.op(ok, s.name + ": exact solve residual");
    s.ref.assign(sol.d().begin(), sol.d().end());
    s.sim_us = out.time_us;
    for (const Mode& m : {kModes[1], kModes[2]}) {
      solve(s, m, out, sol);
      tally_.op(matches(s, m, out, sol),
                s.name + ": " + m.name + " differs from exact");
    }
  }

  /// One pass: every shape `reps` times in each of `modes`.
  void pass(Phase& ph, std::span<const Mode> modes) {
    static const auto blocks = obs::counter_handle("gpusim.blocks");
    static const auto vector_blocks =
        obs::counter_handle("gpusim.vector.blocks");
    obs::SpanScope span("bench.solve_mix.pass");
    double pass_ms = 0.0, pass_rows = 0.0;
    double exact_sim_us = 0.0;
    TimelineCosts exact_costs;
    gpu::SolveOutcome out;
    tridiag::SystemBatch<double> sol;
    for (const Mode& m : modes) {
      ModeStats& ms = stats_.modes[m.name];
      for (const auto& s : shapes_) {
        for (int r = 0; r < s.reps; ++r) {
          const double b0 = blocks.value(), v0 = vector_blocks.value();
          const double t = solve(s, m, out, sol);
          const bool ok = matches(s, m, out, sol);
          tally_.op(ok, s.name + ": " + m.name + " solve");
          const double rows = static_cast<double>(s.m * s.n);
          ms.busy_s += t / 1e3;
          ms.rows += rows;
          ms.blocks += blocks.value() - b0;
          ms.vector_blocks += vector_blocks.value() - v0;
          stats_.call_ms[s.name + "." + m.name].push_back(t);
          pass_ms += t;
          ++ph.sent;
          if (ok) {
            pass_rows += rows;
            ++ph.slo_ok;
          }
          if (m.mode == InstrumentMode::exact) {
            exact_sim_us += out.time_us;
            exact_costs.add(out.timeline);
          }
        }
      }
    }
    ph.op_ms.add(pass_ms);
    ph.mrows_s.push_back(pass_rows / pass_ms / 1e3);
    ph.sim_us = exact_sim_us;
    stats_.exact_pass = exact_costs;
  }

  std::uint64_t seed_;
  Tally& tally_;
  gpusim::DeviceSpec dev_ = gpusim::gtx480();
  std::vector<Shape> shapes_;
  Stats stats_;
  PhaseCounters counters_;
};

// ---------------------------------------------------------------------------
// adi_heat: AdiIntegrator<double> stepping the discrete eigenmode
// sin(pi x) sin(pi y), whose exact decay checks every step.

class AdiHeat final : public Workload {
 public:
  AdiHeat(std::uint64_t seed, Tally& tally) : seed_(seed), tally_(tally) {}

  [[nodiscard]] const char* name() const noexcept override {
    return "adi_heat";
  }
  [[nodiscard]] std::size_t sim_threads() const noexcept override {
    return nproc();
  }

  void setup() override {
    gpusim::ExecutionEngine::instance().set_threads(sim_threads());
    util::Xoshiro256 rng(derive(seed_, 0));
    amplitude_ = util::uniform(rng, 0.5, 2.0);
    const double h = 1.0 / static_cast<double>(kGrid + 1);
    mode_.resize(kGrid * kGrid);
    for (std::size_t j = 0; j < kGrid; ++j) {
      for (std::size_t i = 0; i < kGrid; ++i) {
        mode_[j * kGrid + i] =
            std::sin(std::numbers::pi * static_cast<double>(i + 1) * h) *
            std::sin(std::numbers::pi * static_cast<double>(j + 1) * h);
      }
    }
    // Each half-step multiplies the mode by (1 - 4r s^2) / (1 + 4r s^2),
    // s = sin(pi h / 2).
    const double r = apps::AdiOptions{}.r;
    const double s2 = std::pow(std::sin(std::numbers::pi * h / 2.0), 2);
    half_step_factor_ = (1.0 - 4.0 * r * s2) / (1.0 + 4.0 * r * s2);
    field_.resize(mode_.size());
    for (std::size_t i = 0; i < mode_.size(); ++i) {
      field_[i] = amplitude_ * mode_[i];
    }
    steps_ = 0;
    gpu::PlanCache::instance().clear();
    adi_ = std::make_unique<apps::AdiIntegrator<double>>(gpusim::gtx480(),
                                                         kGrid, kGrid);
    Phase first;
    step(first);
    sim_us_ = first.sim_us;
  }

  Phase run(double seconds) override {
    Phase ph;
    const CounterSnapshot before;
    const auto t0 = Clock::now();
    do {
      step(ph);
    } while (!phase_over(t0, seconds));
    counters_ = PhaseCounters::between(before, CounterSnapshot());
    return ph;
  }

  void layer_metrics(Report& out) override {
    out.add("gpu_solvers.plan_hit_ratio.adi_heat", counters_.plan_hit_ratio(),
            "ratio");
    out.add("gpu_solvers.launches.adi_heat", step_costs_.launches, "count");
    out.add("gpusim.transactions.adi_heat", step_costs_.transactions, "count");
    out.add("gpusim.bytes_computed.adi_heat",
            step_costs_.transactions *
                static_cast<double>(gpusim::gtx480().transaction_bytes),
            "bytes");
    out.add("gpu_solvers.sim_us.transpose",
            step_costs_.sim_with_prefix("transpose"), "sim_us");
  }

  void describe(const Phase& p) const override {
    std::printf("  adi_heat: %zux%zu grid, steps=%zu\n", kGrid, kGrid,
                p.op_ms.count());
    std::printf("  %-44s %.6g ms\n", "adi_step_ms", median(p.op_ms));
  }

  void probe(Report& out) override {
    const gpusim::DeviceSpec dev = gpusim::gtx480();
    const double r = apps::AdiOptions{}.r;
    // The x-sweep batch of one step, solved on its own.
    tridiag::SystemBatch<double> batch(kGrid, kGrid,
                                       tridiag::Layout::contiguous);
    util::Xoshiro256 rng(derive(seed_, 1));
    for (std::size_t m = 0; m < kGrid; ++m) {
      auto sys = batch.system(m);
      for (std::size_t i = 0; i < kGrid; ++i) {
        sys.a[i] = i == 0 ? 0.0 : -r;
        sys.b[i] = 1.0 + 2.0 * r;
        sys.c[i] = i + 1 == kGrid ? 0.0 : -r;
        sys.d[i] = util::uniform(rng, -1.0, 1.0);
      }
    }
    std::vector<double> solve_ms;
    for (int i = 0; i < 5; ++i) {
      tridiag::SystemBatch<double> work = batch.clone();
      obs::SpanScope span("bench.adi_heat.solve");
      const auto t0 = Clock::now();
      gpu::hybrid_solve(dev, work, {});
      solve_ms.push_back(ms_since(t0));
      bool ok = true;
      for (std::size_t m = 0; ok && m < kGrid; ++m) {
        ok = tridiag::relative_residual(std::as_const(batch).system(m),
                                        std::as_const(work).system(m).d) <=
             1e-12;
      }
      tally_.op(ok, "adi_heat: sweep solve residual");
    }
    out.add("gpu_solvers.adi_solve_ms", median(solve_ms), "ms");

    std::vector<double> in(kGrid * kGrid), tr(kGrid * kGrid);
    util::fill_uniform(rng, std::span<double>(in), -1.0, 1.0);
    std::vector<double> transpose_ms;
    for (int i = 0; i < 5; ++i) {
      obs::SpanScope span("bench.adi_heat.transpose");
      const auto t0 = Clock::now();
      gpu::transpose<double>(dev, in.data(), tr.data(), kGrid, kGrid);
      transpose_ms.push_back(ms_since(t0));
      bool ok = true;
      for (std::size_t row = 0; ok && row < kGrid; ++row) {
        for (std::size_t col = 0; col < kGrid; ++col) {
          ok = ok && tr[col * kGrid + row] == in[row * kGrid + col];
        }
      }
      tally_.op(ok, "adi_heat: transpose output");
    }
    out.add("gpu_solvers.adi_transpose_ms", median(transpose_ms), "ms");

    // Engine pool scaling of one step.
    const std::vector<std::size_t> counts = {
        1, std::min<std::size_t>(2, nproc()), nproc()};
    std::vector<double> step_ms;
    for (const std::size_t t : counts) {
      const gpusim::ScopedSimThreads threads(t);
      Phase ph;
      for (int i = 0; i < 3; ++i) step(ph);
      step_ms.push_back(median(ph.op_ms));
    }
    out.add("gpusim.pool_speedup.adi_heat.t2", ratio(step_ms[0], step_ms[1]),
            "x");
    out.add("gpusim.pool_speedup.adi_heat.nproc", ratio(step_ms[0], step_ms[2]),
            "x");
  }

 private:
  static constexpr std::size_t kGrid = 384;

  /// One timed step, then the check against the exact discrete decay.
  void step(Phase& ph) {
    apps::AdiStepReport rep;
    double t = 0.0;
    {
      obs::SpanScope span("bench.adi_heat.step");
      const auto t0 = Clock::now();
      rep = adi_->step(field_);
      t = ms_since(t0);
    }
    ++steps_;
    const double amp = amplitude_ * std::pow(half_step_factor_,
                                             2.0 * static_cast<double>(steps_));
    bool ok = sim_us_ == 0.0 || rep.total_us() == sim_us_;
    for (std::size_t i = 0; ok && i < field_.size(); ++i) {
      ok = std::abs(field_[i] - amp * mode_[i]) <= 1e-9 * amp;
    }
    tally_.op(ok, "adi_heat: step " + std::to_string(steps_) +
                      " departs from the eigenmode's exact decay");
    ph.op_ms.add(t);
    ++ph.sent;
    ph.mrows_s.push_back(ok ? 2.0 * static_cast<double>(kGrid * kGrid) / t / 1e3
                            : 0.0);
    if (ok) ++ph.slo_ok;
    ph.sim_us = rep.total_us();
    step_costs_ = {};
    step_costs_.add(rep.timeline);
  }

  std::uint64_t seed_;
  Tally& tally_;
  std::unique_ptr<apps::AdiIntegrator<double>> adi_;
  std::vector<double> field_, mode_;
  double amplitude_ = 1.0;
  double half_step_factor_ = 1.0;
  double sim_us_ = 0.0;
  std::size_t steps_ = 0;
  TimelineCosts step_costs_;  ///< of the last step (identical every step)
  PhaseCounters counters_;
};

// ---------------------------------------------------------------------------
// The service workloads: one client thread against a default-config
// SolveService. Requests carry no deadline and the service has no admission
// bound, so by design nothing is shed or expires.

class ServiceWorkload : public Workload {
 public:
  [[nodiscard]] std::size_t sim_threads() const noexcept override {
    // The batcher launches on its own thread plus pool workers; with the
    // client that is sim_threads + 1 busy threads.
    return std::clamp<std::size_t>(nproc() - 1, 1, 2);
  }

  void setup() override {
    svc_.reset();
    gpusim::ExecutionEngine::instance().set_threads(sim_threads());
    util::Xoshiro256 rng(derive(seed_, 0));
    pools_.clear();
    for (const std::size_t n : sizes_) {
      Pool p;
      p.n = n;
      for (std::size_t i = 0; i < kPoolSize; ++i) {
        p.systems.push_back(workloads::make_request_system(
            workloads::Kind::random_dominant, n, rng));
        auto work = p.systems.back().clone();
        std::vector<double> x(n);
        const tridiag::StridedView<double> xv{std::span<double>(x)};
        if (!tridiag::thomas_solve(work.ref(), xv).ok()) {
          throw std::runtime_error("host reference solve of a request failed");
        }
        p.x_ref.push_back(std::move(x));
      }
      pools_.push_back(std::move(p));
    }
    gpu::PlanCache::instance().clear();
    svc_ = std::make_unique<service::SolveService>(service::ServiceConfig{});
    begin_phase();
    record(submit(prepare(0, 0)).get(), 0, 0);
  }

  void layer_metrics(Report& out) override {
    const std::string w = name();
    out.add("service.submit_us." + w, median(submit_us_), "us");
    out.add("service.queue_us." + w, median(queue_us_), "us");
    out.add("service.dispatch_us." + w, median(dispatch_us_), "us");
    out.add("service.batch_occupancy." + w,
            ratio(static_cast<double>(ok_),
                  static_cast<double>(svc_->batches_launched() - batches0_)),
            "req/batch");
    out.add("service.sim_us_per_req." + w,
            ratio(sim_total_us_, static_cast<double>(ok_)), "sim_us");
    out.add("service.failed." + w, static_cast<double>(failed_), "count");
    out.add("service.retried." + w,
            static_cast<double>(svc_->requests_retried() - retried0_), "count");
    out.add("gpu_solvers.plan_hit_ratio." + w,
            PhaseCounters::between(*counters0_, CounterSnapshot())
                .plan_hit_ratio(),
            "ratio");
  }

 protected:
  static constexpr std::size_t kPoolSize = 64;

  ServiceWorkload(std::uint64_t seed, Tally& tally,
                  std::vector<std::size_t> sizes)
      : seed_(seed), tally_(tally), sizes_(std::move(sizes)) {}

  struct Pool {
    std::size_t n = 0;
    std::vector<tridiag::TridiagSystem<double>> systems;
    std::vector<std::vector<double>> x_ref;  ///< host Thomas solution
  };

  /// Copy of a pooled system, ready to submit.
  [[nodiscard]] service::SolveRequest prepare(std::size_t pool,
                                              std::size_t idx) const {
    service::SolveRequest req;
    req.system = pools_[pool].systems[idx].clone();
    return req;
  }

  std::future<service::SolveResult> submit(service::SolveRequest req) {
    obs::SpanScope span("bench.submit");
    const auto t0 = Clock::now();
    auto f = svc_->submit(std::move(req));
    if (layers_) submit_us_.push_back(seconds_between(t0, Clock::now()) * 1e6);
    return f;
  }

  /// Check one result (ok, and x matches the host Thomas solution) and
  /// record its layer figures. Returns whether it passed.
  bool record(const service::SolveResult& r, std::size_t pool,
              std::size_t idx) {
    const auto& ref = pools_[pool].x_ref[idx];
    bool ok = r.code == tridiag::SolveCode::ok && r.x.size() == ref.size();
    double scale = 1.0;
    for (const double v : ref) scale = std::max(scale, std::abs(v));
    for (std::size_t i = 0; ok && i < ref.size(); ++i) {
      ok = std::abs(r.x[i] - ref[i]) <= 1e-9 * scale;
    }
    tally_.op(ok, std::string(name()) + ": request (N=" +
                      std::to_string(ref.size()) + ") returned " +
                      tridiag::solve_code_name(r.code) +
                      (r.code == tridiag::SolveCode::ok ? " with a wrong x"
                                                        : ""));
    if (!ok) {
      ++failed_;
      return false;
    }
    ++ok_;
    if (layers_) {
      queue_us_.push_back(r.queue_us);
      dispatch_us_.push_back(r.latency_us - r.queue_us);
    }
    if (batches_.insert(r.batch_id).second) sim_total_us_ += r.solve_us;
    return true;
  }

  /// Start a phase's tallies. Per-request layer samples are kept only in
  /// the traced run, so that the untraced run's peak RSS is the service's.
  void begin_phase() {
    layers_ = obs::SpanTracer::instance().enabled();
    submit_us_.clear();
    queue_us_.clear();
    dispatch_us_.clear();
    batches_.clear();
    ok_ = failed_ = 0;
    sim_total_us_ = 0.0;
    batches0_ = svc_->batches_launched();
    retried0_ = svc_->requests_retried();
    counters0_.emplace();
  }

  [[nodiscard]] double sim_us_per_ok() const {
    return ratio(sim_total_us_, static_cast<double>(ok_));
  }

  std::uint64_t seed_;
  Tally& tally_;
  std::vector<std::size_t> sizes_;
  std::vector<Pool> pools_;
  std::unique_ptr<service::SolveService> svc_;

 private:
  bool layers_ = false;
  std::vector<double> submit_us_, queue_us_, dispatch_us_;
  std::unordered_set<std::uint64_t> batches_;
  std::size_t ok_ = 0, failed_ = 0;
  double sim_total_us_ = 0.0;
  std::uint64_t batches0_ = 0, retried0_ = 0;
  std::optional<CounterSnapshot> counters0_;
};

/// svc_open: independent clients at light load — one thread sends on a
/// seeded Poisson schedule, and latency counts from each request's due time.
class SvcOpen final : public ServiceWorkload {
 public:
  SvcOpen(std::uint64_t seed, Tally& tally)
      : ServiceWorkload(seed, tally, {128}) {}

  [[nodiscard]] const char* name() const noexcept override {
    return "svc_open";
  }

  Phase run(double seconds) override {
    begin_phase();
    lag_us_ = {};
    Phase ph;
    workloads::TrafficConfig tc;
    tc.rate_rps = kRateRps;
    tc.requests = static_cast<std::size_t>(kRateRps * seconds * 1.5) + 64;
    tc.seed = derive(seed_, ++phases_);
    const auto arrivals = workloads::arrival_times_us(tc);
    util::Xoshiro256 pick(derive(seed_, 1000 + phases_));

    struct InFlight {
      std::future<service::SolveResult> f;
      double lateness_us = 0.0;
      std::size_t idx = 0;
    };
    std::deque<InFlight> inflight;
    const auto t0 = Clock::now() + std::chrono::milliseconds(1);
    RowWindows done(t0);
    auto t_last_send = t0;
    const auto poll = [&] {
      for (auto it = inflight.begin(); it != inflight.end();) {
        if (it->f.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++it;
          continue;
        }
        const service::SolveResult r = it->f.get();
        const double latency_ms = (it->lateness_us + r.latency_us) / 1e3;
        ph.op_ms.add(latency_ms);
        if (record(r, 0, it->idx)) {
          done.add(static_cast<double>(pools_[0].n));
          if (latency_ms <= kSloMs) ++ph.slo_ok;
        }
        it = inflight.erase(it);
      }
    };

    for (std::size_t i = 0; i < arrivals.size() && arrivals[i] < seconds * 1e6;
         ++i) {
      const auto idx = static_cast<std::size_t>(
          util::uniform_int(pick, 0, static_cast<std::int64_t>(kPoolSize) - 1));
      service::SolveRequest req = prepare(0, idx);
      const auto due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::micro>(arrivals[i]));
      // Busy-wait: sleeping until the due time oversleeps by milliseconds.
      while (Clock::now() < due) poll();
      const double lateness_us = seconds_between(due, Clock::now()) * 1e6;
      lag_us_.add(lateness_us);
      inflight.push_back({submit(std::move(req)), lateness_us, idx});
      t_last_send = Clock::now();
      ++ph.sent;
      if (phase_over(t0, seconds)) break;
    }
    while (!inflight.empty()) poll();
    ph.mrows_s = done.mrows_s(t_last_send);
    ph.sim_us = sim_us_per_ok();
    return ph;
  }

  void layer_metrics(Report& out) override {
    ServiceWorkload::layer_metrics(out);
    out.add("service.gen_lag_p99_us", percentile(lag_us_.kept(), 99.0), "us");
  }

  void describe(const Phase& p) const override {
    std::printf("  svc_open: %.0f rps offered, N=%zu, sent=%zu\n", kRateRps,
                pools_[0].n, p.sent);
    std::printf("  %-44s %.6g ms\n", "svc_p50_ms", median(p.op_ms));
    std::printf("  %-44s %.6g share\n", "svc_slo_share",
                ratio(static_cast<double>(p.slo_ok),
                      static_cast<double>(p.sent)));
    std::printf("  %-44s p50=%.6g p99=%.6g us\n", "generator lateness",
                percentile(lag_us_.kept(), 50.0),
                percentile(lag_us_.kept(), 99.0));
  }

 private:
  static constexpr double kRateRps = 2000.0;
  static constexpr double kSloMs = 2.0;

  Samples lag_us_;
  std::uint64_t phases_ = 0;
};

/// svc_closed: the saturated service — one thread keeps exactly
/// kOutstanding requests in flight, sizes drawn uniformly from four N.
class SvcClosed final : public ServiceWorkload {
 public:
  SvcClosed(std::uint64_t seed, Tally& tally)
      : ServiceWorkload(seed, tally, {64, 128, 256, 512}) {}

  [[nodiscard]] const char* name() const noexcept override {
    return "svc_closed";
  }

  Phase run(double seconds) override {
    begin_phase();
    ok_in_window_ = 0;
    Phase ph;
    util::Xoshiro256 pick(derive(seed_, 2000 + ++phases_));
    struct Slot {
      std::future<service::SolveResult> f;
      std::size_t pool = 0, idx = 0;
    };
    // Outstanding requests in submission order. The batcher opens every
    // batch at its oldest pending request, so the front request is in the
    // next batch to finish: the client sleeps on it instead of polling, and
    // leaves its core to the batcher and the pool.
    std::deque<Slot> outstanding, pending;
    const auto send = [&] {
      Slot s;
      s.pool = static_cast<std::size_t>(util::uniform_int(
          pick, 0, static_cast<std::int64_t>(pools_.size()) - 1));
      s.idx = static_cast<std::size_t>(
          util::uniform_int(pick, 0, static_cast<std::int64_t>(kPoolSize) - 1));
      s.f = submit(prepare(s.pool, s.idx));
      outstanding.push_back(std::move(s));
      ++ph.sent;
    };

    const auto t0 = Clock::now();
    RowWindows done(t0);
    for (std::size_t i = 0; i < kOutstanding; ++i) send();
    bool open = true;
    auto t_end = t0;
    while (!outstanding.empty()) {
      outstanding.front().f.wait();
      if (open && phase_over(t0, seconds)) {
        open = false;
        t_end = Clock::now();
      }
      std::size_t completed = 0;
      pending.clear();
      for (Slot& s : outstanding) {
        if (s.f.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          pending.push_back(std::move(s));
          continue;
        }
        const service::SolveResult r = s.f.get();
        ++completed;
        const bool ok = record(r, s.pool, s.idx);
        if (ok) ++ph.slo_ok;
        if (open) {
          ph.op_ms.add(r.latency_us / 1e3);
          if (ok) {
            done.add(static_cast<double>(pools_[s.pool].n));
            ++ok_in_window_;
          }
        }
      }
      outstanding.swap(pending);
      if (open) {
        for (std::size_t i = 0; i < completed; ++i) send();
      }
    }
    window_s_ = seconds_between(t0, t_end);
    ph.mrows_s = done.mrows_s(t_end);
    ph.sim_us = sim_us_per_ok();
    return ph;
  }

  // A fresh closed loop has run at a third of its steady rate for up to a
  // second, so the timed phases follow a second of untimed load.
  void warm_up() override { run(kWarmUpS); }

  void layer_metrics(Report& out) override {
    ServiceWorkload::layer_metrics(out);
    const auto guard = obs::MetricsRegistry::instance()
                           .histogram("solver.guard.wall_us")
                           .snapshot();
    out.add("gpu_solvers.guard_us", guard.p50, "us");
  }

  void describe(const Phase& p) const override {
    std::printf(
        "  svc_closed: %zu outstanding, N in {64,128,256,512}, sent=%zu\n",
        kOutstanding, p.sent);
    std::printf("  %-44s %.6g 1/s\n", "svc_rps",
                ratio(static_cast<double>(ok_in_window_), window_s_));
  }

 private:
  static constexpr std::size_t kOutstanding = 256;
  static constexpr double kWarmUpS = 1.0;
  std::uint64_t phases_ = 0;
  std::size_t ok_in_window_ = 0;
  double window_s_ = 0.0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"solve_mix", "adi_heat",
                                                 "svc_open", "svc_closed"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Tally& tally) {
  if (name == "solve_mix") return std::make_unique<SolveMix>(seed, tally);
  if (name == "adi_heat") return std::make_unique<AdiHeat>(seed, tally);
  if (name == "svc_open") return std::make_unique<SvcOpen>(seed, tally);
  if (name == "svc_closed") return std::make_unique<SvcClosed>(seed, tally);
  return nullptr;
}

}  // namespace perfbench
