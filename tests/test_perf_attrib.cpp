// Performance-attribution layer tests: log-bucketed latency histograms
// (obs/histogram.hpp), the metrics registry's histogram group and its
// snapshot-vs-concurrent-writer safety, causal span tracing
// (obs/span_tracer.hpp) through the launch engine and the resilient
// pipeline, span export to Chrome traces, roofline attribution
// (obs/roofline.hpp), and the Prometheus text writer.
//
// The load-bearing claim pinned throughout: observation is read-only.
// Solver outputs and simulated times are bit-identical with tracing on
// and off, because every tracer call no-ops when disabled and only
// wall-clock bookkeeping happens when enabled.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gpu_solvers/registry.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/exec_engine.hpp"
#include "gpusim/fault_injector.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/roofline.hpp"
#include "obs/span_tracer.hpp"
#include "tridiag/layout.hpp"
#include "tridiag/residual.hpp"
#include "workloads/generators.hpp"

namespace obs = tridsolve::obs;
namespace gs = tridsolve::gpusim;
namespace gp = tridsolve::gpu;
namespace td = tridsolve::tridiag;
namespace wl = tridsolve::workloads;

namespace {

/// RAII guard: tracing enabled on a fresh tracer for the scope, disabled
/// (and drained) after, so tests cannot leak spans into one another.
struct ScopedTracing {
  ScopedTracing() {
    obs::SpanTracer::instance().reset();
    obs::SpanTracer::instance().set_enabled(true);
  }
  ~ScopedTracing() {
    obs::SpanTracer::instance().set_enabled(false);
    obs::SpanTracer::instance().reset();
  }
};

bool batch_bits_equal(const td::SystemBatch<double>& a,
                      const td::SystemBatch<double>& b) {
  for (std::size_t m = 0; m < a.num_systems(); ++m) {
    const auto xa = td::as_const(a.system(m)).d;
    const auto xb = td::as_const(b.system(m)).d;
    for (std::size_t i = 0; i < a.system_size(); ++i) {
      std::uint64_t ua = 0, ub = 0;
      const double va = xa[i], vb = xb[i];
      std::memcpy(&ua, &va, sizeof va);
      std::memcpy(&ub, &vb, sizeof vb);
      if (ua != ub) return false;
    }
  }
  return true;
}

const obs::JsonValue* find_attr(const obs::Span& s, const char* key) {
  for (const auto& [k, v] : s.attrs) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace

// ---- LogHistogram ----------------------------------------------------

TEST(Histogram, BucketIndexMonotoneAndBoundsContain) {
  int prev = 0;
  for (double v = 1.0 / 4096.0; v < 1e9; v *= 1.37) {
    const int idx = obs::LogHistogram::bucket_index(v);
    ASSERT_GE(idx, prev) << "bucket index must be monotone in value";
    ASSERT_LT(idx, obs::LogHistogram::kBuckets);
    if (v > obs::LogHistogram::kMinTrackable) {
      ASSERT_GE(obs::LogHistogram::bucket_upper_bound(idx), v)
          << "value " << v << " above its bucket's upper bound";
    }
    prev = idx;
  }
}

TEST(Histogram, QuantilesWithinSubBucketError) {
  obs::LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.sum, 500500.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_DOUBLE_EQ(s.mean(), 500.5);
  // 8 linear sub-buckets per octave: a quantile overshoots the true rank
  // value by at most 1/8 of an octave (12.5%) and never undershoots.
  EXPECT_GE(s.p50, 500.0);
  EXPECT_LE(s.p50, 500.0 * 1.126);
  EXPECT_GE(s.p90, 900.0);
  EXPECT_LE(s.p90, 900.0 * 1.126);
  EXPECT_GE(s.p99, 990.0);
  EXPECT_LE(s.p99, 1000.0);  // clamped to the observed max
}

TEST(Histogram, DropsNegativesAndNaNKeepsZeroAndTiny) {
  obs::LogHistogram h;
  h.record(-1.0);
  h.record(std::nan(""));
  EXPECT_EQ(h.count(), 0u);
  h.record(0.0);
  h.record(1e-9);  // below kMinTrackable: lands in bucket 0, still counted
  EXPECT_EQ(h.count(), 2u);
  const auto s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_LE(s.p99, obs::LogHistogram::bucket_upper_bound(0));
}

TEST(Histogram, ResetClears) {
  obs::LogHistogram h;
  h.record(5.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  h.record(2.0);  // usable after reset, min re-seeds
  EXPECT_DOUBLE_EQ(h.snapshot().min, 2.0);
}

// ---- MetricsRegistry histogram group ---------------------------------

TEST(Metrics, HistogramsRegisterSnapshotAndSerialize) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  obs::observe("test.latency_us", 10.0);
  obs::observe("test.latency_us", 20.0);
  auto handle = obs::histogram_handle("test.latency_us");
  ASSERT_TRUE(handle.valid());
  handle.record(30.0);

  const auto snaps = reg.histograms();
  ASSERT_EQ(snaps.count("test.latency_us"), 1u);
  EXPECT_EQ(snaps.at("test.latency_us").count, 3u);
  EXPECT_DOUBLE_EQ(snaps.at("test.latency_us").sum, 60.0);

  const obs::JsonValue doc = reg.to_json();
  const obs::JsonValue* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  const obs::JsonValue* entry = hists->find("test.latency_us");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->find("count")->as_number(), 3.0);
  for (const char* key : {"sum", "min", "max", "mean", "p50", "p90", "p99"}) {
    EXPECT_NE(entry->find(key), nullptr) << key;
  }
  reg.reset();
  EXPECT_EQ(reg.histograms().count("test.latency_us"), 0u)
      << "reset must clear histogram samples";
}

// Snapshot paths (counters()/histograms()/to_json()) must be safe against
// concurrent writers: totals observed mid-flight may lag, but nothing
// tears, and after joining the writers every count is exact. Run under
// TSan/ASan via the sanitize label.
TEST(Metrics, SnapshotsRaceCleanlyWithConcurrentWriters) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&go] {
      while (!go.load(std::memory_order_acquire)) {
      }
      auto ctr = obs::counter_handle("race.counter");
      auto hist = obs::histogram_handle("race.hist");
      for (int i = 0; i < kIters; ++i) {
        ctr.add(1.0);
        hist.record(static_cast<double>(i % 100));
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Snapshot while the writers hammer: values must parse and be sane.
  for (int i = 0; i < 50; ++i) {
    const auto counters = reg.counters();
    const auto it = counters.find("race.counter");
    if (it != counters.end()) {
      EXPECT_GE(it->second, 0.0);
      EXPECT_LE(it->second, 1.0 * kThreads * kIters);
    }
    (void)reg.to_json();
    (void)reg.histograms();
  }
  for (auto& w : writers) w.join();
  EXPECT_DOUBLE_EQ(reg.counters().at("race.counter"),
                   1.0 * kThreads * kIters);
  EXPECT_EQ(reg.histograms().at("race.hist").count,
            static_cast<std::uint64_t>(kThreads) * kIters);
  reg.reset();
}

// ---- SpanTracer ------------------------------------------------------

TEST(SpanTracer, DisabledIsInert) {
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  tracer.reset();
  ASSERT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.reserve_id(), 0u);
  {
    obs::SpanScope scope("noop");
    scope.attr("k", obs::JsonValue(1));
  }
  EXPECT_EQ(tracer.span_count(), 0u);
  tracer.advance_sim(100.0);
  EXPECT_DOUBLE_EQ(tracer.sim_now(), 0.0);
}

TEST(SpanTracer, ScopesNestAndCarryAttrs) {
  ScopedTracing tracing;
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  std::uint64_t outer_id = 0, inner_id = 0;
  {
    obs::SpanScope outer("outer");
    outer_id = outer.id();
    tracer.advance_sim(10.0);
    {
      obs::SpanScope inner("inner");
      inner_id = inner.id();
      inner.attr("cause", obs::JsonValue("test"));
      tracer.advance_sim(5.0);
    }
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);  // emitted at scope exit: inner first
  const obs::Span& inner = spans[0];
  const obs::Span& outer = spans[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.id, inner_id);
  EXPECT_EQ(inner.parent, outer_id);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_GE(inner.wall_t1_us, inner.wall_t0_us);
  EXPECT_DOUBLE_EQ(inner.sim_t0_us, 10.0);
  EXPECT_DOUBLE_EQ(inner.sim_t1_us, 15.0);
  EXPECT_DOUBLE_EQ(outer.sim_t1_us, 15.0);
  const obs::JsonValue* cause = find_attr(inner, "cause");
  ASSERT_NE(cause, nullptr);
  EXPECT_EQ(cause->as_string(), "test");
}

TEST(SpanTracer, SpanJsonIsCanonicalJsonl) {
  ScopedTracing tracing;
  {
    obs::SpanScope scope("line\n\"quoted\"");
    scope.attr("note", obs::JsonValue("π ≤ 4"));
  }
  const auto spans = obs::SpanTracer::instance().spans();
  ASSERT_EQ(spans.size(), 1u);
  const std::string json = obs::SpanTracer::span_json(spans[0]).dump();
  const auto parsed = obs::JsonValue::parse(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  EXPECT_EQ(parsed->dump(), json) << "span JSON must be canonical";
  EXPECT_EQ(parsed->find("name")->as_string(), "line\n\"quoted\"");
  EXPECT_EQ(parsed->find("attrs")->find("note")->as_string(), "π ≤ 4");
}

// ---- Chrome-trace span export ----------------------------------------

TEST(ChromeTrace, AddSpansNestsByDepthWithFlowArrows) {
  obs::MetricsRegistry::instance().reset();
  std::vector<obs::Span> spans;
  obs::Span root;
  root.id = 1;
  root.name = "root";
  root.wall_t0_us = 0.0;
  root.wall_t1_us = 100.0;
  obs::Span child;
  child.id = 2;
  child.parent = 1;
  child.name = "child \"<esc>\"\n\tπ";
  child.wall_t0_us = 10.0;
  child.wall_t1_us = 90.0;
  child.attrs.emplace_back("code", obs::JsonValue("timed_out"));
  spans.push_back(root);
  spans.push_back(child);

  obs::ChromeTraceBuilder builder("test");
  EXPECT_EQ(builder.add_spans(spans), 2u);
  const auto parsed = obs::JsonValue::parse(builder.str());
  ASSERT_TRUE(parsed.has_value());
  const auto& events = parsed->find("traceEvents")->as_array();

  double root_tid = -1, child_tid = -1;
  bool saw_flow_start = false, saw_flow_finish = false;
  for (const obs::JsonValue& ev : events) {
    const std::string ph = ev.find("ph")->as_string();
    const std::string name = ev.find("name")->as_string();
    if (ph == "X" && name == "root") root_tid = ev.find("tid")->as_number();
    if (ph == "X" && name == child.name) {
      child_tid = ev.find("tid")->as_number();
      EXPECT_EQ(ev.find("args")->find("code")->as_string(), "timed_out");
      EXPECT_EQ(ev.find("args")->find("parent")->as_number(), 1.0);
    }
    if (ph == "s") saw_flow_start = true;
    if (ph == "f") saw_flow_finish = true;
  }
  ASSERT_GE(root_tid, 0.0) << "root span event missing";
  ASSERT_GE(child_tid, 0.0) << "child span event (escaped name) missing";
  EXPECT_EQ(child_tid, root_tid + 1.0)
      << "child must render one depth-track below its parent so nested "
         "spans never overlap within a (pid, tid)";
  EXPECT_TRUE(saw_flow_start && saw_flow_finish)
      << "parent->child flow arrows missing";
}

// ---- Roofline attribution --------------------------------------------

TEST(Roofline, HandComputedAttribution) {
  const gs::DeviceSpec dev = gs::gtx480();
  gs::KernelCosts costs;
  costs.transactions = 1000;
  costs.shared_bytes = 4096;
  costs.ops_f64 = 500000;
  const double time_us = 100.0;
  const obs::RooflineAttribution a =
      obs::attribute_roofline(dev, costs, time_us);

  const double bytes = 1000.0 * dev.transaction_bytes;
  EXPECT_DOUBLE_EQ(a.bytes_global, bytes);
  EXPECT_DOUBLE_EQ(a.bytes_shared, 4096.0);
  EXPECT_DOUBLE_EQ(a.achieved_gbps, bytes / time_us / 1000.0);
  EXPECT_DOUBLE_EQ(a.peak_gbps, dev.mem_bandwidth_gbps);
  EXPECT_DOUBLE_EQ(a.frac_bandwidth, a.achieved_gbps / a.peak_gbps);
  EXPECT_DOUBLE_EQ(a.achieved_gflops, 500000.0 / time_us / 1000.0);
  EXPECT_DOUBLE_EQ(a.frac_compute,
                   a.achieved_gflops / dev.peak_gflops(/*fp64=*/true));
  EXPECT_DOUBLE_EQ(a.intensity, 500000.0 / bytes);
  EXPECT_EQ(a.bound, a.frac_compute > a.frac_bandwidth ? "compute"
                                                       : "bandwidth");
  // Serialization carries every field the validator checks.
  const obs::JsonValue j = a.to_json();
  for (const char* key :
       {"bytes_global", "bytes_shared", "flops_f32", "flops_f64",
        "achieved_gbps", "peak_gbps", "achieved_gflops", "frac_bandwidth",
        "frac_compute", "intensity", "bound", "time_us"}) {
    EXPECT_NE(j.find(key), nullptr) << key;
  }
}

TEST(Roofline, TimelineMergesSegmentsThatShareALabel) {
  const gs::DeviceSpec dev = gs::gtx480();
  gs::Timeline tl;
  gs::LaunchStats seg;
  seg.timed = true;
  seg.timing.time_us = 10.0;
  seg.costs.transactions = 100;
  seg.costs.ops_f64 = 1000;
  tl.add("pcr", seg);
  tl.add("pcr", seg);  // same label: must merge
  tl.add("thomas", seg);

  const auto roofs = obs::attribute_timeline(dev, tl);
  ASSERT_EQ(roofs.size(), 2u);
  ASSERT_EQ(roofs.count("pcr"), 1u);
  ASSERT_EQ(roofs.count("thomas"), 1u);
  EXPECT_DOUBLE_EQ(roofs.at("pcr").time_us, 20.0);
  EXPECT_DOUBLE_EQ(roofs.at("pcr").bytes_global,
                   200.0 * dev.transaction_bytes);
  EXPECT_DOUBLE_EQ(roofs.at("thomas").time_us, 10.0);
}

// ---- Read-only pin ---------------------------------------------------

TEST(ReadOnly, TracingOnVsOffIsBitIdentical) {
  const gs::DeviceSpec dev = gs::gtx480();
  const auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 12, 128,
                                            td::Layout::contiguous,
                                            /*seed=*/2026);
  td::SystemBatch<double> sol_off;
  const gp::SolveOutcome off =
      gp::run_solver<double>(gp::SolverKind::hybrid, dev, batch, {}, &sol_off);
  ASSERT_TRUE(off.supported);

  td::SystemBatch<double> sol_on;
  gp::SolveOutcome on;
  {
    ScopedTracing tracing;
    on = gp::run_solver<double>(gp::SolverKind::hybrid, dev, batch, {},
                                &sol_on);
    EXPECT_GT(obs::SpanTracer::instance().span_count(), 0u)
        << "tracing was on: launches must have produced spans";
  }
  ASSERT_TRUE(on.supported);
  EXPECT_EQ(on.time_us, off.time_us)
      << "simulated time must not move when tracing is enabled";
  EXPECT_EQ(on.launches, off.launches);
  EXPECT_TRUE(batch_bits_equal(sol_on, sol_off))
      << "solver output must be bit-identical with tracing on";
}

// ---- Resilient pipeline span tree ------------------------------------

TEST(ResilientSpans, AttemptsAreChildrenTaggedWithSolveCode) {
  auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 12, 128,
                                      td::Layout::contiguous, /*seed=*/2026);
  gs::FaultPlan plan;
  plan.pinpoint = true;
  plan.at_launch = 0;
  plan.pinpoint_kind = gs::kFaultLaunchFail;
  gs::ScopedFaultPlan fp(plan);

  ScopedTracing tracing;
  gp::ResilientOutcome ro;
  ASSERT_NO_THROW(ro = gp::run_solver_resilient<double>(
                      gp::SolverKind::hybrid, gs::gtx480(), batch));
  ASSERT_GE(ro.report.retries, 1u);

  const auto spans = obs::SpanTracer::instance().spans();
  const obs::Span* root = nullptr;
  for (const obs::Span& s : spans) {
    if (s.name == "resilient_solve") {
      ASSERT_EQ(root, nullptr) << "exactly one root span";
      root = &s;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, 0u);

  static constexpr const char* kCodes[] = {
      "ok", "near_singular", "zero_pivot", "timed_out", "launch_failed",
      "singular", "deadline", "bad_size"};
  std::size_t attempts = 0;
  bool saw_launch_failed = false;
  for (const obs::Span& s : spans) {
    if (s.name != "attempt") continue;
    ++attempts;
    EXPECT_EQ(s.parent, root->id)
        << "every attempt must be a child of the resilient_solve root";
    const obs::JsonValue* code = find_attr(s, "code");
    ASSERT_NE(code, nullptr) << "attempt span missing its SolveCode cause";
    bool known = false;
    for (const char* c : kCodes) known = known || code->as_string() == c;
    EXPECT_TRUE(known) << "unknown SolveCode name " << code->as_string();
    if (code->as_string() == "launch_failed") saw_launch_failed = true;
    EXPECT_NE(find_attr(s, "stage"), nullptr);
    EXPECT_NE(find_attr(s, "systems"), nullptr);
    EXPECT_NE(find_attr(s, "recovered"), nullptr);
    EXPECT_NE(find_attr(s, "still_flagged"), nullptr);
  }
  EXPECT_EQ(attempts, ro.report.attempts.size())
      << "one attempt span per AttemptRecord";
  EXPECT_TRUE(saw_launch_failed)
      << "the injected launch failure's attempt must carry its cause";

  // The causal chain reaches the launches: every launch span parents
  // under an attempt (GPU dispatches happen only inside attempts here).
  std::size_t launches = 0;
  for (const obs::Span& s : spans) {
    if (s.name != "launch") continue;
    ++launches;
    const obs::Span* parent = nullptr;
    for (const obs::Span& p : spans) {
      if (p.id == s.parent) parent = &p;
    }
    ASSERT_NE(parent, nullptr) << "launch span with unresolvable parent";
    EXPECT_EQ(parent->name, "attempt");
  }
  EXPECT_GT(launches, 0u);
}
