// Tests for the observability layer: the JSON document model, the
// process-wide metrics registry, the Chrome trace exporter (re-parsed and
// structurally checked against a real simulated hybrid solve), the Eq. 8-9
// redundancy accounting surfaced through metrics, the JSONL sink, and the
// declared record schema (obs/record_schema.hpp).

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "gpu_solvers/hybrid_solver.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/exec_engine.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/record_schema.hpp"
#include "obs/telemetry.hpp"
#include "tridiag/pcr.hpp"
#include "tridiag/types.hpp"
#include "workloads/generators.hpp"

namespace gp = tridsolve::gpu;
namespace gs = tridsolve::gpusim;
namespace obs = tridsolve::obs;
namespace td = tridsolve::tridiag;
namespace wl = tridsolve::workloads;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

// ---------------------------------------------------------------- JSON --

TEST(Json, BuildDumpParseRoundtrip) {
  obs::JsonValue v = obs::JsonValue::object();
  v["name"] = "tile \"window\"\n";
  v["count"] = 42;
  v["ratio"] = 0.375;
  v["flag"] = true;
  v["nothing"] = nullptr;
  v["list"].push_back(1);
  v["list"].push_back("two");

  const auto parsed = obs::JsonValue::parse(v.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("name")->as_string(), "tile \"window\"\n");
  EXPECT_DOUBLE_EQ(parsed->find("count")->as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parsed->find("ratio")->as_number(), 0.375);
  EXPECT_EQ(parsed->find("flag")->dump(), "true");
  EXPECT_EQ(parsed->find("nothing")->dump(), "null");
  ASSERT_EQ(parsed->find("list")->size(), 2u);
  EXPECT_DOUBLE_EQ(parsed->find("list")->as_array()[0].as_number(), 1.0);
  EXPECT_EQ(parsed->find("list")->as_array()[1].as_string(), "two");
}

TEST(Json, IntegralNumbersDumpWithoutFraction) {
  EXPECT_EQ(obs::JsonValue(7).dump(), "7");
  EXPECT_EQ(obs::JsonValue(1764).dump(), "1764");
  EXPECT_EQ(obs::JsonValue(-3).dump(), "-3");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_FALSE(obs::JsonValue::parse("").has_value());
  EXPECT_FALSE(obs::JsonValue::parse("{").has_value());
  EXPECT_FALSE(obs::JsonValue::parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(obs::JsonValue::parse("[1 2]").has_value());
  EXPECT_FALSE(obs::JsonValue::parse("truefalse").has_value());
  EXPECT_FALSE(obs::JsonValue::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(obs::JsonValue::parse("\"unterminated").has_value());
}

TEST(Json, ParseHandlesEscapesAndWhitespace) {
  const auto v = obs::JsonValue::parse(" { \"k\" : \"a\\u0041\\n\" } ");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("k")->as_string(), "aA\n");
}

// ------------------------------------------------------------- metrics --

TEST(Metrics, CountersAccumulateAndGaugesLatch) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  obs::count("t.counter");
  obs::count("t.counter", 2.5);
  obs::gauge("t.gauge", 5.0);
  obs::gauge("t.gauge", 7.0);
  EXPECT_DOUBLE_EQ(reg.counter("t.counter"), 3.5);
  EXPECT_DOUBLE_EQ(reg.gauge("t.gauge"), 7.0);
  EXPECT_DOUBLE_EQ(reg.counter("never.touched"), 0.0);

  const auto parsed = obs::JsonValue::parse(reg.to_json().dump());
  ASSERT_TRUE(parsed.has_value());
  const obs::JsonValue* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("t.counter"), nullptr);
  EXPECT_DOUBLE_EQ(counters->find("t.counter")->as_number(), 3.5);
  EXPECT_EQ(counters->find("t.gauge"), nullptr);
  EXPECT_DOUBLE_EQ(parsed->find("gauges")->find("t.gauge")->as_number(), 7.0);

  reg.reset();
  EXPECT_EQ(reg.to_json().find("counters")->find("t.counter"), nullptr);
}

TEST(Metrics, ScopedTimerRecordsCallsAndTime) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  {
    obs::ScopedTimer t("t.work");
  }
  {
    obs::ScopedTimer t("t.work");
  }
  EXPECT_DOUBLE_EQ(reg.counter("t.work.calls"), 2.0);
  EXPECT_GE(reg.counter("t.work.time_us"), 0.0);
  EXPECT_NE(reg.to_json().find("counters")->find("t.work.time_us"), nullptr);
}

// -------------------------------------------------- Chrome trace export --

TEST(ChromeTrace, HybridSolveExportsValidTrace) {
  obs::MetricsRegistry::instance().reset();
  const auto dev = gs::gtx480();
  auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 8, 256,
                                      td::Layout::contiguous, 11);
  const auto report = gp::hybrid_solve(dev, batch);
  ASSERT_GT(report.timeline.segments().size(), 0u);

  obs::ChromeTraceBuilder trace("test");
  trace.add_timeline(dev, report.timeline, "hybrid M=8 N=256");

  const auto parsed = obs::JsonValue::parse(trace.str());
  ASSERT_TRUE(parsed.has_value());
  const obs::JsonValue* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // One "X" event per timeline segment, back-to-back and non-overlapping,
  // kernel events carrying launch-shaped args.
  std::size_t durations = 0, kernels = 0;
  double cursor = 0.0;
  for (const auto& ev : events->as_array()) {
    ASSERT_TRUE(ev.find("ph") != nullptr);
    if (ev.find("ph")->as_string() != "X") continue;
    ++durations;
    const double ts = ev.find("ts")->as_number();
    const double dur = ev.find("dur")->as_number();
    EXPECT_GE(ts + 1e-9, cursor) << "events must not overlap";
    EXPECT_GE(dur, 0.0);
    cursor = ts + dur;
    const obs::JsonValue* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    if (const obs::JsonValue* kind = args->find("kind");
        kind && kind->as_string() == "host") {
      continue;
    }
    ++kernels;
    EXPECT_NE(args->find("grid"), nullptr);
    EXPECT_NE(args->find("block"), nullptr);
    EXPECT_NE(args->find("occupancy"), nullptr);
    EXPECT_NE(args->find("coalescing_efficiency"), nullptr);
  }
  EXPECT_EQ(durations, report.timeline.segments().size());
  EXPECT_GT(kernels, 0u);
}

TEST(ChromeTrace, WriteFileRoundtrips) {
  const auto dev = gs::gtx480();
  auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 4, 128,
                                      td::Layout::contiguous, 12);
  const auto report = gp::hybrid_solve(dev, batch);
  const std::string path = testing::TempDir() + "obs_trace.json";
  obs::ChromeTraceBuilder trace;
  trace.add_timeline(dev, report.timeline, "roundtrip");
  ASSERT_TRUE(trace.write_file(path));
  const auto parsed = obs::JsonValue::parse(slurp(path));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("traceEvents")->is_array(), true);
}

// --------------------------------------- Eq. 8-9 redundancy accounting --

TEST(Metrics, HybridSolveRecordsEq8And9Avoidance) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();

  // m = 4 whole-system windows, n = 512, forced k = 3 with c = 1:
  // sub-tile S = 8, so each window spans 512 / 8 = 64 tiles = 63 interior
  // boundaries. Per boundary the naive halo scheme would re-load
  // f(3) = 2^3 - 1 = 7 rows (Eq. 8) and redo g(3) = 3*8 - 16 + 2 = 10
  // eliminations (Eq. 9); the buffered sliding window avoids all of it.
  const auto dev = gs::gtx480();
  auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 4, 512,
                                      td::Layout::contiguous, 13);
  gp::HybridOptions opts;
  opts.force_k = 3;
  opts.variant = gp::WindowVariant::one_block_per_system;
  const auto report = gp::hybrid_solve(dev, batch, opts);

  EXPECT_EQ(report.k, 3u);
  EXPECT_EQ(report.redundant_loads, 0u);  // the paper's zero-redundancy claim

  ASSERT_EQ(td::pcr_halo(3), 7u);
  ASSERT_EQ(td::pcr_redundant_elims(3), 10u);
  const double boundaries = 4.0 * 63.0;
  EXPECT_DOUBLE_EQ(reg.gauge("transition.k"), 3.0);
  EXPECT_DOUBLE_EQ(reg.counter("pcr.windows"), 4.0);
  EXPECT_DOUBLE_EQ(reg.counter("pcr.sub_tile_boundaries"), boundaries);
  EXPECT_DOUBLE_EQ(reg.counter("pcr.redundant_loads_avoided"),
                   boundaries * 7.0);
  EXPECT_DOUBLE_EQ(reg.counter("pcr.redundant_elims_avoided"),
                   boundaries * 10.0);
  EXPECT_DOUBLE_EQ(reg.counter("pcr.redundant_loads"), 0.0);
  EXPECT_DOUBLE_EQ(reg.counter("hybrid.solves"), 1.0);
  EXPECT_DOUBLE_EQ(reg.counter("hybrid.variant.one_block_per_system"), 1.0);
  EXPECT_GT(reg.counter("gpusim.launches"), 0.0);
  EXPECT_DOUBLE_EQ(reg.counter("hybrid.solve.calls"), 1.0);
}

TEST(Metrics, SplitSystemRecordsActualRedundantLoads) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  const auto dev = gs::gtx480();
  auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 2, 4096,
                                      td::Layout::contiguous, 14);
  gp::HybridOptions opts;
  opts.force_k = 4;
  opts.variant = gp::WindowVariant::split_system;
  const auto report = gp::hybrid_solve(dev, batch, opts);
  EXPECT_GT(report.redundant_loads, 0u);  // halo re-loads between block groups
  EXPECT_DOUBLE_EQ(reg.counter("pcr.redundant_loads"),
                   static_cast<double>(report.redundant_loads));
  EXPECT_DOUBLE_EQ(reg.counter("hybrid.variant.split_system"), 1.0);
}

TEST(Metrics, WindowVariantNamesAreStable) {
  EXPECT_STREQ(gp::window_variant_name(gp::WindowVariant::auto_select),
               "auto");
  EXPECT_STREQ(gp::window_variant_name(gp::WindowVariant::one_block_per_system),
               "one_block_per_system");
  EXPECT_STREQ(gp::window_variant_name(gp::WindowVariant::split_system),
               "split_system");
  EXPECT_STREQ(
      gp::window_variant_name(gp::WindowVariant::multi_system_per_block),
      "multi_system_per_block");
}

// --------------------------------------------------------- JSONL sink --

TEST(Telemetry, JsonlSinkWritesOneParsableRecordPerLine) {
  const std::string path = testing::TempDir() + "obs_sink.jsonl";
  {
    obs::JsonlSink sink(path);
    ASSERT_TRUE(sink.enabled());
    for (int i = 0; i < 3; ++i) {
      obs::JsonValue rec = obs::JsonValue::object();
      rec["bench"] = "unit";
      rec["i"] = i;
      sink.write(rec);
    }
  }
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    const auto parsed = obs::JsonValue::parse(line);
    ASSERT_TRUE(parsed.has_value()) << "line " << lines << ": " << line;
    EXPECT_DOUBLE_EQ(parsed->find("i")->as_number(), lines);
    ++lines;
  }
  EXPECT_EQ(lines, 3);
}

TEST(Telemetry, DisabledSinkSwallowsWrites) {
  obs::JsonlSink sink;
  EXPECT_FALSE(sink.enabled());
  sink.write(obs::JsonValue::object());  // must not crash
  EXPECT_FALSE(sink.enabled());
}

TEST(Telemetry, SinkThrowsOnUnopenablePath) {
  EXPECT_THROW(obs::JsonlSink("/nonexistent-dir/x/y.jsonl"),
               std::runtime_error);
}

// ------------------------------------------------------- record schema --

namespace {

/// A value `f`'s rule accepts; 1 also satisfies every declared order.
obs::JsonValue valid_value(const obs::Field& f) {
  if (f.rule == obs::Rule::text) return "x";
  if (f.rule == obs::Rule::name) return f.names.front();
  return 1;
}

/// A value of the right type that `f`'s rule rejects (none for number).
std::optional<obs::JsonValue> out_of_range(const obs::Field& f) {
  switch (f.rule) {
    case obs::Rule::number: return std::nullopt;
    case obs::Rule::non_negative: return -1;
    case obs::Rule::positive: return 0;
    case obs::Rule::at_least_one: return 0.5;
    case obs::Rule::flag: return 0.5;
    case obs::Rule::unit: return 1.5;
    case obs::Rule::text: return "";
    case obs::Rule::name: return "bogus";
  }
  return std::nullopt;
}

void fill(obs::JsonValue& obj, const obs::Group& g) {
  for (const obs::Field& f : g.fields) obj[std::string(f.key)] = valid_value(f);
}

/// Every top-level group plus a roofline map entry and a histogram block,
/// each field at a valid value.
obs::JsonValue full_record() {
  obs::JsonValue rec = obs::JsonValue::object();
  for (const obs::Group& g : obs::record_groups) fill(rec, g);
  fill(rec["roofline"]["pcr"], obs::roofline_block);
  fill(rec["hist_launch_us"], obs::hist_launch_block);
  return rec;
}

/// A declared group and the object of full_record() that carries it.
struct Site {
  const obs::Group* group;
  obs::JsonValue& (*at)(obs::JsonValue& rec);
};

std::vector<Site> sites() {
  std::vector<Site> out;
  for (const obs::Group& g : obs::record_groups) {
    out.push_back({&g, [](obs::JsonValue& rec) -> obs::JsonValue& {
                     return rec;
                   }});
  }
  out.push_back({&obs::roofline_block,
                 [](obs::JsonValue& rec) -> obs::JsonValue& {
                   return rec["roofline"]["pcr"];
                 }});
  out.push_back({&obs::hist_launch_block,
                 [](obs::JsonValue& rec) -> obs::JsonValue& {
                   return rec["hist_launch_us"];
                 }});
  return out;
}

obs::JsonValue without(const obs::JsonValue& obj, std::string_view key) {
  obs::JsonValue out = obs::JsonValue::object();
  for (const auto& [k, v] : obj.as_object()) {
    if (k != key) out[k] = v;
  }
  return out;
}

/// The names `name_of` gives enum values first, first + 1, ... up to its
/// fallback for a value past the last enumerator.
template <typename E, typename F>
std::vector<std::string> enum_names(F name_of, int first = 0) {
  std::vector<std::string> out;
  for (int i = first;; ++i) {
    const std::string name = name_of(static_cast<E>(i));
    if (name == "?" || name == "unknown") return out;
    out.push_back(name);
  }
}

std::vector<std::string> listed(std::span<const std::string_view> names) {
  return {names.begin(), names.end()};
}

}  // namespace

TEST(RecordSchema, DroppingAnyFieldFails) {
  ASSERT_EQ(obs::check_record(full_record()), std::nullopt)
      << *obs::check_record(full_record());
  for (const Site& site : sites()) {
    for (const obs::Field& f : site.group->fields) {
      obs::JsonValue rec = full_record();
      obs::JsonValue& obj = site.at(rec);
      obj = without(obj, f.key);
      const auto err = obs::check_record(rec);
      if (!site.group->required && site.group->fields.size() == 1) {
        // All-or-nothing with one field: dropping it drops the group.
        EXPECT_EQ(err, std::nullopt) << f.key << ": " << *err;
      } else {
        EXPECT_TRUE(err) << site.group->name << ": dropping " << f.key
                         << " passed";
      }
    }
  }
  // The roofline block applies inline once a record has frac_bandwidth.
  obs::JsonValue rec = full_record();
  rec["frac_bandwidth"] = 0.5;
  EXPECT_TRUE(obs::check_record(rec));
  fill(rec, obs::roofline_block);
  EXPECT_EQ(obs::check_record(rec), std::nullopt) << *obs::check_record(rec);
}

TEST(RecordSchema, InvalidValuesAndBrokenOrdersFail) {
  for (const Site& site : sites()) {
    const obs::Group& g = *site.group;
    for (const obs::Field& f : g.fields) {
      const bool textual =
          f.rule == obs::Rule::text || f.rule == obs::Rule::name;
      std::vector<obs::JsonValue> bad{textual ? obs::JsonValue(1)
                                              : obs::JsonValue("1")};
      if (const auto v = out_of_range(f)) bad.push_back(*v);
      for (const obs::JsonValue& v : bad) {
        obs::JsonValue rec = full_record();
        site.at(rec)[std::string(f.key)] = v;
        EXPECT_TRUE(obs::check_record(rec))
            << g.name << ": " << f.key << " = " << v.dump() << " passed";
      }
    }
    for (const obs::Order& o : g.orders) {
      obs::JsonValue rec = full_record();
      site.at(rec)[std::string(o.lo)] = 2;  // above its bound, which is 1
      EXPECT_TRUE(obs::check_record(rec))
          << g.name << ": " << o.lo << " > " << o.hi << " passed";
    }
  }
}

TEST(RecordSchema, NameListsMatchEnumNames) {
  EXPECT_EQ(listed(obs::solve_code_names),
            enum_names<td::SolveCode>(td::solve_code_name));
  EXPECT_EQ(listed(obs::plan_source_names),
            enum_names<gp::PlanSource>(gp::plan_source_name));
  // Records carry a hazard mode only while detection is on (not "off"),
  // and plans pin a concrete window variant (not "auto").
  EXPECT_EQ(listed(obs::hazard_mode_names),
            enum_names<gs::HazardMode>(gs::hazard_mode_name, 1));
  EXPECT_EQ(listed(obs::window_variant_names),
            enum_names<gp::WindowVariant>(gp::window_variant_name, 1));
}
