// Schema validator for the observability layer's file outputs, used by
// the `bench-smoke` CTest entries (and handy interactively):
//
//   validate_telemetry --jsonl table2.jsonl [--min-records 3]
//                      [--trace table2.trace.json] [--spans spans.jsonl]
//
// JSONL checks, per line: parses as a JSON object that obeys the record
// schema declared in src/obs/record_schema.hpp (obs::check_record), and
// a `phases` object (when present) holds numbers >= 0 that sum to
// `time_us` — its keys are phase labels, so the declaration cannot list
// them.
//
// Every JSONL line must additionally be in *canonical form*: parsing it
// and re-serializing compactly reproduces the input bytes. The JSON
// writer sorts object keys and uses round-tripping number formatting, so
// anything the observability layer emits is already canonical — the
// check pins that byte-stability (diffable telemetry, stable perfdiff
// keys) against drift.
//
// Span checks (--spans, written by --spans-json): every line is an
// object with a positive numeric `span` id, non-empty `name`, numeric
// `parent` that is 0 or another span id present in the file, and
// monotonic clocks (wall_t1_us >= wall_t0_us, sim_t1_us >= sim_t0_us).
//
// Chrome-trace checks: top-level object with a `traceEvents` array; every
// event has a string `name` and `ph`; "X" (duration) events carry
// numeric ts/dur/pid/tid with ts, dur >= 0; within each (pid, tid) track,
// events sorted by ts are non-overlapping (monotonic timeline).
//
// Calibration-file checks (--plan, written by bench_autotune --out):
// schema tridsolve-plan-v1, device name plus decimal-string fingerprint,
// and per-plan shape/variant sanity (whole-number counts, 2^k must fit n,
// concrete variant, c >= 1, blocks_per_system >= 1 for split_system).
// Counter assertions (--metrics FILE --require-counters
// "a>=1,b<=0,c==2"): each comma term checks one counter (or, failing
// that, one gauge) of a --metrics-json dump; names the registry never
// touched read as 0.
//
// Exit code 0 on success; 1 with a diagnostic on the first failure.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/record_schema.hpp"
#include "util/cli.hpp"

namespace obs = tridsolve::obs;
using obs::JsonValue;

namespace {

[[noreturn]] void fail(const std::string& msg) {
  std::fprintf(stderr, "validate_telemetry: FAIL: %s\n", msg.c_str());
  std::exit(1);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const JsonValue& require(const JsonValue& obj, const std::string& key,
                         const std::string& where) {
  const JsonValue* v = obj.find(key);
  if (!v) fail(where + ": missing key \"" + key + "\"");
  return *v;
}

double require_number(const JsonValue& obj, const std::string& key,
                      const std::string& where) {
  const JsonValue& v = require(obj, key, where);
  if (!v.is_number()) fail(where + ": \"" + key + "\" is not a number");
  return v.as_number();
}

/// A count field of a calibration entry: PlanCache::load_calibration
/// rejects any entry whose counts are not whole numbers in [0, 2^31).
double require_whole(const JsonValue& obj, const std::string& key,
                     const std::string& where) {
  const double v = require_number(obj, key, where);
  if (!(v >= 0.0 && v < 2147483648.0) || v != std::floor(v)) {
    fail(where + ": \"" + key + "\" is not a whole number in [0, 2^31)");
  }
  return v;
}

std::string require_string(const JsonValue& obj, const std::string& key,
                           const std::string& where) {
  const JsonValue& v = require(obj, key, where);
  if (!v.is_string() || v.as_string().empty()) {
    fail(where + ": \"" + key + "\" is not a non-empty string");
  }
  return v.as_string();
}

/// Canonical-form pin: re-serializing the parsed line must reproduce the
/// input byte for byte (sorted keys + round-tripping number format).
void require_canonical(const JsonValue& rec, const std::string& line,
                       const std::string& where) {
  const std::string canon = rec.dump();
  if (canon != line) {
    fail(where + ": line is not in canonical form (re-serialized bytes "
         "differ; keys unsorted or non-canonical number formatting?)\n  got: " +
         line + "\n want: " + canon);
  }
}

std::size_t validate_jsonl(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  std::size_t records = 0, lineno = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const std::string where = path + ":" + std::to_string(lineno);
    const auto parsed = JsonValue::parse(line);
    if (!parsed) fail(where + ": line is not valid JSON");
    if (!parsed->is_object()) fail(where + ": record is not a JSON object");
    const JsonValue& rec = *parsed;
    require_canonical(rec, line, where);

    if (const auto err = obs::check_record(rec)) fail(where + ": " + *err);
    const double time_us = rec.find("time_us")->as_number();

    if (const JsonValue* phases = rec.find("phases")) {
      if (!phases->is_object()) fail(where + ": phases is not an object");
      double sum = 0.0;
      for (const auto& [label, v] : phases->as_object()) {
        if (!v.is_number() || v.as_number() < 0) {
          fail(where + ": phase \"" + label + "\" is not a number >= 0");
        }
        sum += v.as_number();
      }
      const double tol = 1e-6 * std::max(1.0, time_us);
      if (phases->size() > 0 && std::abs(sum - time_us) > tol) {
        fail(where + ": phases sum " + std::to_string(sum) +
             " != time_us " + std::to_string(time_us));
      }
    }
    ++records;
  }
  return records;
}

std::size_t validate_spans(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  struct SpanRow {
    double id, parent;
    std::string where;
  };
  std::vector<SpanRow> rows;
  std::map<double, std::size_t> ids;
  std::size_t lineno = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const std::string where = path + ":" + std::to_string(lineno);
    const auto parsed = JsonValue::parse(line);
    if (!parsed) fail(where + ": line is not valid JSON");
    if (!parsed->is_object()) fail(where + ": span is not a JSON object");
    const JsonValue& rec = *parsed;
    require_canonical(rec, line, where);

    const double id = require_number(rec, "span", where);
    if (id <= 0) fail(where + ": span id <= 0");
    if (!ids.emplace(id, lineno).second) {
      fail(where + ": duplicate span id " + std::to_string(id));
    }
    require_string(rec, "name", where);
    const double parent = require_number(rec, "parent", where);
    if (parent < 0) fail(where + ": parent < 0");
    if (require_number(rec, "thread", where) < 0) fail(where + ": thread < 0");
    const double wall_t0 = require_number(rec, "wall_t0_us", where);
    const double wall_t1 = require_number(rec, "wall_t1_us", where);
    if (wall_t1 < wall_t0) fail(where + ": wall_t1_us < wall_t0_us");
    const double sim_t0 = require_number(rec, "sim_t0_us", where);
    const double sim_t1 = require_number(rec, "sim_t1_us", where);
    if (sim_t1 < sim_t0) fail(where + ": sim_t1_us < sim_t0_us");
    if (const JsonValue* attrs = rec.find("attrs")) {
      if (!attrs->is_object()) fail(where + ": attrs is not an object");
    }
    rows.push_back({id, parent, where});
  }
  // Second pass: every non-zero parent must name a span in this file
  // (spans are emitted at scope exit, so children precede parents —
  // resolution cannot be checked line by line).
  for (const SpanRow& row : rows) {
    if (row.parent != 0 && ids.find(row.parent) == ids.end()) {
      fail(row.where + ": parent " + std::to_string(row.parent) +
           " does not name a span in this file");
    }
  }
  return rows.size();
}

void validate_trace(const std::string& path) {
  const auto parsed = JsonValue::parse(read_file(path));
  if (!parsed) fail(path + ": not valid JSON");
  if (!parsed->is_object()) fail(path + ": top level is not an object");
  const JsonValue& events = require(*parsed, "traceEvents", path);
  if (!events.is_array()) fail(path + ": traceEvents is not an array");

  // (pid, tid) -> sorted-by-ts [start, end) intervals of "X" events.
  std::map<std::pair<double, double>, std::vector<std::pair<double, double>>>
      tracks;
  std::size_t idx = 0, durations = 0;
  for (const JsonValue& ev : events.as_array()) {
    const std::string where = path + " traceEvents[" + std::to_string(idx++) +
                              "]";
    if (!ev.is_object()) fail(where + ": event is not an object");
    require_string(ev, "name", where);
    const std::string ph = require_string(ev, "ph", where);
    if (ph != "X") continue;
    const double ts = require_number(ev, "ts", where);
    const double dur = require_number(ev, "dur", where);
    if (ts < 0) fail(where + ": ts < 0");
    if (dur < 0) fail(where + ": dur < 0");
    const double pid = require_number(ev, "pid", where);
    const double tid = require_number(ev, "tid", where);
    tracks[{pid, tid}].emplace_back(ts, ts + dur);
    ++durations;
  }
  if (durations == 0) fail(path + ": no duration (\"X\") events");

  for (auto& [track, spans] : tracks) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      if (spans[i].first + 1e-9 < spans[i - 1].second) {
        fail(path + ": overlapping events on tid " +
             std::to_string(track.second) + " (ts " +
             std::to_string(spans[i].first) + " starts before previous event"
             " ends at " + std::to_string(spans[i - 1].second) + ")");
      }
    }
  }
  std::printf("validate_telemetry: %s OK (%zu duration events, %zu tracks)\n",
              path.c_str(), durations, tracks.size());
}

/// Calibration-file checks (bench_autotune --out): schema tag, device
/// identity (name + decimal-string fingerprint) and per-plan sanity —
/// positive whole shape, a whole k that fits it, a concrete (non-auto)
/// window variant, a whole c >= 1 and, for split_system, a whole
/// blocks_per_system >= 1 (the rules PlanCache::load_calibration
/// applies). Returns the number of plans.
std::size_t validate_plan_file(const std::string& path) {
  const auto parsed = JsonValue::parse(read_file(path));
  if (!parsed) fail(path + ": not valid JSON");
  if (!parsed->is_object()) fail(path + ": top level is not an object");
  const JsonValue& doc = *parsed;
  const std::string schema = require_string(doc, "schema", path);
  if (schema != "tridsolve-plan-v1") {
    fail(path + ": schema \"" + schema + "\" is not tridsolve-plan-v1");
  }
  require_string(doc, "device", path);
  const std::string fp = require_string(doc, "fingerprint", path);
  if (fp.find_first_not_of("0123456789") != std::string::npos) {
    fail(path + ": fingerprint is not a decimal string");
  }
  const JsonValue& plans = require(doc, "plans", path);
  if (!plans.is_array()) fail(path + ": plans is not an array");
  std::size_t idx = 0;
  for (const JsonValue& entry : plans.as_array()) {
    const std::string where = path + " plans[" + std::to_string(idx++) + "]";
    if (!entry.is_object()) fail(where + ": entry is not an object");
    const double m = require_whole(entry, "m", where);
    const double n = require_whole(entry, "n", where);
    if (m < 1) fail(where + ": m < 1");
    if (n < 1) fail(where + ": n < 1");
    const double k = require_whole(entry, "k", where);
    if (k < 0 || k > 30) fail(where + ": k outside [0, 30]");
    if (std::ldexp(1.0, static_cast<int>(k)) > n) {
      fail(where + ": 2^k exceeds n (plan cannot fit its shape)");
    }
    const std::string variant = require_string(entry, "variant", where);
    if (std::find(std::begin(obs::window_variant_names),
                  std::end(obs::window_variant_names),
                  variant) == std::end(obs::window_variant_names)) {
      fail(where + ": variant \"" + variant +
           "\" is not a concrete window variant");
    }
    if (require_whole(entry, "c", where) < 1) fail(where + ": c < 1");
    if (variant == "split_system" &&
        require_whole(entry, "blocks_per_system", where) < 1) {
      fail(where + ": split_system plan with blocks_per_system < 1");
    }
    if (require_number(entry, "tuned_us", where) < 0) {
      fail(where + ": tuned_us < 0");
    }
    if (require_number(entry, "heuristic_us", where) < 0) {
      fail(where + ": heuristic_us < 0");
    }
  }
  return idx;
}

/// Counter assertions over a --metrics-json dump: `spec` is a comma list
/// of `name>=value`, `name<=value` or `name==value` terms. A name that is
/// not a counter is looked up among the gauges; one the registry never
/// touched reads as 0 (so `misses<=1` holds on a clean run rather than
/// failing on a missing key).
void validate_metrics(const std::string& path, const std::string& spec) {
  const auto parsed = JsonValue::parse(read_file(path));
  if (!parsed) fail(path + ": not valid JSON");
  const JsonValue* counters = parsed->find("counters");
  if (!counters || !counters->is_object()) {
    fail(path + ": missing \"counters\" object (not a --metrics-json dump?)");
  }
  const JsonValue* gauges = parsed->find("gauges");
  std::size_t checked = 0;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string term = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (term.empty()) continue;
    std::size_t op_at = term.find(">=");
    std::string op = ">=";
    if (op_at == std::string::npos) { op_at = term.find("<="); op = "<="; }
    if (op_at == std::string::npos) { op_at = term.find("=="); op = "=="; }
    if (op_at == std::string::npos) {
      fail("--require-counters term \"" + term +
           "\" has no >=, <= or == operator");
    }
    const std::string name = term.substr(0, op_at);
    const double want = std::strtod(term.c_str() + op_at + 2, nullptr);
    const JsonValue* v = counters->find(name);
    if (v == nullptr && gauges != nullptr && gauges->is_object()) {
      v = gauges->find(name);
    }
    const double got = v && v->is_number() ? v->as_number() : 0.0;
    const bool pass = op == ">=" ? got >= want
                    : op == "<=" ? got <= want
                                 : got == want;
    if (!pass) {
      fail(path + ": counter " + name + " = " + std::to_string(got) +
           " violates " + term);
    }
    ++checked;
  }
  if (checked == 0) fail("--require-counters spec is empty");
  std::printf("validate_telemetry: %s OK (%zu counter assertions)\n",
              path.c_str(), checked);
}

}  // namespace

int main(int argc, char** argv) {
  const tridsolve::util::Cli cli(argc, argv,
                                 {"jsonl", "trace", "spans", "min-records",
                                  "plan", "metrics", "require-counters"});
  const std::string jsonl = cli.get_string("jsonl", "");
  const std::string trace = cli.get_string("trace", "");
  const std::string spans = cli.get_string("spans", "");
  const std::string plan = cli.get_string("plan", "");
  const std::string metrics = cli.get_string("metrics", "");
  if (jsonl.empty() && trace.empty() && spans.empty() && plan.empty() &&
      metrics.empty()) {
    fail("nothing to validate: pass --jsonl, --trace, --spans, --plan and/or"
         " --metrics");
  }

  if (!jsonl.empty()) {
    const std::size_t records = validate_jsonl(jsonl);
    const auto min_records =
        static_cast<std::size_t>(cli.get_int("min-records", 1));
    if (records < min_records) {
      fail(jsonl + ": only " + std::to_string(records) + " records, expected"
           " >= " + std::to_string(min_records));
    }
    std::printf("validate_telemetry: %s OK (%zu records)\n", jsonl.c_str(),
                records);
  }
  if (!spans.empty()) {
    const std::size_t n = validate_spans(spans);
    if (n == 0) fail(spans + ": no spans");
    std::printf("validate_telemetry: %s OK (%zu spans)\n", spans.c_str(), n);
  }
  if (!trace.empty()) validate_trace(trace);
  if (!plan.empty()) {
    const std::size_t n = validate_plan_file(plan);
    if (n == 0) fail(plan + ": no plans");
    std::printf("validate_telemetry: %s OK (%zu plans)\n", plan.c_str(), n);
  }
  if (!metrics.empty()) {
    validate_metrics(metrics, cli.get_string("require-counters", ""));
  }
  return 0;
}
