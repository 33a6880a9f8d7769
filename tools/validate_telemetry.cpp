// Schema validator for the observability layer's file outputs, used by
// the `bench-smoke` CTest entries (and handy interactively):
//
//   validate_telemetry --jsonl table2.jsonl [--min-records 3]
//                      [--trace table2.trace.json] [--spans spans.jsonl]
//
// JSONL checks, per line: parses as a JSON object; `bench` and `solver`
// are non-empty strings; `m` and `n` are positive numbers; `time_us` is a
// non-negative number; `phases` (when present) is an object of
// non-negative numbers whose sum matches `time_us`; the optional guard
// taxonomy field `guard_flagged` is a number >= 0; the hazard block
// (present when the producing bench ran with --check-hazards) is
// all-or-nothing: `hazard_mode` must be "detect" or "fatal" and every
// `hazard_{raw,war,waw,oob,divergence}` counter must be a number >= 0. The fault block (present when the
// producer ran with --fault-rate/--fault-seed/--fault-kinds) is likewise
// all-or-nothing: `fault_seed` >= 0, `fault_rate` in [0,1] and all five
// `fault_*` counters >= 0. The resilience block (written by the
// resilient solve pipeline) is all-or-nothing too: the `resilience_*`
// numbers >= 0, the two booleans 0/1, and `resilience_worst` a SolveCode
// name.
//
// Every JSONL line must additionally be in *canonical form*: parsing it
// and re-serializing compactly reproduces the input bytes. The JSON
// writer sorts object keys and uses round-tripping number formatting, so
// anything the observability layer emits is already canonical — the
// check pins that byte-stability (diffable telemetry, stable perfdiff
// keys) against drift.
//
// Roofline records (bench_profile --json, marked by a `frac_bandwidth`
// field or a `roofline` object) must carry the full attribution block:
// byte/FLOP tallies >= 0, achieved/peak rates >= 0, and `bound` either
// "bandwidth" or "compute". A `hist_launch_us` object must hold ordered
// quantiles (p50 <= p90 <= p99 <= max) with a count >= 0.
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
// The plan block (written by bench::Telemetry for hybrid-family records
// and by bench_autotune) is all-or-nothing as well: `plan_source` a
// PlanSource name, `plan_cached` 0/1, `plan_k` >= 0, `plan_variant` a
// string and `plan_c` >= 1.
//
// The service block (written by bench_service, one record per sweep
// point of the saturation curve) is all-or-nothing too: the eleven
// `service_*` numbers >= 0, `service_requests` >= 1, expired bounded by
// requests, mean occupancy <= max occupancy and p50 <= p99.
//
// Calibration-file checks (--plan, written by bench_autotune --out):
// schema tridsolve-plan-v1, device name plus decimal-string fingerprint,
// and per-plan shape/variant sanity (2^k must fit n, concrete variant,
// c >= 1). Counter assertions (--metrics FILE --require-counters
// "a>=1,b<=0,c==2"): each comma term checks one counter of a
// --metrics-json dump; counters the registry never touched read as 0.
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
#include "util/cli.hpp"

using tridsolve::obs::JsonValue;

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

/// One roofline attribution object (a bench_profile per-phase record, or
/// one entry of a total record's `roofline` map).
void validate_roofline(const JsonValue& attr, const std::string& where) {
  for (const char* key :
       {"bytes_global", "bytes_shared", "flops_f32", "flops_f64",
        "achieved_gbps", "achieved_gflops", "frac_bandwidth", "frac_compute",
        "intensity", "time_us"}) {
    if (require_number(attr, key, where) < 0) {
      fail(where + ": \"" + std::string(key) + "\" < 0");
    }
  }
  if (require_number(attr, "peak_gbps", where) <= 0) {
    fail(where + ": peak_gbps <= 0");
  }
  const std::string bound = require_string(attr, "bound", where);
  if (bound != "bandwidth" && bound != "compute") {
    fail(where + ": bound \"" + bound + "\" is not bandwidth|compute");
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

    require_string(rec, "bench", where);
    require_string(rec, "solver", where);
    if (require_number(rec, "m", where) <= 0) fail(where + ": m <= 0");
    if (require_number(rec, "n", where) <= 0) fail(where + ": n <= 0");
    const double time_us = require_number(rec, "time_us", where);
    if (time_us < 0) fail(where + ": time_us < 0");

    // The guard taxonomy field is optional (hybrid records carry it);
    // when present it must be a count >= 0.
    if (const JsonValue* v = rec.find("guard_flagged")) {
      if (!v->is_number() || v->as_number() < 0) {
        fail(where + ": \"guard_flagged\" is not a number >= 0");
      }
    }

    // Hazard block: written together by bench::Telemetry, so a partial
    // block means the producer (or the schema) drifted.
    static constexpr const char* hazard_keys[] = {
        "hazard_raw", "hazard_war", "hazard_waw", "hazard_oob",
        "hazard_divergence"};
    const bool has_mode = rec.find("hazard_mode") != nullptr;
    bool has_any_count = false, has_all_counts = true;
    for (const char* key : hazard_keys) {
      if (rec.find(key)) has_any_count = true;
      else has_all_counts = false;
    }
    if (has_mode || has_any_count) {
      if (!has_mode || !has_all_counts) {
        fail(where + ": partial hazard block (need hazard_mode plus all five"
             " hazard_{raw,war,waw,oob,divergence} counters)");
      }
      const std::string mode = require_string(rec, "hazard_mode", where);
      if (mode != "detect" && mode != "fatal") {
        fail(where + ": hazard_mode \"" + mode +
             "\" is not \"detect\" or \"fatal\"");
      }
      for (const char* key : hazard_keys) {
        if (require_number(rec, key, where) < 0) {
          fail(where + ": \"" + std::string(key) + "\" < 0");
        }
      }
    }

    // Fault block: written together (bench::Telemetry or quickstart) when
    // a FaultPlan is armed — all-or-nothing like the hazard block.
    static constexpr const char* fault_keys[] = {
        "fault_bit_flips", "fault_shared_corruptions", "fault_nan_writes",
        "fault_launch_failures", "fault_timeouts"};
    bool has_fault_any = rec.find("fault_seed") || rec.find("fault_rate");
    bool has_fault_all =
        rec.find("fault_seed") != nullptr && rec.find("fault_rate") != nullptr;
    for (const char* key : fault_keys) {
      if (rec.find(key)) has_fault_any = true;
      else has_fault_all = false;
    }
    if (has_fault_any) {
      if (!has_fault_all) {
        fail(where + ": partial fault block (need fault_seed, fault_rate and"
             " all five fault_{bit_flips,shared_corruptions,nan_writes,"
             "launch_failures,timeouts} counters)");
      }
      if (require_number(rec, "fault_seed", where) < 0) {
        fail(where + ": fault_seed < 0");
      }
      const double rate = require_number(rec, "fault_rate", where);
      if (rate < 0 || rate > 1) fail(where + ": fault_rate outside [0,1]");
      for (const char* key : fault_keys) {
        if (require_number(rec, key, where) < 0) {
          fail(where + ": \"" + std::string(key) + "\" < 0");
        }
      }
    }

    // Resilience block: written by the resilient solve pipeline —
    // all-or-nothing, with a severity code name in resilience_worst.
    static constexpr const char* resilience_counts[] = {
        "resilience_retries", "resilience_fallbacks", "resilience_spent_us",
        "resilience_partial", "resilience_deadline_exceeded"};
    bool has_res_any = rec.find("resilience_worst") != nullptr;
    bool has_res_all = has_res_any;
    for (const char* key : resilience_counts) {
      if (rec.find(key)) has_res_any = true;
      else has_res_all = false;
    }
    if (has_res_any) {
      if (!has_res_all) {
        fail(where + ": partial resilience block (need resilience_worst plus"
             " resilience_{retries,fallbacks,spent_us,partial,"
             "deadline_exceeded})");
      }
      for (const char* key : resilience_counts) {
        if (require_number(rec, key, where) < 0) {
          fail(where + ": \"" + std::string(key) + "\" < 0");
        }
      }
      for (const char* key :
           {"resilience_partial", "resilience_deadline_exceeded"}) {
        const double v = require_number(rec, key, where);
        if (v != 0.0 && v != 1.0) {
          fail(where + ": \"" + std::string(key) + "\" is not 0 or 1");
        }
      }
      static constexpr const char* codes[] = {
          "ok", "near_singular", "zero_pivot", "timed_out", "launch_failed",
          "singular", "deadline", "overloaded", "bad_size", "bad_argument"};
      const std::string worst = require_string(rec, "resilience_worst", where);
      if (std::find_if(std::begin(codes), std::end(codes),
                       [&worst](const char* c) { return worst == c; }) ==
          std::end(codes)) {
        fail(where + ": resilience_worst \"" + worst +
             "\" is not a SolveCode name");
      }
    }

    // Plan provenance block (hybrid and autotune records): written
    // together by bench::Telemetry / bench_autotune — all-or-nothing.
    static constexpr const char* plan_keys[] = {
        "plan_source", "plan_cached", "plan_k", "plan_variant", "plan_c"};
    bool has_plan_any = false, has_plan_all = true;
    for (const char* key : plan_keys) {
      if (rec.find(key)) has_plan_any = true;
      else has_plan_all = false;
    }
    if (has_plan_any) {
      if (!has_plan_all) {
        fail(where + ": partial plan block (need all of plan_{source,cached,"
             "k,variant,c})");
      }
      static constexpr const char* sources[] = {
          "heuristic", "cost_model", "forced", "calibrated", "autotuned"};
      const std::string source = require_string(rec, "plan_source", where);
      if (std::find_if(std::begin(sources), std::end(sources),
                       [&source](const char* s) { return source == s; }) ==
          std::end(sources)) {
        fail(where + ": plan_source \"" + source +
             "\" is not a PlanSource name");
      }
      const double cached = require_number(rec, "plan_cached", where);
      if (cached != 0.0 && cached != 1.0) {
        fail(where + ": plan_cached is not 0 or 1");
      }
      if (require_number(rec, "plan_k", where) < 0) fail(where + ": plan_k < 0");
      require_string(rec, "plan_variant", where);
      if (require_number(rec, "plan_c", where) < 1) fail(where + ": plan_c < 1");
    }

    // Service saturation block (bench_service records): written together
    // per sweep point — all-or-nothing like the other blocks, with
    // internal consistency (expired bounded by requests, ordered
    // occupancy and latency quantiles).
    static constexpr const char* service_keys[] = {
        "service_offered_rps",    "service_achieved_rps",
        "service_requests",       "service_expired",
        "service_batches",        "service_occupancy_mean",
        "service_occupancy_max",  "service_p50_us",
        "service_p99_us",         "service_batched_sim_us",
        "service_solo_sim_us",    "service_shed",
        "service_degraded",       "service_retried"};
    bool has_svc_any = false, has_svc_all = true;
    for (const char* key : service_keys) {
      if (rec.find(key)) has_svc_any = true;
      else has_svc_all = false;
    }
    if (has_svc_any) {
      if (!has_svc_all) {
        fail(where + ": partial service block (need all of service_{offered_"
             "rps,achieved_rps,requests,expired,batches,occupancy_mean,"
             "occupancy_max,p50_us,p99_us,batched_sim_us,solo_sim_us,shed,"
             "degraded,retried})");
      }
      for (const char* key : service_keys) {
        if (require_number(rec, key, where) < 0) {
          fail(where + ": \"" + std::string(key) + "\" < 0");
        }
      }
      const double requests = require_number(rec, "service_requests", where);
      if (requests < 1) fail(where + ": service_requests < 1");
      if (require_number(rec, "service_expired", where) > requests) {
        fail(where + ": service_expired > service_requests");
      }
      // Shed/degraded/retried are per-request tallies: each request is
      // shed or dispatched (possibly degraded/retried), never both more
      // than once — so none can exceed the request count.
      for (const char* key :
           {"service_shed", "service_degraded", "service_retried"}) {
        if (require_number(rec, key, where) > requests) {
          fail(where + ": \"" + std::string(key) + "\" > service_requests");
        }
      }
      if (require_number(rec, "service_occupancy_mean", where) >
          require_number(rec, "service_occupancy_max", where)) {
        fail(where + ": service_occupancy_mean > service_occupancy_max");
      }
      if (require_number(rec, "service_p50_us", where) >
          require_number(rec, "service_p99_us", where)) {
        fail(where + ": service_p50_us > service_p99_us");
      }
    }

    // Roofline attribution: a bench_profile per-phase record carries the
    // block inline; a total record maps phase label -> block.
    if (rec.find("frac_bandwidth")) validate_roofline(rec, where);
    if (const JsonValue* roof = rec.find("roofline")) {
      if (!roof->is_object()) fail(where + ": roofline is not an object");
      for (const auto& [phase, attr] : roof->as_object()) {
        if (!attr.is_object()) {
          fail(where + ": roofline[\"" + phase + "\"] is not an object");
        }
        validate_roofline(attr, where + " roofline[\"" + phase + "\"]");
      }
    }

    // Latency-histogram quantiles: ordered, with a sane count.
    if (const JsonValue* hist = rec.find("hist_launch_us")) {
      const std::string hw = where + " hist_launch_us";
      if (!hist->is_object()) fail(hw + ": not an object");
      const double count = require_number(*hist, "count", hw);
      if (count < 0) fail(hw + ": count < 0");
      const double p50 = require_number(*hist, "p50", hw);
      const double p90 = require_number(*hist, "p90", hw);
      const double p99 = require_number(*hist, "p99", hw);
      const double mx = require_number(*hist, "max", hw);
      if (count > 0 && !(p50 <= p90 && p90 <= p99 && p99 <= mx)) {
        fail(hw + ": quantiles out of order (need p50 <= p90 <= p99 <= max)");
      }
    }

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
/// positive shape, k that fits it, a concrete (non-auto) window variant
/// and c >= 1. Returns the number of plans.
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
    const double m = require_number(entry, "m", where);
    const double n = require_number(entry, "n", where);
    if (m < 1) fail(where + ": m < 1");
    if (n < 1) fail(where + ": n < 1");
    const double k = require_number(entry, "k", where);
    if (k < 0 || k > 30) fail(where + ": k outside [0, 30]");
    if (std::ldexp(1.0, static_cast<int>(k)) > n) {
      fail(where + ": 2^k exceeds n (plan cannot fit its shape)");
    }
    const std::string variant = require_string(entry, "variant", where);
    static constexpr const char* variants[] = {
        "one_block_per_system", "split_system", "multi_system_per_block"};
    if (std::find_if(std::begin(variants), std::end(variants),
                     [&variant](const char* v) { return variant == v; }) ==
        std::end(variants)) {
      fail(where + ": variant \"" + variant +
           "\" is not a concrete window variant");
    }
    if (require_number(entry, "c", where) < 1) fail(where + ": c < 1");
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
/// of `name>=value`, `name<=value` or `name==value` terms. A counter the
/// registry never touched reads as 0 (so `misses<=1` holds on a clean
/// run rather than failing on a missing key).
void validate_metrics(const std::string& path, const std::string& spec) {
  const auto parsed = JsonValue::parse(read_file(path));
  if (!parsed) fail(path + ": not valid JSON");
  const JsonValue* counters = parsed->find("counters");
  if (!counters || !counters->is_object()) {
    fail(path + ": missing \"counters\" object (not a --metrics-json dump?)");
  }
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
