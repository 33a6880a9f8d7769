#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>

namespace tridsolve::obs {

namespace {

JsonValue metadata_event(const char* name, int tid, const std::string& value) {
  JsonValue ev = JsonValue::object();
  ev["name"] = name;
  ev["ph"] = "M";
  ev["pid"] = 0;
  ev["tid"] = tid;
  ev["args"]["name"] = value;
  return ev;
}

}  // namespace

ChromeTraceBuilder::ChromeTraceBuilder(std::string process_name)
    : process_name_(std::move(process_name)) {
  trace_events_.push_back(metadata_event("process_name", 0, process_name_));
}

int ChromeTraceBuilder::add_timeline(const gpusim::DeviceSpec& dev,
                                     const gpusim::Timeline& timeline,
                                     const std::string& track_name) {
  const int tid = next_tid_++;
  trace_events_.push_back(metadata_event("thread_name", tid, track_name));

  double cursor_us = 0.0;
  for (const auto& seg : timeline.segments()) {
    const auto& s = seg.stats;
    JsonValue ev = JsonValue::object();
    ev["name"] = seg.label;
    ev["ph"] = "X";
    ev["pid"] = 0;
    ev["tid"] = tid;
    ev["ts"] = cursor_us;
    ev["dur"] = s.timing.time_us;
    ev["cat"] = "kernel";
    JsonValue& args = ev["args"] = JsonValue::object();
    args["grid"] = s.config.grid_blocks;
    args["block"] = s.config.block_threads;
    args["occupancy"] = s.timing.occupancy.fraction;
    args["limiter"] = s.timing.occupancy.limiter;
    args["bound"] = s.timing.bound();
    args["compute_us"] = s.timing.compute_us;
    args["latency_us"] = s.timing.latency_us;
    args["bandwidth_us"] = s.timing.bandwidth_us;
    args["overhead_us"] = s.timing.overhead_us;
    args["transactions"] = s.costs.transactions;
    args["bytes_requested"] = s.costs.bytes_requested;
    args["coalescing_efficiency"] =
        s.costs.coalescing_efficiency(dev.transaction_bytes);
    args["bank_conflict_replays"] = s.costs.shared_serializations;
    args["barriers"] = s.costs.barriers;
    args["warps"] = s.costs.warps;
    args["shared_bytes"] = s.costs.shared_bytes;
    args["shared_peak_bytes"] = s.costs.shared_peak_bytes;
    trace_events_.push_back(std::move(ev));
    cursor_us += s.timing.time_us;
  }
  return tid;
}

std::size_t ChromeTraceBuilder::add_spans(const std::vector<Span>& spans) {
  // id -> span, for depth computation via the parent chain.
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id.emplace(s.id, &s);
  const auto depth_of = [&by_id](const Span& s) {
    int depth = 0;
    std::uint64_t parent = s.parent;
    while (parent != 0 && depth < 64) {
      const auto it = by_id.find(parent);
      if (it == by_id.end()) break;
      ++depth;
      parent = it->second->parent;
    }
    return depth;
  };
  const auto span_tid = [&depth_of](const Span& s) {
    const int capped = std::min(depth_of(s), 7);
    return 1000 + s.thread_ordinal * 8 + capped;
  };

  std::map<int, std::string> track_names;
  std::size_t added = 0;
  for (const Span& s : spans) {
    const int tid = span_tid(s);
    track_names.emplace(
        tid, "spans t" + std::to_string(s.thread_ordinal) + " depth " +
                 std::to_string(std::min(depth_of(s), 7)));
    JsonValue ev = JsonValue::object();
    ev["name"] = s.name;
    ev["ph"] = "X";
    ev["cat"] = "span";
    ev["pid"] = 1;
    ev["tid"] = tid;
    ev["ts"] = s.wall_t0_us;
    ev["dur"] = s.wall_t1_us >= s.wall_t0_us ? s.wall_t1_us - s.wall_t0_us
                                             : 0.0;
    JsonValue& args = ev["args"] = JsonValue::object();
    args["span"] = s.id;
    args["parent"] = s.parent;
    args["sim_t0_us"] = s.sim_t0_us;
    args["sim_t1_us"] = s.sim_t1_us;
    for (const auto& [key, value] : s.attrs) args[key] = value;
    trace_events_.push_back(std::move(ev));
    ++added;

    // Causal arrow parent -> child (flow events are exempt from the
    // non-overlap check; only "X" events are tracked).
    const auto parent_it = by_id.find(s.parent);
    if (parent_it != by_id.end()) {
      const Span& p = *parent_it->second;
      JsonValue start = JsonValue::object();
      start["name"] = "span-parent";
      start["ph"] = "s";
      start["cat"] = "span-flow";
      start["id"] = s.id;
      start["pid"] = 1;
      start["tid"] = span_tid(p);
      start["ts"] = p.wall_t0_us;
      trace_events_.push_back(std::move(start));
      JsonValue finish = JsonValue::object();
      finish["name"] = "span-parent";
      finish["ph"] = "f";
      finish["bp"] = "e";
      finish["cat"] = "span-flow";
      finish["id"] = s.id;
      finish["pid"] = 1;
      finish["tid"] = tid;
      finish["ts"] = s.wall_t0_us;
      trace_events_.push_back(std::move(finish));
    }
  }
  for (const auto& [tid, name] : track_names) {
    JsonValue ev = metadata_event("thread_name", tid, name);
    ev["pid"] = 1;
    trace_events_.push_back(std::move(ev));
  }
  return added;
}

JsonValue ChromeTraceBuilder::to_json() const {
  JsonValue doc = JsonValue::object();
  doc["traceEvents"] = trace_events_;
  doc["displayTimeUnit"] = "ms";
  JsonValue& other = doc["otherData"] = JsonValue::object();
  other["exporter"] = "tridsolve-obs";
  other["process"] = process_name_;
  return doc;
}

bool ChromeTraceBuilder::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "chrome_trace: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  const std::string text = str();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "chrome_trace: short write to %s\n", path.c_str());
  return ok;
}

}  // namespace tridsolve::obs
