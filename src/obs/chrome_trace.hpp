#pragma once
// Chrome trace-event exporter: converts simulated `gpusim::Timeline`s
// into a trace.json loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// Each timeline becomes one track (a trace "thread"); each segment
// becomes one complete duration event ("ph":"X") laid out back-to-back
// in simulated time, carrying the launch's full stats as args: grid x
// block, occupancy + limiting resource, binding bound, transactions,
// coalescing efficiency, bank-conflict replays and barriers. Timestamps
// are microseconds, which is exactly the Chrome trace `ts`/`dur` unit.

#include <cstddef>
#include <string>
#include <vector>

#include "gpusim/device_spec.hpp"
#include "gpusim/launch.hpp"
#include "obs/json.hpp"
#include "obs/span_tracer.hpp"

namespace tridsolve::obs {

class ChromeTraceBuilder {
 public:
  explicit ChromeTraceBuilder(std::string process_name = "tridsolve-sim");

  /// Append every segment of `timeline` as one new track named
  /// `track_name`. Events start at the track's cursor (0 for a fresh
  /// track) and are laid out contiguously. Returns the track's tid.
  int add_timeline(const gpusim::DeviceSpec& dev,
                   const gpusim::Timeline& timeline,
                   const std::string& track_name);

  /// Append causal spans (SpanTracer output) as wall-clock duration
  /// events on pid 1 (timeline tracks live on pid 0). Track layout keeps
  /// the validator's per-(pid,tid) non-overlap invariant: tid =
  /// thread_ordinal * 8 + min(tree depth, 7), so nested spans land on
  /// distinct tracks while same-depth spans from one thread are
  /// sequential by construction. Each parent -> child edge additionally
  /// becomes a flow-event pair ("s"/"f", id = child span id) so Perfetto
  /// draws the causal arrows. Returns the number of duration events
  /// added.
  std::size_t add_spans(const std::vector<Span>& spans);

  /// The full document: {"traceEvents": [...], "displayTimeUnit": "ms",
  /// "otherData": {"exporter", "process"}}.
  [[nodiscard]] JsonValue to_json() const;

  [[nodiscard]] std::string str() const { return to_json().dump(1); }

  /// Serialize to `path`; false (with a note on stderr) on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  std::string process_name_;
  JsonValue trace_events_ = JsonValue::array();
  int next_tid_ = 0;
};

}  // namespace tridsolve::obs
