#pragma once
// JSONL bench telemetry sink: one structured JSON record per line.
//
// Benches and examples open a sink when --json <path> is passed and
// append one record per configuration they run (shape, solver, time,
// per-phase split). A disabled (default-constructed) sink swallows
// writes, so call sites need no `if (enabled)` guards. Files are
// truncated per process run and appended to per record, so one bench
// invocation yields one self-contained JSONL trajectory.

#include <cstdio>
#include <memory>
#include <string>

#include "obs/json.hpp"

namespace tridsolve::obs {

class JsonlSink {
 public:
  /// Disabled sink: enabled() is false, write() is a no-op.
  JsonlSink() = default;

  /// Open `path` for writing (truncates any previous contents). Throws
  /// std::runtime_error when the file cannot be opened, so a bench run
  /// asked for telemetry fails loudly instead of silently dropping it.
  explicit JsonlSink(const std::string& path);

  [[nodiscard]] bool enabled() const noexcept { return file_ != nullptr; }

  /// Append `record` as one compact line and flush, so partial bench
  /// runs still leave valid JSONL behind.
  void write(const JsonValue& record);

 private:
  std::shared_ptr<std::FILE> file_;
};

}  // namespace tridsolve::obs
