#pragma once
// Minimal command-line flag parser for the bench/example binaries.
//
// Supports `--name=value` and `--name value` forms plus boolean switches.
// Unknown flags and bare words (an argument that is neither a flag nor a
// flag's value) are errors so bench sweeps fail loudly instead of
// silently running the default configuration. `--help` prints the
// accepted flags (one per line, machine-parseable — tools/check_docs
// cross-checks them against the README flag reference) and exits 0.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tridsolve::util {

/// Parsed command line: the flag map.
class Cli {
 public:
  /// Parse argv. `known_flags` lists every accepted flag name (without
  /// the leading dashes); any other flag, and any bare word, throws
  /// std::invalid_argument.
  Cli(int argc, const char* const* argv, std::vector<std::string> known_flags);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  /// on/off, true/false, yes/no or 1/0; a bare switch reads true. Any
  /// other value throws std::invalid_argument naming the flag.
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

 private:
  std::map<std::string, std::string> flags_;
};

/// The observability flags every bench/example accepts on top of its own:
///   --json <path>         append one JSONL telemetry record per config
///   --trace-json <path>   write a Chrome trace-event (Perfetto) file
///   --metrics-json <path> dump the metrics registry at exit
///   --spans-json <path>   enable causal span tracing; write spans JSONL
///   --sim-threads N       simulator worker threads (0 = default)
///   --instrument MODE     exact | sampled (default) | functional_only
///   --vector {on,off}     vectorized p-Thomas lane sweeps: grid-wide in
///                         functional solves, per unobserved block otherwise
///                         (default on; off = per-block kernel bodies)
///   --check-hazards [MODE] shared-memory hazard detection: detect | fatal
///   --fault-seed N        fault-injection seed (deterministic site choice)
///   --fault-rate R        per-site injection probability in [0,1]
///   --fault-kinds LIST    comma list: flip,shared,nan,launch,timeout | all
///   --deadline-us US      resilient-solve simulated-time budget (0 = off)
///   --max-retries N       resilient-solve re-dispatches per stage
///   --plan-file FILE      preload a plan-cache calibration file
///                         (bench_autotune --out format)
/// Returns `flags` with those names appended, for the Cli constructor.
[[nodiscard]] std::vector<std::string> with_obs_flags(
    std::vector<std::string> flags);

}  // namespace tridsolve::util
