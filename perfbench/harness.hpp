#pragma once
// Measurement plumbing shared by the benchmark's workloads: operation
// tallies, sample summaries, registry counter deltas, span-tree self time
// and the metric sink that prints the final result line.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/span_tracer.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) noexcept {
  return std::chrono::duration<double>(b - a).count();
}

/// Operations attempted and failed. Every timed operation is checked and
/// counts once; an operation with any failed check counts as failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Record one checked operation; `what` names it on failure (stderr).
  void op(bool ok, const std::string& what);
};

/// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample;
/// 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// Timings of one phase in bounded memory: every value up to kCapacity,
/// then a uniform random sample of all values added (reservoir sampling).
/// peak_rss_mb includes the benchmark's own memory, so a sample that grew
/// with the number of requests would make it follow the host's speed.
class Samples {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 15;

  void add(double v);
  /// Values added so far.
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  /// The kept values: all of them, or a uniform sample of kCapacity.
  [[nodiscard]] const std::vector<double>& kept() const noexcept {
    return kept_;
  }

 private:
  std::vector<double> kept_;
  std::size_t count_ = 0;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ull;
};

[[nodiscard]] inline double median(const Samples& s) {
  return median(s.kept());
}

/// A timing as the benchmark reports it: sample count, median, and the
/// highest percentile (of 90, 99, 99.9, 99.99) with at least ten samples
/// beyond it.
struct TimingSummary {
  std::size_t n = 0;
  std::size_t kept = 0;   ///< samples the percentiles come from
  double p50 = 0.0;
  double tail_pct = 0.0;  ///< 0 when fewer than 20 samples
  double tail = 0.0;
};
[[nodiscard]] TimingSummary summarize(const std::vector<double>& v);
[[nodiscard]] TimingSummary summarize(const Samples& s);

/// Snapshot of every registry counter; `since` gives per-name deltas, so
/// process-wide cumulative counters can be read around one phase.
class CounterSnapshot {
 public:
  CounterSnapshot();
  [[nodiscard]] double since(const CounterSnapshot& before,
                             const std::string& name) const;

 private:
  std::map<std::string, double> values_;
};

/// Self time of every span: its wall duration minus the part of it that
/// its child spans cover (children may overlap and run on other threads).
/// Children named `marker` are left out: they mark a lifetime that began
/// before the parent, not work done inside it.
[[nodiscard]] std::map<std::uint64_t, double> span_self_us(
    const std::vector<tridsolve::obs::Span>& spans, const std::string& marker);

/// Metric sink. Text lines go to stdout as metrics are added; the final
/// line is the JSON result object.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Print a timing's count, median and tail (text only).
  static void timing(const std::string& what, const TimingSummary& s,
                     const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const {
    return values_.count(name) != 0;
  }
  /// Value of a metric added earlier (NaN when absent).
  [[nodiscard]] double value(const std::string& name) const;
  /// Print the result line with exactly the metrics in `names` (in that
  /// order). Returns false, printing nothing, when one is missing or not
  /// finite.
  [[nodiscard]] bool print_result(const std::vector<std::string>& names,
                                  const Tally& tally) const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> values_;
};

/// Peak resident set size of this process in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Machine-wide CPU time counters (the "cpu" line of /proc/stat).
struct CpuTimes {
  double steal = 0.0;  ///< time the hypervisor ran something else
  double total = 0.0;

  [[nodiscard]] static CpuTimes now();
};

/// Share of the machine's CPU time between two readings that the
/// hypervisor took away (0 when the kernel reports no steal time).
[[nodiscard]] double steal_share(const CpuTimes& before, const CpuTimes& after);

/// "model name" of the first CPU in /proc/cpuinfo.
[[nodiscard]] std::string cpu_model();

}  // namespace perfbench
