#pragma once
// Process-wide solver metrics registry: named counters and gauges every
// layer of the stack records into, plus RAII scoped host timers.
//
// Counters accumulate (launch counts, redundant loads avoided per the
// paper's Eq. 8-9 model, layout-conversion rows); gauges hold the latest
// value of a decision (the chosen transition point k, the window variant).
// Tests and the bench telemetry sink read the registry back; `to_json`
// dumps the whole state for --metrics-json.
//
// Hot paths (the simulated-launch engine, per-solve accounting) use
// *metric handles*: `Counter h = obs::counter("gpusim.launches")` resolves
// the name once, and `h.add()` is a lock-free atomic add on a stable slot
// — no string hashing or map lookup per event. The string API
// (`obs::count`) remains as a thin wrapper that resolves a handle per
// call, so cold paths and tests stay ergonomic.
//
// All mutation paths are noexcept so instrumentation can live inside
// noexcept solver code: an allocation failure drops the sample instead of
// terminating the process.

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/histogram.hpp"
#include "obs/json.hpp"

namespace tridsolve::obs {

class MetricsRegistry {
 public:
  /// Stable storage cell for one named counter. Slots are created once and
  /// never move or disappear (reset() zeroes them), so handles stay valid
  /// for the process lifetime.
  struct Slot {
    std::string name;
    std::atomic<double> value{0.0};
    std::atomic<bool> touched{false};
  };

  /// Cheap copyable handle to one counter slot: add() is an atomic
  /// read-modify-write with no locking and no string handling.
  class Counter {
   public:
    Counter() = default;

    void add(double delta = 1.0) const noexcept {
      if (!slot_) return;
      slot_->touched.store(true, std::memory_order_relaxed);
      double cur = slot_->value.load(std::memory_order_relaxed);
      while (!slot_->value.compare_exchange_weak(cur, cur + delta,
                                                 std::memory_order_relaxed)) {
      }
    }

    [[nodiscard]] double value() const noexcept {
      return slot_ ? slot_->value.load(std::memory_order_relaxed) : 0.0;
    }

    [[nodiscard]] bool valid() const noexcept { return slot_ != nullptr; }

   private:
    friend class MetricsRegistry;
    explicit Counter(Slot* s) noexcept : slot_(s) {}
    Slot* slot_ = nullptr;
  };

  /// Stable storage cell for one named histogram (same lifetime contract
  /// as counter Slots: created once, never moves, reset() zeroes it).
  struct HistSlot {
    std::string name;
    LogHistogram hist;
  };

  /// Cheap copyable handle to one histogram slot: record() is lock-free
  /// (relaxed atomics) with no string handling — safe on launch hot paths.
  class Histogram {
   public:
    Histogram() = default;

    void record(double value) const noexcept {
      if (slot_) slot_->hist.record(value);
    }

    [[nodiscard]] HistogramSnapshot snapshot() const noexcept {
      return slot_ ? slot_->hist.snapshot() : HistogramSnapshot{};
    }

    [[nodiscard]] bool valid() const noexcept { return slot_ != nullptr; }

   private:
    friend class MetricsRegistry;
    explicit Histogram(HistSlot* s) noexcept : slot_(s) {}
    HistSlot* slot_ = nullptr;
  };

  /// The process-wide registry (benches, examples and tests share it).
  [[nodiscard]] static MetricsRegistry& instance() noexcept;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolve (creating on first use) the handle for counter `name`.
  /// Returns an invalid handle only if slot allocation fails.
  [[nodiscard]] Counter handle(std::string_view name) noexcept;

  /// Add `delta` to counter `name` (created at zero on first use).
  void add(std::string_view name, double delta = 1.0) noexcept {
    handle(name).add(delta);
  }

  /// Set gauge `name` to `value`.
  void set(std::string_view name, double value) noexcept;

  /// Current counter value; 0 when never incremented.
  [[nodiscard]] double counter(std::string_view name) const noexcept;

  /// Latest gauge value; 0 when never set.
  [[nodiscard]] double gauge(std::string_view name) const noexcept;

  /// Resolve (creating on first use) the handle for histogram `name`.
  /// Returns an invalid (no-op) handle only if slot allocation fails.
  [[nodiscard]] Histogram histogram(std::string_view name) noexcept;

  /// Record one sample into histogram `name` (cold-path convenience).
  void observe(std::string_view name, double value) noexcept {
    histogram(name).record(value);
  }

  [[nodiscard]] std::map<std::string, double> counters() const;
  [[nodiscard]] std::map<std::string, double> gauges() const;

  /// Snapshots of every histogram that has recorded at least one sample.
  [[nodiscard]] std::map<std::string, HistogramSnapshot> histograms() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} snapshot.
  /// Each histogram dumps {count, sum, min, max, mean, p50, p90, p99}.
  [[nodiscard]] JsonValue to_json() const;

  /// Drop every counter and gauge (tests isolate themselves with this).
  /// Handles stay valid: their slots are zeroed, not destroyed.
  void reset() noexcept;

 private:
  [[nodiscard]] const Slot* find_slot(std::string_view name) const noexcept;

  // Snapshot-path safety note: every read API (counters()/gauges()/
  // histograms()/to_json()) takes mu_ only to walk the name maps; the
  // values themselves live in atomics (counter slots, histogram buckets)
  // that concurrent add()/record() mutate without the lock. A snapshot is
  // therefore always a consistent *per-metric* read (no torn doubles),
  // racing writers just land in this snapshot or the next — pinned by the
  // multi-threaded registry test.
  mutable std::mutex mu_;
  std::deque<Slot> slots_;  // deque: stable addresses as slots are added
  std::map<std::string, Slot*, std::less<>> by_name_;
  std::map<std::string, double, std::less<>> gauges_;
  std::deque<HistSlot> hist_slots_;  // deque: stable addresses, like slots_
  std::map<std::string, HistSlot*, std::less<>> hist_by_name_;
};

/// Shorthands against the process-wide registry.
inline void count(std::string_view name, double delta = 1.0) noexcept {
  MetricsRegistry::instance().add(name, delta);
}
inline void gauge(std::string_view name, double value) noexcept {
  MetricsRegistry::instance().set(name, value);
}
/// Resolve a cached counter handle (do this once at a registration site,
/// not per event).
[[nodiscard]] inline MetricsRegistry::Counter counter_handle(
    std::string_view name) noexcept {
  return MetricsRegistry::instance().handle(name);
}
/// Record one histogram sample (cold paths / tests).
inline void observe(std::string_view name, double value) noexcept {
  MetricsRegistry::instance().observe(name, value);
}
/// Resolve a cached histogram handle (once per registration site).
[[nodiscard]] inline MetricsRegistry::Histogram histogram_handle(
    std::string_view name) noexcept {
  return MetricsRegistry::instance().histogram(name);
}

/// RAII wall-clock timer: on destruction adds the elapsed microseconds to
/// counter "<name>.time_us" and bumps "<name>.calls". Measures *host*
/// orchestration time, complementing the simulated GPU timeline. The
/// handle constructor avoids all per-call string work for hot call sites.
class ScopedTimer {
 public:
  explicit ScopedTimer(const std::string& name) noexcept
      : ScopedTimer(counter_handle(name + ".time_us"),
                    counter_handle(name + ".calls")) {}

  ScopedTimer(MetricsRegistry::Counter time_us,
              MetricsRegistry::Counter calls) noexcept
      : time_us_(time_us),
        calls_(calls),
        start_(std::chrono::steady_clock::now()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    time_us_.add(std::chrono::duration<double, std::micro>(elapsed).count());
    calls_.add();
  }

 private:
  MetricsRegistry::Counter time_us_;
  MetricsRegistry::Counter calls_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace tridsolve::obs
