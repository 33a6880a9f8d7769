#include "obs/metrics.hpp"

namespace tridsolve::obs {

MetricsRegistry& MetricsRegistry::instance() noexcept {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Counter MetricsRegistry::handle(
    std::string_view name) noexcept {
  try {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_name_.find(name);
    if (it != by_name_.end()) return Counter(it->second);
    Slot& slot = slots_.emplace_back();
    slot.name = std::string(name);
    by_name_.emplace(slot.name, &slot);
    return Counter(&slot);
  } catch (...) {
    // Drop the sample rather than propagate from instrumentation.
    return Counter();
  }
}

void MetricsRegistry::set(std::string_view name, double value) noexcept {
  try {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = gauges_.find(name);
    if (it != gauges_.end()) {
      it->second = value;
    } else {
      gauges_.emplace(std::string(name), value);
    }
  } catch (...) {
  }
}

MetricsRegistry::Histogram MetricsRegistry::histogram(
    std::string_view name) noexcept {
  try {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = hist_by_name_.find(name);
    if (it != hist_by_name_.end()) return Histogram(it->second);
    HistSlot& slot = hist_slots_.emplace_back();
    slot.name = std::string(name);
    hist_by_name_.emplace(slot.name, &slot);
    return Histogram(&slot);
  } catch (...) {
    // Drop the sample rather than propagate from instrumentation.
    return Histogram();
  }
}

std::map<std::string, HistogramSnapshot> MetricsRegistry::histograms() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, HistogramSnapshot> out;
  for (const HistSlot& slot : hist_slots_) {
    if (slot.hist.count() > 0) out.emplace(slot.name, slot.hist.snapshot());
  }
  return out;
}

const MetricsRegistry::Slot* MetricsRegistry::find_slot(
    std::string_view name) const noexcept {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

double MetricsRegistry::counter(std::string_view name) const noexcept {
  const Slot* slot = find_slot(name);
  return slot ? slot->value.load(std::memory_order_relaxed) : 0.0;
}

double MetricsRegistry::gauge(std::string_view name) const noexcept {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

std::map<std::string, double> MetricsRegistry::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const Slot& slot : slots_) {
    if (slot.touched.load(std::memory_order_relaxed)) {
      out.emplace(slot.name, slot.value.load(std::memory_order_relaxed));
    }
  }
  return out;
}

std::map<std::string, double> MetricsRegistry::gauges() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {gauges_.begin(), gauges_.end()};
}

JsonValue MetricsRegistry::to_json() const {
  JsonValue out = JsonValue::object();
  JsonValue& c = out["counters"] = JsonValue::object();
  JsonValue& g = out["gauges"] = JsonValue::object();
  JsonValue& h = out["histograms"] = JsonValue::object();
  for (const auto& [name, value] : counters()) c[name] = value;
  for (const auto& [name, value] : gauges()) g[name] = value;
  for (const auto& [name, snap] : histograms()) {
    JsonValue& entry = h[name] = JsonValue::object();
    entry["count"] = snap.count;
    entry["sum"] = snap.sum;
    entry["min"] = snap.min;
    entry["max"] = snap.max;
    entry["mean"] = snap.mean();
    entry["p50"] = snap.p50;
    entry["p90"] = snap.p90;
    entry["p99"] = snap.p99;
  }
  return out;
}

void MetricsRegistry::reset() noexcept {
  const std::lock_guard<std::mutex> lock(mu_);
  for (Slot& slot : slots_) {
    slot.value.store(0.0, std::memory_order_relaxed);
    slot.touched.store(false, std::memory_order_relaxed);
  }
  for (HistSlot& slot : hist_slots_) slot.hist.reset();
  gauges_.clear();
}

}  // namespace tridsolve::obs
