#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "obs/metrics.hpp"

namespace perfbench {

void Tally::op(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failed <= 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

void Samples::add(double v) {
  ++count_;
  if (kept_.size() < kCapacity) {
    kept_.push_back(v);
    return;
  }
  // splitmix64 step; the slot is uniform in [0, count_).
  std::uint64_t z = (rng_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  const std::uint64_t slot = (z ^ (z >> 31)) % count_;
  if (slot < kCapacity) kept_[slot] = v;
}

TimingSummary summarize(const std::vector<double>& v) {
  TimingSummary s;
  s.n = s.kept = v.size();
  s.p50 = percentile(v, 50.0);
  for (const double pct : {99.99, 99.9, 99.0, 90.0}) {
    if (static_cast<double>(s.kept) * (1.0 - pct / 100.0) >= 10.0) {
      s.tail_pct = pct;
      s.tail = percentile(v, pct);
      break;
    }
  }
  return s;
}

TimingSummary summarize(const Samples& samples) {
  TimingSummary s = summarize(samples.kept());
  s.n = samples.count();
  return s;
}

CounterSnapshot::CounterSnapshot()
    : values_(tridsolve::obs::MetricsRegistry::instance().counters()) {}

double CounterSnapshot::since(const CounterSnapshot& before,
                              const std::string& name) const {
  const auto now = values_.find(name);
  const auto then = before.values_.find(name);
  return (now == values_.end() ? 0.0 : now->second) -
         (then == before.values_.end() ? 0.0 : then->second);
}

std::map<std::uint64_t, double> span_self_us(
    const std::vector<tridsolve::obs::Span>& spans, const std::string& marker) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const auto& s : spans) {
    if (s.parent != 0 && s.name != marker) {
      children[s.parent].emplace_back(s.wall_t0_us, s.wall_t1_us);
    }
  }
  std::map<std::uint64_t, double> self;
  for (const auto& s : spans) {
    double covered = 0.0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0, cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.wall_t0_us);
        hi = std::min(hi, s.wall_t1_us);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    self[s.id] = (s.wall_t1_us - s.wall_t0_us) - covered;
  }
  return self;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  values_[name] = {value, unit};
  std::printf("  %-44s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::timing(const std::string& what, const TimingSummary& s,
                    const std::string& unit) {
  if (s.tail_pct > 0.0) {
    std::printf("  %-44s n=%zu p50=%.6g p%g=%.6g %s", what.c_str(), s.n,
                s.p50, s.tail_pct, s.tail, unit.c_str());
  } else {
    std::printf("  %-44s n=%zu p50=%.6g %s (too few samples for a tail)",
                what.c_str(), s.n, s.p50, unit.c_str());
  }
  if (s.kept < s.n) {
    std::printf(" (percentiles of a uniform sample of %zu)", s.kept);
  }
  std::printf("\n");
}

double Report::value(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? std::nan("") : it->second.value;
}

bool Report::print_result(const std::vector<std::string>& names,
                          const Tally& tally) const {
  std::string metrics;
  for (const auto& name : names) {
    const auto it = values_.find(name);
    if (it == values_.end() || !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "perfbench: metric %s is missing or not finite\n",
                   name.c_str());
      return false;
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", it->second.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               it->second.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      tally.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed), metrics.c_str());
  std::fflush(stdout);
  return true;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

CpuTimes CpuTimes::now() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user).
  for (int field = 0; field < 8; ++field) {
    double ticks = 0.0;
    if (!(in >> ticks)) break;
    t.total += ticks;
    if (field == 7) t.steal = ticks;
  }
  return t;
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
  const double total = after.total - before.total;
  return total > 0.0 ? (after.steal - before.steal) / total : 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace perfbench
