#include "obs/prometheus.hpp"

#include <cstdio>

#include "obs/metrics.hpp"

namespace tridsolve::obs {

namespace {

/// Format a sample value the way Prometheus clients do: shortest float
/// text that round-trips (reuses the JSON number formatter's contract).
std::string sample_value(double v) {
  JsonValue num(v);
  return num.dump();
}

void append_sample(std::string& out, const std::string& name,
                   const std::string& labels, double value) {
  out += name;
  out += labels;
  out += ' ';
  out += sample_value(value);
  out += '\n';
}

}  // namespace

std::string prometheus_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = c >= '0' && c <= '9';
    if (alpha || c == '_' || c == ':' || (digit && !out.empty())) {
      out += c;
    } else {
      out += '_';
    }
  }
  if (out.empty()) out += '_';
  return out;
}

std::string prometheus_text(const MetricsRegistry& registry) {
  std::string out;
  for (const auto& [name, value] : registry.counters()) {
    const std::string pname = prometheus_name(name);
    out += "# TYPE " + pname + " counter\n";
    append_sample(out, pname, "", value);
  }
  for (const auto& [name, value] : registry.gauges()) {
    const std::string pname = prometheus_name(name);
    out += "# TYPE " + pname + " gauge\n";
    append_sample(out, pname, "", value);
  }
  for (const auto& [name, snap] : registry.histograms()) {
    const std::string pname = prometheus_name(name);
    out += "# TYPE " + pname + " summary\n";
    append_sample(out, pname, "{quantile=\"0.5\"}", snap.p50);
    append_sample(out, pname, "{quantile=\"0.9\"}", snap.p90);
    append_sample(out, pname, "{quantile=\"0.99\"}", snap.p99);
    append_sample(out, pname + "_sum", "", snap.sum);
    append_sample(out, pname + "_count", "",
                  static_cast<double>(snap.count));
  }
  return out;
}

bool write_prometheus(const MetricsRegistry& registry,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "prometheus: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  const std::string text = prometheus_text(registry);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "prometheus: short write to %s\n", path.c_str());
  }
  return ok;
}

}  // namespace tridsolve::obs
