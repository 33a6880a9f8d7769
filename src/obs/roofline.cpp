#include "obs/roofline.hpp"

namespace tridsolve::obs {

JsonValue RooflineAttribution::to_json() const {
  JsonValue out = JsonValue::object();
  out["time_us"] = time_us;
  out["bytes_global"] = bytes_global;
  out["bytes_shared"] = bytes_shared;
  out["flops_f32"] = flops_f32;
  out["flops_f64"] = flops_f64;
  out["achieved_gbps"] = achieved_gbps;
  out["peak_gbps"] = peak_gbps;
  out["achieved_gflops"] = achieved_gflops;
  out["frac_bandwidth"] = frac_bandwidth;
  out["frac_compute"] = frac_compute;
  out["intensity"] = intensity;
  out["bound"] = bound;
  return out;
}

RooflineAttribution attribute_roofline(const gpusim::DeviceSpec& dev,
                                       const gpusim::KernelCosts& costs,
                                       double time_us) {
  RooflineAttribution r;
  r.time_us = time_us;
  r.bytes_global = static_cast<double>(costs.transactions) *
                   static_cast<double>(dev.transaction_bytes);
  r.bytes_shared = static_cast<double>(costs.shared_bytes);
  r.flops_f32 = costs.ops_f32;
  r.flops_f64 = costs.ops_f64;
  r.peak_gbps = dev.mem_bandwidth_gbps;
  if (r.bytes_global > 0.0) {
    r.intensity = (r.flops_f32 + r.flops_f64) / r.bytes_global;
  }
  if (time_us > 0.0) {
    // bytes/us == 1e6 B/s, so GB/s = (bytes/us) / 1000; same for GFLOP/s.
    r.achieved_gbps = r.bytes_global / time_us / 1000.0;
    r.achieved_gflops = (r.flops_f32 + r.flops_f64) / time_us / 1000.0;
    if (r.peak_gbps > 0.0) r.frac_bandwidth = r.achieved_gbps / r.peak_gbps;
    const double peak_f32 = dev.peak_gflops(/*fp64=*/false);
    const double peak_f64 = dev.peak_gflops(/*fp64=*/true);
    double util = 0.0;
    if (peak_f32 > 0.0) util += (r.flops_f32 / time_us / 1000.0) / peak_f32;
    if (peak_f64 > 0.0) util += (r.flops_f64 / time_us / 1000.0) / peak_f64;
    r.frac_compute = util;
  }
  r.bound = r.frac_compute > r.frac_bandwidth ? "compute" : "bandwidth";
  return r;
}

std::map<std::string, RooflineAttribution> attribute_timeline(
    const gpusim::DeviceSpec& dev, const gpusim::Timeline& timeline) {
  struct Acc {
    gpusim::KernelCosts costs;
    double time_us = 0.0;
  };
  std::map<std::string, Acc> by_label;
  for (const auto& seg : timeline.segments()) {
    if (!seg.stats.timed) continue;
    Acc& acc = by_label[seg.label];
    acc.costs.merge(seg.stats.costs);
    acc.time_us += seg.stats.timing.time_us;
  }
  std::map<std::string, RooflineAttribution> out;
  for (const auto& [label, acc] : by_label) {
    out.emplace(label, attribute_roofline(dev, acc.costs, acc.time_us));
  }
  return out;
}

}  // namespace tridsolve::obs
