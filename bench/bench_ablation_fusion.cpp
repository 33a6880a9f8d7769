// Ablation (§III.C): kernel fusion of tiled PCR + p-Thomas forward.
// Fusion removes one kernel launch and the reduced system's store/reload
// round trip, but binds the p-Thomas work to the PCR kernel's
// shared-memory occupancy — so it "should be carefully used when a large
// number of parallel workload is envisioned".

#include <cstdio>

#include "bench_common.hpp"

using namespace tridsolve;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, util::with_obs_flags({"quick"}));
  const auto dev = gpusim::gtx480();
  const bool quick = cli.get_bool("quick", false);
  bench::Telemetry telemetry(cli, "ablation_fusion");

  util::Table table("Kernel fusion ablation (double, k per Table III)");
  table.set_header({"M", "N", "k", "unfused[us]", "fused[us]", "fused/unfused",
                    "unfused bytes", "fused bytes", "launches u/f"});

  struct Cfg {
    std::size_t m, n;
  };
  std::vector<Cfg> cfgs{{4, 65536}, {16, 32768}, {64, 8192},
                        {256, 4096}, {512, 2048}};
  if (quick) cfgs = {{16, 16384}, {256, 2048}};

  for (const auto cfg : cfgs) {
    gpu::HybridOptions plain;
    plain.variant = gpu::WindowVariant::one_block_per_system;
    const auto rp = bench::run_ours<double>(dev, cfg.m, cfg.n, plain);

    gpu::HybridOptions fused = plain;
    fused.fuse = true;
    const auto rf = bench::run_ours<double>(dev, cfg.m, cfg.n, fused);
    telemetry.record_hybrid(dev, cfg.m, cfg.n, rp, "hybrid");
    telemetry.record_hybrid(dev, cfg.m, cfg.n, rf, "hybrid_fused");

    auto bytes = [](const gpu::HybridReport& r) {
      std::size_t total = 0;
      for (const auto& seg : r.timeline.segments()) {
        total += seg.stats.costs.bytes_requested;
      }
      return total;
    };
    table.add_row({util::Table::integer(static_cast<long long>(cfg.m)),
                   util::Table::integer(static_cast<long long>(cfg.n)),
                   std::to_string(rp.k), bench::us(rp.total_us()),
                   bench::us(rf.total_us()),
                   util::Table::num(rf.total_us() / rp.total_us(), 2),
                   std::to_string(bytes(rp)), std::to_string(bytes(rf)),
                   std::to_string(rp.timeline.segments().size()) + "/" +
                       std::to_string(rf.timeline.segments().size())});
  }
  bench::emit(table);
  return 0;
}
