// What-if study (§III.A: "the ability to keep the number of PCR steps
// under control expands the portability of our method to virtually all
// GPUs"): run the same workloads on different device models — the GTX480,
// the older GTX280 (30 small SMs, 16 KB shared), and a hypothetical
// double-bandwidth Fermi — and show the hybrid adapting: the cost-model
// transition point shifts with machine parallelism, and in-shared
// baselines lose applicability on the smaller-shared-memory part.

#include <cstdio>

#include "bench_common.hpp"
#include "gpu_solvers/registry.hpp"

using namespace tridsolve;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, util::with_obs_flags({"quick"}));
  const bool quick = cli.get_bool("quick", false);

  auto fat_fermi = gpusim::gtx480();
  fat_fermi.name = "GTX480-2xBW";
  fat_fermi.mem_bandwidth_gbps *= 2.0;

  const std::vector<gpusim::DeviceSpec> devices{gpusim::gtx480(),
                                                gpusim::gtx280(), fat_fermi};

  struct Cfg {
    std::size_t m, n;
  };
  std::vector<Cfg> cfgs{{4096, 512}, {64, 8192}, {1, 1 << 19}};
  if (quick) cfgs = {{1024, 512}, {16, 8192}};

  for (const auto cfg : cfgs) {
    util::Table table("M=" + std::to_string(cfg.m) +
                      " N=" + std::to_string(cfg.n) +
                      " (double) across devices, time [us]");
    table.set_header({"device", "hybrid", "detail", "model k", "Zhang",
                      "Davidson"});
    for (const auto& dev : devices) {
      const auto batch = workloads::make_batch<double>(
          workloads::Kind::random_dominant, cfg.m, cfg.n,
          gpu::preferred_layout(cfg.m, cfg.n), 42);
      const auto hybrid = gpu::run_solver(gpu::SolverKind::hybrid, dev, batch);
      const auto zhang = gpu::run_solver(gpu::SolverKind::zhang, dev, batch);
      const auto dav = gpu::run_solver(gpu::SolverKind::davidson, dev, batch);
      table.add_row(
          {dev.name, bench::us(hybrid.time_us), hybrid.detail,
           std::to_string(gpu::model_best_k(cfg.m, cfg.n, dev)),
           zhang.supported ? bench::us(zhang.time_us) : "n/a: " + zhang.detail,
           dav.supported ? bench::us(dav.time_us) : "n/a: " + dav.detail});
    }
    bench::emit(table);
  }
  std::puts("expected: the GTX280 (16KB shared) rejects in-shared baselines\n"
            "earlier; the hybrid runs everywhere, and its cost-model k shifts\n"
            "with the machine's parallelism.");
  return 0;
}
