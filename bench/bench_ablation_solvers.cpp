// Ablation: the hybrid against the other GPU solver families the paper
// surveys — in-shared CR [3][10], in-shared PCR-Thomas (Zhang [16][17]),
// Davidson-style stepped hybrid [19] — on small systems where all apply,
// plus the large-system regime where only ours and Davidson survive
// (the shared-memory capacity critique of §I).

#include <cstdio>

#include "bench_common.hpp"
#include "gpu_solvers/cr_kernel.hpp"
#include "gpu_solvers/davidson.hpp"
#include "gpu_solvers/partition_kernel.hpp"
#include "gpu_solvers/zhang_pcr_thomas.hpp"

using namespace tridsolve;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, util::with_obs_flags({"quick"}));
  const auto dev = gpusim::gtx480();
  const bool quick = cli.get_bool("quick", false);
  bench::Telemetry telemetry(cli, "ablation_solvers");

  util::Table table("GPU solver families, execution time [us] (double)");
  table.set_header({"M", "N", "Ours", "Zhang in-shared", "CR in-shared",
                    "Davidson", "Partition[18]", "notes"});

  struct Cfg {
    std::size_t m, n;
  };
  std::vector<Cfg> cfgs{{512, 256}, {1024, 512}, {4096, 1024},
                        {256, 4096}, {16, 65536}};
  if (quick) cfgs = {{512, 256}, {16, 16384}};

  for (const auto cfg : cfgs) {
    const auto ours = bench::run_ours<double>(dev, cfg.m, cfg.n);
    telemetry.record_hybrid(dev, cfg.m, cfg.n, ours);

    auto fresh = [&] {
      return workloads::make_batch<double>(workloads::Kind::random_dominant,
                                           cfg.m, cfg.n,
                                           tridiag::Layout::contiguous, 42);
    };
    std::string zhang = "n/a (exceeds shared)";
    if (gpu::zhang_fits(dev, cfg.n, sizeof(double))) {
      auto b = fresh();
      zhang = bench::us(gpu::zhang_solve<double>(dev, b).timing.time_us);
    }
    std::string cr = "n/a (exceeds shared)";
    if (gpu::zhang_fits(dev, std::bit_ceil(cfg.n), sizeof(double))) {
      auto b = fresh();
      cr = bench::us(gpu::cr_kernel_solve<double>(dev, b).timing.time_us);
    }
    auto b = fresh();
    const auto dav = gpu::davidson_solve<double>(dev, b);
    auto b2 = fresh();
    const auto part = gpu::partition_solve_gpu<double>(dev, b2);

    table.add_row({util::Table::integer(static_cast<long long>(cfg.m)),
                   util::Table::integer(static_cast<long long>(cfg.n)),
                   bench::us(ours.total_us()), zhang, cr,
                   bench::us(dav.total_us()), bench::us(part.total_us()),
                   cfg.n > gpu::zhang_max_rows(dev, sizeof(double))
                       ? "large system: in-shared methods inapplicable"
                       : ""});
  }
  bench::emit(table);
  return 0;
}
