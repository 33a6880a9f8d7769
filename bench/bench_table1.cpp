// Table I reproduction: properties of the buffered sliding window for
// k-step PCR — sub-tile size, intermediate-results cache, threads per
// block, eliminations per thread / per sub-tile — with the *measured*
// values from the kernel run next to the formulas.

#include <cstdio>

#include "bench_common.hpp"
#include "gpu_solvers/tiled_pcr_kernel.hpp"
#include "tridiag/pcr.hpp"

using namespace tridsolve;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, util::with_obs_flags({"c"}));
  const auto dev = gpusim::gtx480();
  const std::size_t c = static_cast<std::size_t>(cli.get_int("c", 1));

  util::Table table("Table I: buffered sliding window properties (c=" +
                    std::to_string(c) + ", double)");
  table.set_header({"k", "subtile(c*2^k)", "cache<=3*f(k) rows",
                    "threads(2^k)", "elims/thread/subtile(ck)",
                    "elims/subtile(ck2^k)", "shared[B] measured",
                    "shared[B] window(4S)", "fits"});

  for (unsigned k = 1; k <= 8; ++k) {
    const std::size_t subtile = c << k;
    const std::size_t n = 16 * subtile;  // a few sub-tiles worth of system

    auto batch = workloads::make_batch<double>(workloads::Kind::random_dominant,
                                               1, n, tridiag::Layout::contiguous,
                                               k);
    std::vector<gpu::TiledPcrWork<double>> work{
        {batch.system(0), batch.system(0), 0, n}};
    gpu::TiledPcrConfig cfg;
    cfg.k = k;
    cfg.c = c;
    const auto stats = gpu::tiled_pcr_kernel<double>(dev, work, cfg);

    const std::size_t measured_shared = stats.launch.costs.shared_peak_bytes;
    // The paper's window (Fig. 9): top (1 sub-tile) + middle (2 sub-tiles)
    // + bottom (1 sub-tile) = 4 sub-tiles of 4 values per row.
    const std::size_t bound = 4 * subtile * 4 * sizeof(double);
    const std::size_t elims_per_subtile = c * k << k;

    table.add_row({std::to_string(k),
                   std::to_string(subtile),
                   std::to_string(3 * tridiag::pcr_halo(k)),
                   std::to_string(std::size_t{1} << k),
                   std::to_string(c * k),
                   std::to_string(elims_per_subtile),
                   std::to_string(measured_shared),
                   std::to_string(bound),
                   measured_shared <= dev.shared_mem_per_block &&
                           measured_shared <= bound
                       ? "yes"
                       : "NO"});
  }
  bench::emit(table);
  std::puts("measured shared = (2*subtile + 2*f(k)) rows * 4 doubles: the\n"
            "implementation's ping-pong + tail-cache layout, always within\n"
            "the paper's 4-sub-tile window (top + 2x middle + bottom).");
  return 0;
}
