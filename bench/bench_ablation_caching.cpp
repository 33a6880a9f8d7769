// Ablation (§III.A, Fig. 7-8, Eqs. 8-9): dependency caching vs naive halo
// tiling. Measures the redundant loads f(k) and redundant eliminations
// g(k) per tile boundary that the buffered sliding window eliminates.

#include <cstdint>
#include <cstdio>

#include "bench_common.hpp"
#include "tridiag/pcr.hpp"
#include "tridiag/tiled_pcr.hpp"

using namespace tridsolve;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, util::with_obs_flags({"n", "tile"}));
  const std::int64_t n_arg = cli.get_int("n", 65536);
  const std::int64_t tile_arg = cli.get_int("tile", 256);
  // Eqs. 8-9 count whole tiles: n / tile - 1 interior boundaries.
  if (tile_arg <= 0 || tile_arg >= n_arg || n_arg % tile_arg != 0) {
    std::fprintf(stderr,
                 "bench_ablation_caching: --tile must be positive, smaller "
                 "than --n and divide it (n=%lld, tile=%lld)\n",
                 static_cast<long long>(n_arg), static_cast<long long>(tile_arg));
    return 2;
  }
  const auto n = static_cast<std::size_t>(n_arg);
  const auto tile = static_cast<std::size_t>(tile_arg);
  const std::size_t boundaries = n / tile - 1;

  util::Table table("Naive halo tiling vs dependency caching (n=" +
                    std::to_string(n) + ", tile=" + std::to_string(tile) + ")");
  table.set_header({"k", "f(k)", "g(k)", "naive redundant loads",
                    "= 2*f(k)*bnds", "naive redundant elims", "= 2*g(k)*bnds",
                    "cached redundant loads", "cached redundant elims",
                    "cached live rows (2f(k)+k)"});

  for (unsigned k = 1; k <= 8; ++k) {
    auto naive = workloads::make_batch<double>(workloads::Kind::random_dominant,
                                               1, n, tridiag::Layout::contiguous,
                                               k);
    auto cached = naive.clone();
    const auto nc = tridiag::naive_tiled_pcr_reduce(naive.system(0), k, tile);
    const auto cc = tridiag::tiled_pcr_reduce(cached.system(0), k);

    table.add_row({std::to_string(k),
                   std::to_string(tridiag::pcr_halo(k)),
                   std::to_string(tridiag::pcr_redundant_elims(k)),
                   std::to_string(nc.redundant_loads(n)),
                   std::to_string(2 * tridiag::pcr_halo(k) * boundaries),
                   std::to_string(nc.redundant_elims(n, k)),
                   std::to_string(2 * tridiag::pcr_redundant_elims(k) * boundaries),
                   std::to_string(cc.redundant_loads(n)),
                   std::to_string(cc.redundant_elims(n, k)),
                   std::to_string(cc.cache_rows_peak)});
  }
  bench::emit(table);
  std::puts("Eq. 8: f(k) = 2^k - 1 redundant loads per boundary side;\n"
            "Eq. 9: g(k) = k*2^k - 2^{k+1} + 2 redundant eliminations.\n"
            "Both grow exponentially in k; the sliding window's totals are 0.");
  return 0;
}
