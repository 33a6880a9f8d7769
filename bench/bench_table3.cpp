// Table III reproduction: the empirical k-step transition point per M
// range on the GTX480. For each representative M we sweep every feasible k
// through the full simulated hybrid and report the fastest, next to the
// paper's heuristic (M<16 -> 8, <32 -> 7, <512 -> 6, <1024 -> 5, else 0).

#include <cstdio>
#include <limits>

#include "bench_common.hpp"
#include "gpu_solvers/transition.hpp"

using namespace tridsolve;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, util::with_obs_flags({"n", "quick"}));
  const auto dev = gpusim::gtx480();
  // System size chosen so every k in 0..8 is feasible; total work is kept
  // comparable across rows by shrinking N as M grows.
  const bool quick = cli.get_bool("quick", false);
  bench::Telemetry telemetry(cli, "table3");

  util::Table table("Table III: best k-step per M (simulated sweep vs paper)");
  table.set_header({"M", "N", "best k (sim)", "time[us] best", "paper k",
                    "time[us] paper k", "tile size 2^k", "model k (Table II)"});

  struct RowCfg {
    std::size_t m, n;
  };
  std::vector<RowCfg> rows{{1, 1 << 18}, {8, 1 << 16}, {16, 1 << 15},
                           {64, 1 << 13}, {512, 1 << 11}, {1024, 1 << 10},
                           {4096, 1 << 9}};
  if (quick) rows = {{8, 1 << 14}, {64, 1 << 12}, {2048, 1 << 9}};

  for (const auto cfg : rows) {
    unsigned best_k = 0;
    double best_t = std::numeric_limits<double>::infinity();
    double paper_t = 0.0;
    const unsigned paper_k = gpu::heuristic_k(cfg.m, cfg.n);
    for (unsigned k = 0; k <= 8; ++k) {
      if ((std::size_t{1} << k) > cfg.n / 2) break;
      gpu::HybridOptions opts;
      opts.force_k = static_cast<int>(k);
      const auto rep = bench::run_ours<double>(dev, cfg.m, cfg.n, opts);
      telemetry.record_hybrid(dev, cfg.m, cfg.n, rep);
      if (rep.total_us() < best_t) {
        best_t = rep.total_us();
        best_k = k;
      }
      if (k == paper_k) paper_t = rep.total_us();
    }
    table.add_row({util::Table::integer(static_cast<long long>(cfg.m)),
                   util::Table::integer(static_cast<long long>(cfg.n)),
                   std::to_string(best_k), bench::us(best_t),
                   std::to_string(paper_k), bench::us(paper_t),
                   std::to_string(std::size_t{1} << paper_k),
                   std::to_string(gpu::model_best_k(cfg.m, cfg.n, dev))});
  }
  bench::emit(table);
  std::puts("paper Table III: M<16 -> k=8 (tile 256), 16<=M<32 -> 7, "
            "32<=M<512 -> 6, 512<=M<1024 -> 5, M>=1024 -> 0");
  return 0;
}
