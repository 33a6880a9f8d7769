// Table II reproduction: elimination-step cost of Thomas, PCR and the
// k-step hybrid as functions of M (systems), n (log2 system size) and P
// (machine parallelism) — printed from the analytic formulas and
// cross-checked against eliminations *measured* in instrumented runs.

#include <cstdio>

#include "bench_common.hpp"
#include "gpu_solvers/tiled_pcr_kernel.hpp"
#include "gpu_solvers/transition.hpp"
#include "tridiag/thomas.hpp"
#include "tridiag/tiled_pcr.hpp"

using namespace tridsolve;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, util::with_obs_flags({"quick"}));
  const auto dev = gpusim::gtx480();
  const double p = gpu::machine_parallelism(dev);
  const bool quick = cli.get_bool("quick", false);
  bench::Telemetry telemetry(cli, "table2");

  {
    util::Table table("Table II: computation cost [elimination steps] with P=" +
                      std::to_string(static_cast<long long>(p)));
    table.set_header({"M", "n(2^n rows)", "regime", "Thomas", "PCR",
                      "hybrid k=4", "hybrid k=6", "hybrid k=8"});
    const unsigned n = 14;  // 16384-row systems
    for (std::size_t m : {std::size_t{1}, std::size_t{16}, std::size_t{256},
                          std::size_t{4096}, std::size_t{65536}}) {
      table.add_row(
          {util::Table::integer(static_cast<long long>(m)), std::to_string(n),
           static_cast<double>(m) > p ? "M>P" : "M<=P",
           util::Table::num(gpu::cost_thomas(m, n, p), 0),
           util::Table::num(gpu::cost_pcr(m, n, p), 0),
           util::Table::num(gpu::cost_hybrid(m, n, p, 4), 0),
           util::Table::num(gpu::cost_hybrid(m, n, p, 6), 0),
           util::Table::num(gpu::cost_hybrid(m, n, p, 8), 0)});
    }
    bench::emit(table);
  }

  {
    // Measured totals: the instrumented kernels' elimination counters must
    // match the formulas' work terms (k*2^n for PCR; 2*rows-1 per reduced
    // system for Thomas).
    util::Table table("Table II cross-check: measured elimination counts");
    table.set_header({"M", "N", "k", "PCR elims measured", "PCR elims k*M*N",
                      "match"});
    for (unsigned k : {2u, 4u, 6u}) {
      const std::size_t m = 8, n = quick ? 1024 : 4096;
      auto batch = workloads::make_batch<double>(
          workloads::Kind::random_dominant, m, n, tridiag::Layout::contiguous, k);
      std::vector<gpu::TiledPcrWork<double>> work;
      for (std::size_t s = 0; s < m; ++s) {
        work.push_back({batch.system(s), batch.system(s), 0, n});
      }
      gpu::TiledPcrConfig cfg;
      cfg.k = k;
      const auto stats = gpu::tiled_pcr_kernel<double>(dev, work, cfg);
      const std::size_t expected = k * m * n;
      table.add_row({std::to_string(m), std::to_string(n), std::to_string(k),
                     std::to_string(stats.eliminations), std::to_string(expected),
                     stats.eliminations == expected ? "yes" : "NO"});

      // One telemetry record + trace track per cross-checked configuration:
      // the same shape through the full instrumented hybrid at forced k.
      if (telemetry.enabled()) {
        gpu::HybridOptions opts;
        opts.force_k = static_cast<int>(k);
        const auto report = bench::run_ours<double>(dev, m, n, opts);
        telemetry.record_hybrid(dev, m, n, report);
      }
    }
    bench::emit(table);
  }

  std::printf("Thomas steps for one 512-row system: %zu (formula 2n-1)\n",
              tridiag::thomas_elimination_steps(512));
  return 0;
}
