// Ablation (Fig. 11): tiled-PCR window-to-block mapping variants.
//  (a) one block per system           — the default for many systems
//  (b) a block group per system       — fills the device when M is small,
//                                       at the price of halo re-loads
//  (c) several systems per block      — multiplexed windows hide latency

#include <cstdio>

#include "bench_common.hpp"

using namespace tridsolve;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, util::with_obs_flags({"quick"}));
  const auto dev = gpusim::gtx480();
  const bool quick = cli.get_bool("quick", false);
  bench::Telemetry telemetry(cli, "ablation_variants");

  util::Table table("Fig.11 window variants (double, k per Table III)");
  table.set_header({"M", "N", "k", "(a) 1 blk/sys [us]", "(b) split [us]",
                    "(b) redundant loads", "(c) multi/blk [us]", "best"});

  struct Cfg {
    std::size_t m, n;
  };
  std::vector<Cfg> cfgs{{1, 1 << 20}, {4, 1 << 18}, {16, 1 << 16},
                        {64, 1 << 14}, {256, 1 << 12}};
  if (quick) cfgs = {{2, 1 << 16}, {64, 1 << 12}};

  for (const auto cfg : cfgs) {
    auto run = [&](gpu::WindowVariant v) {
      gpu::HybridOptions opts;
      opts.variant = v;
      return bench::run_ours<double>(dev, cfg.m, cfg.n, opts);
    };
    const auto ra = run(gpu::WindowVariant::one_block_per_system);
    const auto rb = run(gpu::WindowVariant::split_system);
    const auto rc = run(gpu::WindowVariant::multi_system_per_block);
    telemetry.record_hybrid(dev, cfg.m, cfg.n, ra, "hybrid/one_block");
    telemetry.record_hybrid(dev, cfg.m, cfg.n, rb, "hybrid/split");
    telemetry.record_hybrid(dev, cfg.m, cfg.n, rc, "hybrid/multi");

    const double ta = ra.total_us(), tb = rb.total_us(), tc = rc.total_us();
    const char* best = ta <= tb && ta <= tc ? "a" : (tb <= tc ? "b" : "c");
    table.add_row({util::Table::integer(static_cast<long long>(cfg.m)),
                   util::Table::integer(static_cast<long long>(cfg.n)),
                   std::to_string(ra.k), bench::us(ta), bench::us(tb),
                   std::to_string(rb.redundant_loads), bench::us(tc), best});
  }
  bench::emit(table);
  std::puts("expected: (b) wins for very small M (device would otherwise idle,\n"
            "despite its halo re-loads); (a)/(c) win once M provides enough blocks.");
  return 0;
}
