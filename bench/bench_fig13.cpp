// Figure 13 reproduction: execution time vs system size N for fixed
// numbers of systems M = 2048, 256, 16, 1 (double precision), plus the
// §IV text's tiled-PCR share of the runtime.
//
// Paper's headlines from this figure: up to 5x / 30x over multithreaded /
// sequential MKL at M = 2048; ~5.5x even for a single very large system;
// tiled PCR contributes 6.25% / 36.2% / ~55% of the runtime for
// M = 256 / 16 / 1.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"

using namespace tridsolve;

namespace {

void panel(const gpusim::DeviceSpec& dev, const cpu::CpuModel& cpu_model,
           std::size_t m, const std::vector<std::size_t>& sizes,
           bool include_mt, bench::Telemetry& telemetry) {
  util::Table table("Fig.13 M=" + std::to_string(m) +
                    " (double), execution time [ms] vs N");
  std::vector<std::string> header{"N", "MKL(seq)"};
  if (include_mt) header.push_back("MKL(8thr)");
  header.insert(header.end(),
                {"Ours(sim)", "k", "pcr_share", "speedup_seq"});
  table.set_header(header);

  for (std::size_t n : sizes) {
    const double seq = cpu_model.sequential_us(m, n, /*fp64=*/true);
    const double mt = cpu_model.multithreaded_us(m, n, true);
    const auto ours = bench::run_ours<double>(dev, m, n);
    std::vector<std::string> row{util::Table::integer(static_cast<long long>(n)),
                                 bench::ms(seq)};
    if (include_mt) row.push_back(bench::ms(mt));
    row.insert(row.end(),
               {bench::ms(ours.total_us()), std::to_string(ours.k),
                util::Table::num(100.0 * ours.pcr_fraction(), 1) + "%",
                bench::ratio(seq / ours.total_us())});
    table.add_row(std::move(row));
    obs::JsonValue extra = obs::JsonValue::object();
    extra["mkl_seq_us"] = seq;
    extra["mkl_mt_us"] = mt;
    telemetry.record_hybrid(dev, m, n, ours, "hybrid", std::move(extra));
  }
  bench::emit(table);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, util::with_obs_flags({"quick"}));
  const auto dev = gpusim::gtx480();
  const cpu::CpuModel cpu_model;
  const bool quick = cli.get_bool("quick", false);
  bench::Telemetry telemetry(cli, "fig13");

  // Panel (a): M = 2048, N = 256..8K.
  panel(dev, cpu_model, 2048,
        quick ? std::vector<std::size_t>{256, 1024, 4096}
              : std::vector<std::size_t>{256, 512, 1024, 2048, 4096, 8192},
        /*include_mt=*/true, telemetry);
  // Panel (b): M = 256, N = 4K..32K.
  panel(dev, cpu_model, 256,
        quick ? std::vector<std::size_t>{4096, 16384}
              : std::vector<std::size_t>{4096, 8192, 16384, 32768},
        true, telemetry);
  // Panel (c): M = 16, N = 16K..128K.
  panel(dev, cpu_model, 16,
        quick ? std::vector<std::size_t>{16384, 65536}
              : std::vector<std::size_t>{16384, 32768, 65536, 131072},
        true, telemetry);
  // Panel (d): M = 1, N = 0.5M..8M (no MT series: gtsv is not threaded).
  panel(dev, cpu_model, 1,
        quick ? std::vector<std::size_t>{std::size_t{1} << 19}
              : std::vector<std::size_t>{std::size_t{1} << 19,
                                         std::size_t{1} << 21,
                                         std::size_t{1} << 23},
        false, telemetry);
  std::puts("(paper §IV: pcr_share ~55% at M=1; 36.2% at M=16; 6.25% at "
            "M=256 — see EXPERIMENTS.md for the simulator's deviation at "
            "mid-M)");
  return 0;
}
