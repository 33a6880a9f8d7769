// Figure 12 reproduction: execution time vs number of systems M for fixed
// system sizes N = 512, 2048, 16384 (double precision), three series:
// sequential MKL, multithreaded MKL, Ours (GTX480).
//
// Paper's headline from this figure: up to 49x over sequential and 8.3x
// over multithreaded MKL at N = 512; a flat "underutilized" region for
// M < ~4096 and linear scaling beyond.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"

using namespace tridsolve;

namespace {

template <typename T>
void panel(const gpusim::DeviceSpec& dev, const cpu::CpuModel& cpu_model,
           std::size_t n, std::size_t m_max, bench::Telemetry& telemetry) {
  const bool fp64 = sizeof(T) == 8;
  util::Table table("Fig.12 N=" + std::to_string(n) + " (" +
                    (fp64 ? "double" : "single") +
                    "), execution time [us] vs M");
  table.set_header({"M", "MKL(seq)", "MKL(mt)", "Ours(sim)", "k", "speedup_seq",
                    "speedup_mt"});
  double best_seq = 0.0, best_mt = 0.0;
  for (std::size_t m = 64; m <= m_max; m *= 2) {
    const double seq = cpu_model.sequential_us(m, n, fp64);
    const double mt = cpu_model.multithreaded_us(m, n, fp64);
    const auto ours = bench::run_ours<T>(dev, m, n);
    best_seq = std::max(best_seq, seq / ours.total_us());
    best_mt = std::max(best_mt, mt / ours.total_us());
    table.add_row({util::Table::integer(static_cast<long long>(m)),
                   bench::us(seq), bench::us(mt), bench::us(ours.total_us()),
                   std::to_string(ours.k), bench::ratio(seq / ours.total_us()),
                   bench::ratio(mt / ours.total_us())});
    obs::JsonValue extra = obs::JsonValue::object();
    extra["precision"] = fp64 ? "double" : "single";
    extra["mkl_seq_us"] = seq;
    extra["mkl_mt_us"] = mt;
    telemetry.record_hybrid(dev, m, n, ours, "hybrid", std::move(extra));
  }
  bench::emit(table);
  std::printf("  peak speedup at N=%zu (%s): %.1fx over sequential, %.1fx over "
              "multithreaded (paper: 49x / 8.3x double, 82.5x / 12.9x single, "
              "at N=512)\n\n",
              n, fp64 ? "double" : "single", best_seq, best_mt);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv,
                      util::with_obs_flags({"quick", "smoke", "float"}));
  const auto dev = gpusim::gtx480();
  const cpu::CpuModel cpu_model;
  bench::Telemetry telemetry(cli, "fig12");

  // --smoke: tiny shapes for CI telemetry validation, one panel only.
  if (cli.get_bool("smoke", false)) {
    panel<double>(dev, cpu_model, 512, 256, telemetry);
    return 0;
  }

  const bool quick = cli.get_bool("quick", false);
  panel<double>(dev, cpu_model, 512, quick ? 4096 : 16384,
                telemetry);                                         // Fig. 12(a)
  panel<double>(dev, cpu_model, 2048, quick ? 1024 : 4096,
                telemetry);                                         // Fig. 12(b)
  panel<double>(dev, cpu_model, 16384, quick ? 256 : 1024,
                telemetry);                                         // Fig. 12(c)
  if (cli.get_bool("float", true)) {
    // The single-precision headline (§IV text; not plotted in Fig. 12).
    panel<float>(dev, cpu_model, 512, quick ? 4096 : 16384, telemetry);
  }
  return 0;
}
