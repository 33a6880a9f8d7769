// Figure 14 reproduction: our hybrid vs the Davidson et al. [19]-style
// auto-tuned PCR-Thomas baseline on the paper's four configurations
// (MxN = 1Kx1K, 2Kx2K, 4Kx4K, 1x2M), in double (a) and single (b)
// precision. The paper reports 2x-10x advantages for the proposed method;
// panel (b) also lists the numbers Davidson et al. reported themselves.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "gpu_solvers/davidson.hpp"

using namespace tridsolve;

namespace {

struct Config {
  std::size_t m, n;
  const char* label;
  double paper_ours_ms;       // paper Fig. 14 left bars
  double paper_davidson_ms;   // paper Fig. 14 "our implementation of [19]"
  double davidson_reported;   // Fig. 14(b) only; <0 = not reported
};

template <typename T>
void panel(const gpusim::DeviceSpec& dev, const std::vector<Config>& configs,
           bench::Telemetry& telemetry) {
  const bool fp64 = sizeof(T) == 8;
  util::Table table(std::string("Fig.14") + (fp64 ? "(a) double" : "(b) single") +
                    ": Ours vs Davidson-style hybrid, execution time [ms]");
  std::vector<std::string> header{"MxN",          "Ours(sim)",  "Davidson(sim)",
                                  "sim advantage", "Ours(paper)", "Davidson(paper)"};
  if (!fp64) header.push_back("Davidson(reported)");
  table.set_header(header);

  for (const auto& cfg : configs) {
    const auto ours = bench::run_ours<T>(dev, cfg.m, cfg.n);
    obs::JsonValue extra = obs::JsonValue::object();
    extra["precision"] = fp64 ? "double" : "single";
    telemetry.record_hybrid(dev, cfg.m, cfg.n, ours, "hybrid",
                            std::move(extra));

    auto batch = workloads::make_batch<T>(workloads::Kind::random_dominant,
                                          cfg.m, cfg.n,
                                          tridiag::Layout::contiguous, 42);
    const auto dav = gpu::davidson_solve<T>(dev, batch);

    std::vector<std::string> row{
        cfg.label,
        bench::ms(ours.total_us()),
        bench::ms(dav.total_us()),
        bench::ratio(dav.total_us() / ours.total_us()),
        util::Table::num(cfg.paper_ours_ms, 2),
        util::Table::num(cfg.paper_davidson_ms, 2)};
    if (!fp64) {
      row.push_back(cfg.davidson_reported >= 0
                        ? util::Table::num(cfg.davidson_reported, 2)
                        : "-");
    }
    table.add_row(std::move(row));
  }
  bench::emit(table);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, util::with_obs_flags({"quick"}));
  const auto dev = gpusim::gtx480();
  const bool quick = cli.get_bool("quick", false);
  bench::Telemetry telemetry(cli, "fig14");

  // Paper values from Fig. 14 (a) and (b).
  std::vector<Config> dbl{{1024, 1024, "1Kx1K", 2.12, 4.87, -1},
                          {2048, 2048, "2Kx2K", 4.72, 22.76, -1},
                          {4096, 4096, "4Kx4K", 11.05, 104.39, -1},
                          {1, 2097152, "1x2M", 13.93, 38.22, -1}};
  std::vector<Config> flt{{1024, 1024, "1Kx1K", 1.02, 1.08, 0.96},
                          {2048, 2048, "2Kx2K", 2.27, 5.35, 5.52},
                          {4096, 4096, "4Kx4K", 5.60, 25.55, 27.92},
                          {1, 2097152, "1x2M", 4.96, 9.69, 50.40}};
  if (quick) {
    dbl.resize(2);
    flt.resize(2);
  }

  panel<double>(dev, dbl, telemetry);
  panel<float>(dev, flt, telemetry);
  return 0;
}
