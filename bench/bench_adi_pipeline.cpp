// ADI pipeline breakdown (apps/adi): where a full 2-D implicit diffusion
// step spends its simulated time — batched tridiagonal solves vs the
// transposes a sweep needs only when its plan pairs k with the other
// layout than the row-major field gives its systems. The columns show
// which route each grid takes: at 128^2 the y-sweep still transposes
// around tiled PCR; from 256^2 it solves the interleaved columns in place
// with p-Thomas; at 1024^2 the x-sweep's k = 0 transposes the rows into
// the interleaved layout p-Thomas coalesces in.
//
// One JSONL record per grid (--json): the step's time_us, its phases by
// segment label, and each sweep's planned k (x_k, y_k).

#include <cstdio>
#include <string>
#include <vector>

#include "apps/adi.hpp"
#include "bench_common.hpp"

using namespace tridsolve;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, util::with_obs_flags({"quick"}));
  const bool quick = cli.get_bool("quick", false);
  bench::Telemetry telemetry(cli, "adi_pipeline");
  const auto dev = gpusim::gtx480();

  util::Table table("ADI step breakdown on simulated GTX480 (double)");
  table.set_header({"grid", "step[us]", "solves[us]", "transposes[us]",
                    "transpose share", "k (x-sweep)", "k (y-sweep)"});

  std::vector<std::size_t> sizes{128, 256, 512, 1024};
  if (quick) sizes = {64, 128};

  for (std::size_t n : sizes) {
    apps::AdiIntegrator<double> adi(dev, n, n);
    std::vector<double> field(n * n, 1.0);
    const auto rep = adi.step(field);
    table.add_row(
        {std::to_string(n) + "x" + std::to_string(n),
         bench::us(rep.total_us()), bench::us(rep.solve_us()),
         bench::us(rep.transpose_us()),
         util::Table::num(100.0 * rep.transpose_us() / rep.total_us(), 1) + "%",
         std::to_string(rep.x_k), std::to_string(rep.y_k)});
    obs::JsonValue extra = obs::JsonValue::object();
    extra["x_k"] = rep.x_k;
    extra["y_k"] = rep.y_k;
    telemetry.record(dev, "adi", n, n, rep.timeline, std::move(extra));
  }
  bench::emit(table);
  return 0;
}
