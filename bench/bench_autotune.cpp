// Offline empirical plan autotuner (the paper's §V auto-tuning remark):
// for each (M, N) cell, sweep candidate (k, window variant, sub-tile c)
// plans through the full simulated hybrid and keep the fastest, next to
// what the static Table III heuristic would have chosen. With --out the
// winners are written as a tridsolve-plan-v1 calibration file that any
// bench/example preloads via --plan-file, so production solves start from
// measured plans instead of the heuristic. Tuning is offline only: a
// solve never measures candidates itself.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gpu_solvers/autotune.hpp"

using namespace tridsolve;

namespace {

/// Parse a comma-separated list of positive sizes ("1,16,1024").
std::vector<std::size_t> parse_list(const std::string& text) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string tok = text.substr(pos, comma - pos);
    if (!tok.empty()) out.push_back(static_cast<std::size_t>(std::stoull(tok)));
    pos = comma + 1;
  }
  if (out.empty()) throw std::invalid_argument("empty size list: " + text);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, util::with_obs_flags(
                                      {"quick", "smoke", "m-list", "n-list",
                                       "out"}));
  const auto dev = gpusim::gtx480();
  bench::Telemetry telemetry(cli, "autotune");

  // Cell grid: a Fig. 12-style sweep by default, pared down for CI.
  std::vector<std::size_t> ms{1, 4, 16, 64, 256, 1024};
  std::vector<std::size_t> ns{128, 512};
  if (cli.get_bool("quick", false)) {
    ms = {16, 256};
    ns = {512};
  }
  if (cli.get_bool("smoke", false)) {
    ms = {16};
    ns = {64};
  }
  if (const auto v = cli.get("m-list")) ms = parse_list(*v);
  if (const auto v = cli.get("n-list")) ns = parse_list(*v);

  util::Table table("Empirical plan autotuner vs Table III heuristic");
  table.set_header({"M", "N", "heur k", "tuned k", "variant", "c",
                    "heur[us]", "tuned[us]", "delta"});

  obs::JsonValue plans = obs::JsonValue::array();
  for (const std::size_t n : ns) {
    for (const std::size_t m : ms) {
      const gpu::AutotuneResult r = gpu::autotune_cell<double>(dev, m, n);
      const double delta =
          r.heuristic_us > 0.0 ? 100.0 * (r.heuristic_us - r.best_us) /
                                     r.heuristic_us
                               : 0.0;
      table.add_row({util::Table::integer(static_cast<long long>(m)),
                     util::Table::integer(static_cast<long long>(n)),
                     std::to_string(r.heuristic_k), std::to_string(r.best.k),
                     std::string(gpu::window_variant_name(r.best.variant)),
                     std::to_string(r.best.c), bench::us(r.heuristic_us),
                     bench::us(r.best_us), util::Table::num(delta, 1) + "%"});

      obs::JsonValue rec = obs::JsonValue::object();
      rec["solver"] = "autotune";
      rec["m"] = m;
      rec["n"] = n;
      rec["time_us"] = r.best_us;
      bench::put_plan(rec, r.best.source, r.best.k, r.best.variant,
                      r.best.c);
      rec["heuristic_k"] = r.heuristic_k;
      rec["heuristic_us"] = r.heuristic_us;
      rec["candidates"] = r.candidates.size();
      telemetry.record_raw(std::move(rec));

      obs::JsonValue entry = obs::JsonValue::object();
      entry["m"] = m;
      entry["n"] = n;
      entry["elem_size"] = sizeof(double);
      entry["k"] = r.best.k;
      entry["variant"] = gpu::window_variant_name(r.best.variant);
      entry["c"] = r.best.c;
      entry["blocks_per_system"] = r.best.blocks_per_system;
      entry["systems_per_block"] = r.best.systems_per_block;
      entry["tuned_us"] = r.best_us;
      entry["heuristic_us"] = r.heuristic_us;
      plans.push_back(std::move(entry));
    }
  }
  bench::emit(table);

  if (const auto out = cli.get("out")) {
    obs::JsonValue doc = obs::JsonValue::object();
    doc["schema"] = "tridsolve-plan-v1";
    doc["device"] = dev.name;
    // Decimal string, not a JSON number: the fingerprint uses all 64 bits
    // and a double round-trip would corrupt it above 2^53.
    doc["fingerprint"] = std::to_string(dev.fingerprint());
    doc["plans"] = std::move(plans);
    std::ofstream f(*out);
    if (!f) {
      std::fprintf(stderr, "bench_autotune: cannot write %s\n", out->c_str());
      return 1;
    }
    f << doc.dump(1) << "\n";
    std::printf("wrote %zu plans to %s\n", doc["plans"].size(), out->c_str());
  }
  return 0;
}
