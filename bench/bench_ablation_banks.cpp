// Ablation (related work [10], Göddeke & Strzodka): shared-memory bank
// conflicts in the in-shared CR kernel, with and without index padding.
// The naive layout's stride-2^L accesses serialize up to bank-width-fold;
// padding removes nearly all of it. Conflicts are *measured* by the
// simulator's bank tracker, and their time impact is shown alongside.
// The hybrid's tiled PCR needs no such treatment: its window accesses are
// unit-stride by construction.

#include <cstdio>

#include "bench_common.hpp"
#include "gpu_solvers/cr_kernel.hpp"

using namespace tridsolve;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, util::with_obs_flags({"m"}));
  const auto dev = gpusim::gtx480();
  const std::size_t m = static_cast<std::size_t>(cli.get_int("m", 256));

  util::Table table("CR kernel bank conflicts: naive vs padded layout (M=" +
                    std::to_string(m) + ", double)");
  table.set_header({"N", "naive serializations", "padded serializations",
                    "reduction", "naive[us]", "padded[us]", "speedup"});

  for (std::size_t n : {64u, 128u, 256u, 512u, 1024u}) {
    auto naive_batch = workloads::make_batch<double>(
        workloads::Kind::random_dominant, m, n, tridiag::Layout::contiguous, n);
    auto padded_batch = naive_batch.clone();

    gpu::CrKernelOptions naive_opts;
    gpu::CrKernelOptions padded_opts;
    padded_opts.pad_shared = true;
    const auto naive = gpu::cr_kernel_solve<double>(dev, naive_batch, naive_opts);
    const auto padded = gpu::cr_kernel_solve<double>(dev, padded_batch, padded_opts);

    const auto ns = naive.costs.shared_serializations;
    const auto ps = padded.costs.shared_serializations;
    table.add_row(
        {util::Table::integer(static_cast<long long>(n)),
         std::to_string(ns), std::to_string(ps),
         ps == 0 ? "all" : util::Table::num(double(ns) / double(ps), 1) + "x",
         bench::us(naive.timing.time_us), bench::us(padded.timing.time_us),
         util::Table::num(naive.timing.time_us / padded.timing.time_us, 2) + "x"});
  }
  bench::emit(table);
  return 0;
}
