// google-benchmark microbenchmarks of the *real* host kernels (these
// measure actual CPU wall time of the numerical routines, unlike the
// figure benches whose GPU timings come from the simulator).

#include <benchmark/benchmark.h>

#include "cpu_baselines/mkl_like.hpp"
#include "tridiag/cyclic_reduction.hpp"
#include "tridiag/lu_pivot.hpp"
#include "tridiag/partition.hpp"
#include "tridiag/pcr.hpp"
#include "tridiag/periodic.hpp"
#include "tridiag/recursive_doubling.hpp"
#include "tridiag/residual.hpp"
#include "tridiag/thomas.hpp"
#include "tridiag/tiled_pcr.hpp"
#include "util/aligned_buffer.hpp"
#include "workloads/generators.hpp"

namespace td = tridsolve::tridiag;
namespace wl = tridsolve::workloads;
using tridsolve::util::AlignedBuffer;
using tridsolve::util::Xoshiro256;

namespace {

td::TridiagSystem<double> make_system(std::size_t n) {
  Xoshiro256 rng(n);
  td::TridiagSystem<double> s(n);
  wl::fill_matrix(wl::Kind::random_dominant, s.ref(), rng);
  wl::fill_rhs_random(s.ref(), rng);
  return s;
}

void BM_Thomas(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto s = make_system(n);
  AlignedBuffer<double> x(n), scratch(n);
  for (auto _ : state) {
    auto copy = s.clone();
    benchmark::DoNotOptimize(td::thomas_solve(
        copy.ref(), td::StridedView<double>(x.span()), scratch.span()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_Thomas)->Arg(512)->Arg(4096)->Arg(65536);

void BM_LuGtsv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto s = make_system(n);
  AlignedBuffer<double> x(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        td::lu_gtsv(s.ref(), td::StridedView<double>(x.span())));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_LuGtsv)->Arg(512)->Arg(4096)->Arg(65536);

void BM_PcrReduce(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<unsigned>(state.range(1));
  auto s = make_system(n);
  for (auto _ : state) {
    auto copy = s.clone();
    benchmark::DoNotOptimize(td::pcr_reduce(copy.ref(), k));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n * k));
}
BENCHMARK(BM_PcrReduce)->Args({4096, 4})->Args({4096, 8})->Args({65536, 6});

void BM_TiledPcrReduce(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<unsigned>(state.range(1));
  auto s = make_system(n);
  for (auto _ : state) {
    auto copy = s.clone();
    benchmark::DoNotOptimize(td::tiled_pcr_reduce(copy.ref(), k));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n * k));
}
BENCHMARK(BM_TiledPcrReduce)->Args({4096, 4})->Args({4096, 8})->Args({65536, 6});

void BM_CrSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto s = make_system(n);
  AlignedBuffer<double> x(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        td::cr_solve(s.ref(), td::StridedView<double>(x.span())));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_CrSolve)->Arg(4096)->Arg(65536);

void BM_RdSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto s = make_system(n);
  AlignedBuffer<double> x(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        td::rd_solve(s.ref(), td::StridedView<double>(x.span())));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_RdSolve)->Arg(4096)->Arg(16384);

void BM_PeriodicSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto s = make_system(n);
  AlignedBuffer<double> x(n);
  for (auto _ : state) {
    auto copy = s.clone();
    benchmark::DoNotOptimize(td::periodic_solve(
        copy.ref(), 0.1, -0.1, td::StridedView<double>(x.span())));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_PeriodicSolve)->Arg(4096)->Arg(65536);

void BM_PartitionSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto p = static_cast<std::size_t>(state.range(1));
  auto s = make_system(n);
  AlignedBuffer<double> x(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(td::partition_solve(
        s.ref(), td::StridedView<double>(x.span()), p));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_PartitionSolve)->Args({4096, 8})->Args({65536, 32});

void BM_CpuBatchSolve(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  auto batch = wl::make_batch<double>(wl::Kind::random_dominant, m, n,
                                      td::Layout::contiguous, 3);
  for (auto _ : state) {
    auto copy = batch.clone();
    benchmark::DoNotOptimize(tridsolve::cpu::solve_batch(copy));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * m * n));
}
BENCHMARK(BM_CpuBatchSolve)->Args({64, 512})->Args({512, 512});

}  // namespace

BENCHMARK_MAIN();
