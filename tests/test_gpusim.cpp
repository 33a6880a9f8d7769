// GPU simulator tests: shared arena, occupancy, coalescing-transaction
// accounting, timing-model regimes, and launch validation.

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "gpu_solvers/registry.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/exec_engine.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/shared_memory.hpp"
#include "gpusim/timing_model.hpp"
#include "util/aligned_buffer.hpp"
#include "workloads/generators.hpp"

namespace gs = tridsolve::gpusim;
using tridsolve::util::AlignedBuffer;

TEST(SharedArena, AllocatesAndTracksPeak) {
  gs::SharedArena arena(1024);
  auto* a = arena.allocate<double>(16);  // 128 bytes
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(arena.used(), 128u);
  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.peak(), 128u);
  (void)arena.allocate<double>(64);  // 512 bytes
  EXPECT_EQ(arena.peak(), 512u);
}

TEST(SharedArena, ThrowsWhenExhausted) {
  gs::SharedArena arena(64);
  EXPECT_THROW((void)arena.allocate<double>(9), std::length_error);
}

TEST(SharedArena, AlignsAllocations) {
  gs::SharedArena arena(256);
  (void)arena.allocate<char>(3);
  auto* d = arena.allocate<double>(1);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
}

TEST(Occupancy, ThreadLimited) {
  const auto dev = gs::gtx480();
  // 512-thread blocks, no shared: 1536/512 = 3 blocks -> 48 warps.
  const auto occ = gs::compute_occupancy(dev, 512, 0);
  EXPECT_EQ(occ.blocks_per_sm, 3);
  EXPECT_EQ(occ.resident_warps_per_sm, 48);
  EXPECT_DOUBLE_EQ(occ.fraction, 1.0);
}

TEST(Occupancy, BlockCountLimited) {
  const auto dev = gs::gtx480();
  // Tiny blocks: capped by max_blocks_per_sm = 8.
  const auto occ = gs::compute_occupancy(dev, 32, 0);
  EXPECT_EQ(occ.blocks_per_sm, 8);
  EXPECT_EQ(occ.limiter, "blocks");
  EXPECT_EQ(occ.resident_warps_per_sm, 8);
}

TEST(Occupancy, SharedMemoryLimited) {
  const auto dev = gs::gtx480();
  // 20 KB per block: only 2 fit in 48 KB.
  const auto occ = gs::compute_occupancy(dev, 128, 20 * 1024);
  EXPECT_EQ(occ.blocks_per_sm, 2);
  EXPECT_EQ(occ.limiter, "shared");
}

TEST(Occupancy, UnlaunchableConfigs) {
  const auto dev = gs::gtx480();
  EXPECT_FALSE(gs::compute_occupancy(dev, 2048, 0).launchable());   // threads
  EXPECT_FALSE(gs::compute_occupancy(dev, 128, 49 * 1024).launchable());  // shared
  EXPECT_FALSE(gs::compute_occupancy(dev, 0, 0).launchable());
}

TEST(Launch, RejectsOversizedBlock) {
  const auto dev = gs::gtx480();
  EXPECT_THROW(
      gs::launch(dev, {1, 2048}, [](gs::BlockContext&) {}),
      std::invalid_argument);
}

// A malformed device spec is rejected at launch with invalid_argument,
// never a division by zero: one case per field the simulator splits
// threads or addresses by. The recording body would divide by the field.
namespace {
void expect_spec_rejected(const gs::DeviceSpec& dev) {
  AlignedBuffer<double> data(64, 1.0);
  EXPECT_THROW(gs::launch(dev, {1, 32},
                          [&](gs::BlockContext& ctx) {
                            ctx.phase([&](gs::ThreadCtx& t) {
                              (void)t.load(&data[static_cast<std::size_t>(
                                  t.tid())]);
                            });
                          }),
               std::invalid_argument);
}
}  // namespace

TEST(Launch, RejectsWarpSizeNotPowerOfTwo) {
  auto dev = gs::gtx480();
  dev.warp_size = 0;
  expect_spec_rejected(dev);
  dev.warp_size = 24;
  expect_spec_rejected(dev);
  // The registry turns the rejection into a structured bad_argument.
  dev.warp_size = 0;
  const auto batch = tridsolve::workloads::make_batch<double>(
      tridsolve::workloads::Kind::random_dominant, 8, 64,
      tridsolve::tridiag::Layout::interleaved, 1);
  const auto out = tridsolve::gpu::run_solver(
      tridsolve::gpu::SolverKind::hybrid, dev, batch);
  EXPECT_FALSE(out.supported);
  EXPECT_TRUE(out.bad_argument);
}

TEST(Launch, RejectsTransactionBytesNotPowerOfTwo) {
  auto dev = gs::gtx480();
  dev.transaction_bytes = 0;
  expect_spec_rejected(dev);
  dev.transaction_bytes = 96;
  expect_spec_rejected(dev);
}

TEST(Launch, RejectsSharedBankWidthNotPowerOfTwo) {
  auto dev = gs::gtx480();
  dev.shared_bank_width = 0;
  expect_spec_rejected(dev);
  dev.shared_bank_width = 3;
  expect_spec_rejected(dev);
}

TEST(Launch, RejectsNoSharedBanks) {
  auto dev = gs::gtx480();
  dev.shared_banks = 0;
  expect_spec_rejected(dev);
  dev.shared_banks = -32;
  expect_spec_rejected(dev);
}

TEST(Launch, CoalescedAccessesShareTransactions) {
  const auto dev = gs::gtx480();
  AlignedBuffer<double> data(1024, 1.0);
  // One warp (32 threads) loading 32 consecutive doubles = 256 bytes
  // = exactly 2 x 128-byte transactions.
  const auto stats = gs::launch(dev, {1, 32}, [&](gs::BlockContext& ctx) {
    ctx.phase([&](gs::ThreadCtx& t) {
      (void)t.load(&data[static_cast<std::size_t>(t.tid())]);
    });
  });
  EXPECT_EQ(stats.costs.transactions, 2u);
  EXPECT_EQ(stats.costs.loads, 32u);
  EXPECT_EQ(stats.costs.bytes_requested, 32u * 8u);
  EXPECT_DOUBLE_EQ(stats.costs.coalescing_efficiency(dev.transaction_bytes), 1.0);
}

TEST(Launch, StridedAccessesExplodeTransactions) {
  const auto dev = gs::gtx480();
  AlignedBuffer<double> data(32 * 64, 1.0);
  // Stride-64 doubles: every thread touches its own 128-byte segment.
  const auto stats = gs::launch(dev, {1, 32}, [&](gs::BlockContext& ctx) {
    ctx.phase([&](gs::ThreadCtx& t) {
      (void)t.load(&data[static_cast<std::size_t>(t.tid()) * 64]);
    });
  });
  EXPECT_EQ(stats.costs.transactions, 32u);
  EXPECT_LT(stats.costs.coalescing_efficiency(dev.transaction_bytes), 0.07);
}

TEST(Launch, RoundsSeparateTransactions) {
  const auto dev = gs::gtx480();
  AlignedBuffer<double> data(64, 1.0);
  // Same segment touched in two different rounds: cannot merge (the two
  // loads are on a serial dependence chain), so 2 transactions + 2 rounds.
  const auto stats = gs::launch(dev, {1, 1}, [&](gs::BlockContext& ctx) {
    ctx.phase([&](gs::ThreadCtx& t) {
      (void)t.load(&data[0]);
      t.end_round();
      (void)t.load(&data[1]);
      t.end_round();
    });
  });
  EXPECT_EQ(stats.costs.transactions, 2u);
  EXPECT_EQ(stats.costs.rounds_total, 2u);
}

TEST(Launch, WarpsAndBarriersCounted) {
  const auto dev = gs::gtx480();
  const auto stats = gs::launch(dev, {4, 96}, [&](gs::BlockContext& ctx) {
    ctx.phase([](gs::ThreadCtx&) {});
    ctx.phase([](gs::ThreadCtx&) {});
  });
  EXPECT_EQ(stats.costs.warps, 4u * 3u);
  EXPECT_EQ(stats.costs.barriers, 8u);  // 2 phases x 4 blocks
}

TEST(Launch, SharedPeakFeedsOccupancy) {
  const auto dev = gs::gtx480();
  const auto stats = gs::launch(dev, {1, 64}, [&](gs::BlockContext& ctx) {
    (void)ctx.shared<double>(20 * 1024 / 8);  // 20 KB
    ctx.phase([](gs::ThreadCtx&) {});
  });
  EXPECT_EQ(stats.costs.shared_peak_bytes, 20u * 1024u);
  EXPECT_EQ(stats.timing.occupancy.blocks_per_sm, 2);
}

TEST(Launch, BlockIdsCoverGrid) {
  const auto dev = gs::gtx480();
  std::vector<int> seen(10, 0);
  gs::launch(dev, {10, 1}, [&](gs::BlockContext& ctx) {
    seen[ctx.block_id()]++;
    EXPECT_EQ(ctx.grid_blocks(), 10u);
  });
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(Launch, FlopChargingByPrecision) {
  const auto dev = gs::gtx480();
  const auto stats = gs::launch(dev, {1, 2}, [&](gs::BlockContext& ctx) {
    ctx.phase([](gs::ThreadCtx& t) {
      t.flops<float>(3);
      t.flops<double>(5);
      t.divs<double>(1);  // 8 op-equivalents on GTX480
    });
  });
  EXPECT_DOUBLE_EQ(stats.costs.ops_f32, 6.0);
  EXPECT_DOUBLE_EQ(stats.costs.ops_f64, 2 * (5.0 + 8.0));
}

namespace {

/// One INIT-like phase that charges nothing and one COMBINE-like phase
/// that charges 10 op-equivalents and 2 divisions per thread, on three
/// blocks of three warps: per thread through phase(), or as one block-wide
/// loop closed by block_phase() with the summed tally. Every recorded
/// field and the simulated time must agree.
template <typename T>
void expect_block_phase_records_what_phase_records() {
  const auto dev = gs::gtx480();
  constexpr int kThreads = 96;
  const gs::LaunchConfig cfg{3, kThreads};
  std::vector<int> ran(3, 0);
  const auto per_thread = gs::launch(dev, cfg, [&](gs::BlockContext& ctx) {
    (void)ctx.shared<T>(kThreads);
    ctx.phase([](gs::ThreadCtx&) {});
    ctx.phase([](gs::ThreadCtx& t) {
      t.flops<T>(10);
      t.divs<T>(2);
    });
  });
  const auto block_wide = gs::launch(dev, cfg, [&](gs::BlockContext& ctx) {
    const auto rows = ctx.shared<T>(kThreads);
    ctx.block_phase({}, [&] {
      for (T& v : rows) v = T(1);
    });
    gs::PhaseTally tally;
    tally.ops[sizeof(T) == 8] = 10 * kThreads;
    tally.divs[sizeof(T) == 8] = 2 * kThreads;
    ctx.block_phase(tally, [&] { ++ran[ctx.block_id()]; });
  });
  for (const int r : ran) EXPECT_EQ(r, 1) << "block_phase runs fn once";
  const gs::KernelCosts& a = per_thread.costs;
  const gs::KernelCosts& b = block_wide.costs;
  EXPECT_GT(a.barriers, 0u);
  EXPECT_GT(sizeof(T) == 8 ? a.ops_f64 : a.ops_f32, 0.0);
  EXPECT_EQ(a.ops_f32, b.ops_f32);
  EXPECT_EQ(a.ops_f64, b.ops_f64);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.bytes_requested, b.bytes_requested);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.rounds_total, b.rounds_total);
  EXPECT_EQ(a.warps, b.warps);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.shared_accesses, b.shared_accesses);
  EXPECT_EQ(a.shared_bytes, b.shared_bytes);
  EXPECT_EQ(a.shared_serializations, b.shared_serializations);
  EXPECT_EQ(a.shared_peak_bytes, b.shared_peak_bytes);
  EXPECT_EQ(per_thread.timing.time_us, block_wide.timing.time_us);
}

}  // namespace

// block_phase closes a plain-loop phase with the tally the per-thread
// body would have charged. Watched blocks (hazard detector or fault
// injector attached) must walk every phase per thread, so it throws there.
TEST(BlockContext, BlockPhaseRecordsWhatPhaseRecords) {
  expect_block_phase_records_what_phase_records<float>();
  expect_block_phase_records_what_phase_records<double>();

  const auto dev = gs::gtx480();
  const auto body = [](gs::BlockContext& ctx) {
    EXPECT_TRUE(ctx.watched());
    ctx.block_phase({}, [] {});
  };
  {
    const gs::ScopedHazardMode detect(gs::HazardMode::detect);
    EXPECT_THROW((void)gs::launch(dev, {2, 64}, body), std::logic_error);
  }
  {
    gs::FaultPlan plan;
    plan.seed = 1;
    plan.rate = 1e-9;  // active, but draws nothing here
    const gs::ScopedFaultPlan faults(plan);
    EXPECT_THROW((void)gs::launch(dev, {2, 64}, body), std::logic_error);
  }
  (void)gs::launch(dev, {2, 64}, [](gs::BlockContext& ctx) {
    EXPECT_FALSE(ctx.watched());
  });
}

// --- Timing model regimes -------------------------------------------------

namespace {

/// Costs mimicking a p-Thomas-like kernel: each warp runs `rounds`
/// serialized memory rounds, each round moving `tx_per_round` transactions.
gs::KernelCosts synthetic_costs(std::size_t warps, std::size_t rounds,
                                std::size_t tx_per_round) {
  gs::KernelCosts c;
  c.warps = warps;
  c.rounds_total = warps * rounds;
  c.transactions = warps * rounds * tx_per_round;
  c.ops_f64 = static_cast<double>(warps * rounds) * 32.0;
  return c;
}

}  // namespace

TEST(TimingModel, LatencyFloorIsFlatInParallelism) {
  // Single-wave launches: doubling the number of warps (all resident)
  // must not change the latency-bound time — the flat region of Fig. 12.
  const auto dev = gs::gtx480();
  const auto t1 = gs::predict_kernel_time(dev, 15, 64, synthetic_costs(30, 512, 1));
  const auto t2 = gs::predict_kernel_time(dev, 30, 64, synthetic_costs(60, 512, 1));
  ASSERT_EQ(t1.bound(), std::string("latency"));
  EXPECT_NEAR(t1.time_us, t2.time_us, t1.time_us * 0.05);
}

TEST(TimingModel, BandwidthBoundGrowsLinearly) {
  // Saturated launches: time tracks total transactions.
  const auto dev = gs::gtx480();
  const auto small = synthetic_costs(15 * 48 * 4, 512, 4);
  const auto large = synthetic_costs(15 * 48 * 8, 512, 4);
  const auto t_small = gs::predict_kernel_time(dev, 15 * 48 * 4 / 2, 64, small);
  const auto t_large = gs::predict_kernel_time(dev, 15 * 48 * 8 / 2, 64, large);
  EXPECT_NEAR(t_large.time_us / t_small.time_us, 2.0, 0.2);
}

TEST(TimingModel, MoreResidentWarpsHideLatency) {
  // Same total work, but one config is occupancy-throttled by shared
  // memory: it must be slower (the paper's §V argument vs coarse tiling).
  const auto dev = gs::gtx480();
  auto costs_hi = synthetic_costs(15 * 8, 512, 1);
  auto costs_lo = costs_hi;
  costs_lo.shared_peak_bytes = 24 * 1024;  // 2 blocks/SM instead of 8
  costs_hi.shared_peak_bytes = 4 * 1024;
  const auto t_hi = gs::predict_kernel_time(dev, 15 * 8, 64, costs_hi);
  const auto t_lo = gs::predict_kernel_time(dev, 15 * 8, 64, costs_lo);
  // 2 blocks/SM = 4 resident warps vs 16: 4x slower.
  EXPECT_GT(t_lo.time_us, t_hi.time_us * 1.4);
}

TEST(TimingModel, EmptyLaunchCostsOverheadOnly) {
  const auto dev = gs::gtx480();
  gs::KernelCosts none;
  const auto t = gs::predict_kernel_time(dev, 0, 32, none);
  EXPECT_DOUBLE_EQ(t.time_us, dev.kernel_launch_overhead_us);
}

TEST(TimingModel, Fp64ComputeCostsEightTimesFp32) {
  const auto dev = gs::gtx480();
  gs::KernelCosts f32, f64;
  f32.warps = f64.warps = 15 * 48;
  f32.ops_f32 = 1e9;
  f64.ops_f64 = 1e9;
  const auto t32 = gs::predict_kernel_time(dev, 15 * 48, 32, f32);
  const auto t64 = gs::predict_kernel_time(dev, 15 * 48, 32, f64);
  EXPECT_NEAR((t64.compute_us) / (t32.compute_us), 8.0, 0.01);
}

TEST(Timeline, AccumulatesAndBreaksDown) {
  gs::Timeline tl;
  gs::LaunchStats s;
  s.timing.time_us = 10.0;
  tl.add("pcr:step0", s);
  s.timing.time_us = 30.0;
  tl.add("thomas", s);
  EXPECT_DOUBLE_EQ(tl.total_us(), 40.0);
  EXPECT_DOUBLE_EQ(tl.time_with_prefix("pcr"), 10.0);
  EXPECT_DOUBLE_EQ(tl.time_with_prefix("thomas"), 30.0);
  EXPECT_EQ(tl.segments().size(), 2u);
}

TEST(DeviceSpec, PresetSanity) {
  const auto dev = gs::gtx480();
  EXPECT_NEAR(dev.peak_gflops(false), 672.0, 1.0);  // issue-rate based (no FMA x2)
  EXPECT_NEAR(dev.peak_gflops(true), 84.0, 0.2);
  EXPECT_GT(gs::gtx280().num_sms, 0);
  EXPECT_GT(gs::test_device().num_sms, 0);
}
