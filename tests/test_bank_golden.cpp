// Golden simulated costs for the kernels whose shared accesses go through
// the bank tracker (ThreadCtx::sload/sstore): the tiled transpose and the
// CR kernel. The values were recorded with the pairwise bank tracker that
// tests/test_bank_oracle.cpp keeps as its reference, so any change to
// bank-conflict accounting, coalescing or the timing model on these
// kernels shows up here as an exact diff. perf_smoke_baseline_diff cannot
// catch it: the hybrid solver it replays never calls sload/sstore.
//
// All storage is 128-byte aligned (util::AlignedBuffer; SystemBatch uses
// it too). Simulated transactions follow host addresses, so std::vector
// storage would make `transactions` depend on the allocator.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "gpu_solvers/cr_kernel.hpp"
#include "gpu_solvers/transpose_kernel.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/exec_engine.hpp"
#include "util/aligned_buffer.hpp"
#include "workloads/generators.hpp"

namespace gs = tridsolve::gpusim;
namespace gp = tridsolve::gpu;
namespace td = tridsolve::tridiag;
namespace wl = tridsolve::workloads;

namespace {

struct Golden {
  std::size_t serializations;
  std::size_t accesses;
  std::size_t transactions;
  double time_us;
};

struct TransposeCase {
  int banks;
  int bank_width;
  std::size_t elem_bytes;
  std::size_t rows;
  std::size_t cols;
  std::size_t tile;
  bool pad;
  Golden want;
};

// clang-format off
constexpr TransposeCase kTransposes[] = {
    // Fermi banks (32 x 4 B), both shapes, tile 16 and 32.
    {32, 4, 4, 384, 384, 16, true,  {9216, 294912, 18432, 19.299301014656145}},
    {32, 4, 8, 384, 384, 16, true,  {0, 294912, 18432, 19.299301014656145}},
    {32, 4, 4, 384, 384, 16, false, {32256, 294912, 18432, 19.299301014656145}},
    {32, 4, 8, 384, 384, 16, false, {64512, 294912, 18432, 19.299301014656145}},
    {32, 4, 4, 384, 384, 32, true,  {0, 294912, 9216, 12.649650507328072}},
    {32, 4, 8, 384, 384, 32, true,  {0, 294912, 18432, 19.299301014656145}},
    {32, 4, 4, 384, 384, 32, false, {142848, 294912, 9216, 13.235974304068524}},
    {32, 4, 8, 384, 384, 32, false, {138240, 294912, 18432, 19.299301014656145}},
    {32, 4, 4, 257, 513, 16, true,  {8192, 263682, 24882, 23.953190529875986}},
    {32, 4, 8, 257, 513, 16, true,  {0, 263682, 32562, 29.494565952649381}},
    {32, 4, 4, 257, 513, 16, false, {28784, 263682, 24882, 23.953190529875986}},
    {32, 4, 8, 257, 513, 16, false, {57568, 263682, 32562, 29.494565952649381}},
    {32, 4, 4, 257, 513, 32, true,  {0, 263682, 16922, 18.209785794813982}},
    {32, 4, 8, 257, 513, 32, true,  {0, 263682, 24882, 23.953190529875986}},
    {32, 4, 4, 257, 513, 32, false, {127224, 263682, 16922, 18.209785794813982}},
    {32, 4, 8, 257, 513, 32, false, {123120, 263682, 24882, 23.953190529875986}},
    // Other bank shapes.
    {16, 4, 4, 384, 384, 32, true,  {9216, 294912, 9216, 12.649650507328072}},
    {16, 4, 8, 384, 384, 32, true,  {18432, 294912, 18432, 19.299301014656145}},
    {16, 4, 4, 384, 384, 32, false, {147456, 294912, 9216, 13.455246252676659}},
    {16, 4, 8, 384, 384, 32, false, {147456, 294912, 18432, 19.299301014656145}},
    {32, 8, 4, 384, 384, 32, true,  {2304, 294912, 9216, 12.649650507328072}},
    {32, 8, 8, 384, 384, 32, true,  {0, 294912, 18432, 19.299301014656145}},
    {32, 8, 4, 384, 384, 32, false, {69120, 294912, 9216, 12.649650507328072}},
    {32, 8, 8, 384, 384, 32, false, {142848, 294912, 18432, 19.299301014656145}},
};
// clang-format on

struct CrCase {
  int banks;
  int bank_width;
  std::size_t n;
  bool pad;
  Golden want;
};

// Eight random_dominant systems (seed 11), contiguous layout, double.
// clang-format off
constexpr CrCase kCrSolves[] = {
    {32, 4, 64,  false, {1384, 13952, 160, 6.8954318344039969}},
    {32, 4, 64,  true,  {72, 13952, 160, 6.7783725910064243}},
    {32, 4, 500, false, {21848, 114088, 1730, 11.896145610278372}},
    {32, 4, 500, true,  {744, 114088, 1730, 10.013204853675946}},
    {16, 4, 500, false, {40736, 114088, 1730, 13.581370449678801}},
    {16, 4, 500, true,  {10184, 114088, 1730, 10.855460385438972}},
    {32, 8, 500, false, {13568, 114088, 1730, 11.157387580299787}},
    {32, 8, 500, true,  {736, 114088, 1730, 10.01249107780157}},
};
// clang-format on

gs::DeviceSpec with_banks(int banks, int width) {
  gs::DeviceSpec dev = gs::gtx480();
  dev.shared_banks = banks;
  dev.shared_bank_width = width;
  return dev;
}

void expect_golden(const gs::LaunchStats& got, const Golden& want) {
  EXPECT_EQ(got.costs.shared_serializations, want.serializations);
  EXPECT_EQ(got.costs.shared_accesses, want.accesses);
  EXPECT_EQ(got.costs.transactions, want.transactions);
  EXPECT_DOUBLE_EQ(got.timing.time_us, want.time_us);
}

template <typename T>
gs::LaunchStats run_transpose(const TransposeCase& c) {
  tridsolve::util::AlignedBuffer<T> in(c.rows * c.cols), out(c.rows * c.cols);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<T>(i % 1000);
  gp::TransposeOptions opts;
  opts.tile = c.tile;
  opts.pad_shared = c.pad;
  const auto stats = gp::transpose<T>(with_banks(c.banks, c.bank_width),
                                      in.data(), out.data(), c.rows, c.cols, opts);
  EXPECT_EQ(out[c.rows * (c.cols - 1)], in[c.cols - 1]);
  return stats;
}

std::string describe(const TransposeCase& c) {
  return std::to_string(c.banks) + "x" + std::to_string(c.bank_width) +
         "B banks, " + std::to_string(c.elem_bytes) + "-byte elements, " +
         std::to_string(c.rows) + "x" + std::to_string(c.cols) + ", tile " +
         std::to_string(c.tile) + (c.pad ? ", padded" : ", unpadded");
}

}  // namespace

// Exact mode at one and at three sim threads: cost shards merge in block
// order, so both must reproduce the same golden numbers.
TEST(BankGolden, TransposeCosts) {
  const gs::ScopedInstrumentMode mode(gs::InstrumentMode::exact);
  for (const std::size_t threads : {1u, 3u}) {
    const gs::ScopedSimThreads sim_threads(threads);
    for (const TransposeCase& c : kTransposes) {
      SCOPED_TRACE(describe(c) + ", " + std::to_string(threads) + " sim threads");
      expect_golden(c.elem_bytes == 4 ? run_transpose<float>(c)
                                      : run_transpose<double>(c),
                    c.want);
    }
  }
}

TEST(BankGolden, CrKernelCosts) {
  const gs::ScopedInstrumentMode mode(gs::InstrumentMode::exact);
  for (const std::size_t threads : {1u, 3u}) {
    const gs::ScopedSimThreads sim_threads(threads);
    for (const CrCase& c : kCrSolves) {
      SCOPED_TRACE(std::to_string(c.banks) + "x" + std::to_string(c.bank_width) +
                   "B banks, N=" + std::to_string(c.n) +
                   (c.pad ? ", padded" : ", naive") + ", " +
                   std::to_string(threads) + " sim threads");
      auto batch = wl::make_batch<double>(wl::Kind::random_dominant, 8, c.n,
                                          td::Layout::contiguous, 11);
      gp::CrKernelOptions opts;
      opts.pad_shared = c.pad;
      expect_golden(gp::cr_kernel_solve<double>(
                        with_banks(c.banks, c.bank_width), batch, opts),
                    c.want);
    }
  }
}
