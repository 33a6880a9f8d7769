#pragma once
// CPU baseline: an MKL-?gtsv-like batched tridiagonal solver.
//
// Two halves:
//  * a *real* solver (`solve_batch`) — LU with partial pivoting per system,
//    the same routine the correctness tests referee against — so the CPU
//    path of every example genuinely runs;
//  * a *timing model* (`CpuModel`) for the paper's Intel i7-975 baseline.
//    This environment has one CPU core and no MKL, so the sequential /
//    multithreaded MKL series of Figs. 12-13 are priced analytically:
//    time = M * (rows * cost_per_row + call overhead) [/ effective threads].
//    The paper itself observes the CPU series is "perfectly linear" in the
//    input size, so a linear model reproduces its shape exactly; the
//    constants are calibrated so the headline double-precision ratios at
//    (M=16K, N=512) match the paper's 49x (sequential) and 8.3x
//    (multithreaded) — see DESIGN.md and EXPERIMENTS.md.

#include <cstddef>

#include "tridiag/layout.hpp"
#include "tridiag/types.hpp"

namespace tridsolve::cpu {

/// The paper's CPU: Intel Core i7-975, 3.33 GHz, 4 cores / 8 threads.
struct CpuSpec {
  const char* name = "i7-975";
  double clock_ghz = 3.33;
  int cores = 4;
  int smt_threads = 8;
  /// Effective parallel speedup of the multithreaded MKL path: the paper's
  /// own ratio of sequential to multithreaded speedups (49/8.3).
  double effective_mt_speedup = 5.9;
  /// Calibrated ?gtsv cost per matrix row, in cycles (LAPACK-style branchy
  /// pivoting loop). Doubles: 66.5; floats run ~15% cheaper.
  double gtsv_cycles_per_row_f64 = 66.5;
  double gtsv_cycles_per_row_f32 = 56.5;
  /// Per-system call overhead (dispatch, workspace setup), microseconds.
  double call_overhead_us = 0.4;
  /// One-off threading fork/join overhead for the multithreaded path.
  double mt_fork_overhead_us = 10.0;
};

/// Timing model for the MKL-like baseline.
class CpuModel {
 public:
  explicit CpuModel(CpuSpec spec = {}) : spec_(spec) {}

  /// Sequential solve time for M systems of n rows, microseconds.
  [[nodiscard]] double sequential_us(std::size_t m, std::size_t n,
                                     bool fp64) const noexcept;

  /// Multithreaded solve time. MKL's out-of-the-box gtsv is not threaded
  /// (paper §IV): parallelism only comes from solving independent systems
  /// on different threads, so M = 1 degenerates to the sequential path.
  [[nodiscard]] double multithreaded_us(std::size_t m, std::size_t n,
                                        bool fp64) const noexcept;

 private:
  CpuSpec spec_;
};

/// Really solve every system of the batch (solution in d), via LU with
/// partial pivoting. Returns the first non-ok status encountered.
template <typename T>
tridiag::SolveStatus solve_batch(tridiag::SystemBatch<T>& batch);

extern template tridiag::SolveStatus solve_batch<float>(tridiag::SystemBatch<float>&);
extern template tridiag::SolveStatus solve_batch<double>(tridiag::SystemBatch<double>&);

}  // namespace tridsolve::cpu
