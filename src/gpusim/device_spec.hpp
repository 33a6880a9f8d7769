#pragma once
// GPU device descriptions for the execution/timing simulator.
//
// The numbers for the GTX480 preset are the public Fermi GF100 datasheet
// values for the card the paper evaluates on. Only ratios and mechanisms
// (occupancy, latency hiding, bandwidth, FP64 throttling, launch overhead)
// matter for reproducing the paper's performance *shapes*; see DESIGN.md.
//
// Contracts: DeviceSpec is an immutable-after-construction value type —
// copy freely, share across threads without synchronization. Units are
// stated per field: clocks in GHz, bandwidth in GB/s, latencies and
// barrier costs in shader cycles, launch overhead in microseconds,
// memory sizes in bytes.

#include <cstddef>
#include <cstdint>
#include <string>

namespace tridsolve::gpusim {

struct DeviceSpec {
  std::string name;

  // Parallelism / scheduling limits.
  int num_sms = 15;
  int warp_size = 32;
  int max_threads_per_sm = 1536;
  int max_blocks_per_sm = 8;
  int max_threads_per_block = 1024;

  // Memories.
  std::size_t shared_mem_per_sm = 48 * 1024;
  std::size_t shared_mem_per_block = 48 * 1024;
  int shared_banks = 32;            ///< shared-memory banks
  int shared_bank_width = 4;        ///< bytes per bank
  std::size_t transaction_bytes = 128;  ///< global-memory segment size
  double mem_bandwidth_gbps = 177.4;    ///< GB/s
  double mem_latency_cycles = 600.0;    ///< exposed global load latency
  double max_mem_warps_per_sm = 16.0;    ///< MWP cap: warps whose memory
                                        ///< rounds the LSU pipeline can
                                        ///< keep in flight concurrently

  // Execution throughput.
  double clock_ghz = 1.401;           ///< shader clock
  double fp32_lanes_per_sm = 32.0;    ///< FP32 op-equivalents retired/cycle/SM
  double fp64_lanes_per_sm = 4.0;     ///< GeForce Fermi: FP64 = 1/8 FP32
  double div_op_cost = 8.0;           ///< one division ~ this many op-equivalents
  double barrier_cycles = 32.0;       ///< __syncthreads cost per block barrier

  // Host-side costs.
  double kernel_launch_overhead_us = 6.0;

  /// FP op-equivalents per cycle for the whole device at a given precision.
  [[nodiscard]] double ops_per_cycle(bool fp64) const noexcept {
    return (fp64 ? fp64_lanes_per_sm : fp32_lanes_per_sm) * num_sms;
  }

  /// Peak GFLOP/s at a precision (sanity/reporting only).
  [[nodiscard]] double peak_gflops(bool fp64) const noexcept {
    return ops_per_cycle(fp64) * clock_ghz;
  }

  /// Throws std::invalid_argument unless warp_size, transaction_bytes and
  /// shared_bank_width are positive powers of two and shared_banks > 0:
  /// the simulator splits threads into warps and addresses into segments
  /// and banks by these, the coalescer by shift. gpusim::launch checks it.
  void validate() const;

  /// Stable identity hash (FNV-1a over the name and every numeric field):
  /// two specs with equal fields fingerprint equally, and any field change
  /// changes it. Keys plan-cache entries and calibration files so a plan
  /// tuned for one device is never applied to another.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;
};

/// The card the paper's evaluation uses (Fermi GF100, 1.5 GB).
[[nodiscard]] DeviceSpec gtx480();

/// An older Tesla-class part (GT200): used by scalability/what-if ablations
/// to show the transition heuristic adapting to different hardware.
[[nodiscard]] DeviceSpec gtx280();

/// A deliberately tiny device for unit tests: 2 SMs, 64 threads/SM,
/// 1 KB shared — occupancy and wave effects show up at toy sizes.
[[nodiscard]] DeviceSpec test_device();

}  // namespace tridsolve::gpusim
