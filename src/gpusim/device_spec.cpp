#include "gpusim/device_spec.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace tridsolve::gpusim {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mix_bytes(std::uint64_t& h, const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void mix_u64(std::uint64_t& h, std::uint64_t v) noexcept {
  mix_bytes(h, &v, sizeof v);
}

void mix_f64(std::uint64_t& h, double v) noexcept {
  mix_u64(h, std::bit_cast<std::uint64_t>(v));
}

/// A negative value converts to an integer with many bits set.
template <typename Int>
void require_pow2(const char* field, Int v) {
  if (!std::has_single_bit(static_cast<std::uint64_t>(v))) {
    throw std::invalid_argument(std::string("DeviceSpec: ") + field +
                                " must be a positive power of two, got " +
                                std::to_string(v));
  }
}

}  // namespace

void DeviceSpec::validate() const {
  require_pow2("warp_size", warp_size);
  require_pow2("transaction_bytes", transaction_bytes);
  require_pow2("shared_bank_width", shared_bank_width);
  if (shared_banks <= 0) {
    throw std::invalid_argument("DeviceSpec: shared_banks must be > 0, got " +
                                std::to_string(shared_banks));
  }
}

std::uint64_t DeviceSpec::fingerprint() const noexcept {
  std::uint64_t h = kFnvOffset;
  mix_bytes(h, name.data(), name.size());
  mix_u64(h, static_cast<std::uint64_t>(num_sms));
  mix_u64(h, static_cast<std::uint64_t>(warp_size));
  mix_u64(h, static_cast<std::uint64_t>(max_threads_per_sm));
  mix_u64(h, static_cast<std::uint64_t>(max_blocks_per_sm));
  mix_u64(h, static_cast<std::uint64_t>(max_threads_per_block));
  mix_u64(h, shared_mem_per_sm);
  mix_u64(h, shared_mem_per_block);
  mix_u64(h, static_cast<std::uint64_t>(shared_banks));
  mix_u64(h, static_cast<std::uint64_t>(shared_bank_width));
  mix_u64(h, transaction_bytes);
  mix_f64(h, mem_bandwidth_gbps);
  mix_f64(h, mem_latency_cycles);
  mix_f64(h, max_mem_warps_per_sm);
  mix_f64(h, clock_ghz);
  mix_f64(h, fp32_lanes_per_sm);
  mix_f64(h, fp64_lanes_per_sm);
  mix_f64(h, div_op_cost);
  mix_f64(h, barrier_cycles);
  mix_f64(h, kernel_launch_overhead_us);
  return h;
}

DeviceSpec gtx480() {
  DeviceSpec d;
  d.name = "GTX480";
  d.num_sms = 15;
  d.warp_size = 32;
  d.max_threads_per_sm = 1536;
  d.max_blocks_per_sm = 8;
  d.max_threads_per_block = 1024;
  d.shared_mem_per_sm = 48 * 1024;
  d.shared_mem_per_block = 48 * 1024;
  d.transaction_bytes = 128;
  d.mem_bandwidth_gbps = 177.4;
  d.mem_latency_cycles = 600.0;
  d.clock_ghz = 1.401;
  d.fp32_lanes_per_sm = 32.0;
  d.fp64_lanes_per_sm = 4.0;  // GeForce cap: 1/8 of FP32
  d.div_op_cost = 8.0;
  d.barrier_cycles = 32.0;
  d.kernel_launch_overhead_us = 6.0;
  return d;
}

DeviceSpec gtx280() {
  DeviceSpec d;
  d.name = "GTX280";
  d.num_sms = 30;
  d.warp_size = 32;
  d.max_threads_per_sm = 1024;
  d.max_blocks_per_sm = 8;
  d.max_threads_per_block = 512;
  d.shared_mem_per_sm = 16 * 1024;
  d.shared_mem_per_block = 16 * 1024;
  d.transaction_bytes = 128;
  d.mem_bandwidth_gbps = 141.7;
  d.mem_latency_cycles = 550.0;
  d.clock_ghz = 1.296;
  d.fp32_lanes_per_sm = 8.0;   // GT200 SM: 8 SPs
  d.fp64_lanes_per_sm = 1.0;   // 1/8 of FP32
  d.div_op_cost = 8.0;
  d.barrier_cycles = 32.0;
  d.kernel_launch_overhead_us = 8.0;
  return d;
}

DeviceSpec test_device() {
  DeviceSpec d;
  d.name = "test2sm";
  d.num_sms = 2;
  d.warp_size = 4;
  d.max_threads_per_sm = 64;
  d.max_blocks_per_sm = 4;
  d.max_threads_per_block = 32;
  d.shared_mem_per_sm = 1024;
  d.shared_mem_per_block = 1024;
  d.transaction_bytes = 32;
  d.mem_bandwidth_gbps = 1.0;
  d.mem_latency_cycles = 100.0;
  d.clock_ghz = 1.0;
  d.fp32_lanes_per_sm = 4.0;
  d.fp64_lanes_per_sm = 1.0;
  d.div_op_cost = 8.0;
  d.barrier_cycles = 8.0;
  d.kernel_launch_overhead_us = 1.0;
  return d;
}

}  // namespace tridsolve::gpusim
