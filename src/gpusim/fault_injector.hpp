#pragma once
// Seeded, fully deterministic fault injection for the execution engine.
//
// A FaultPlan installed on the ExecutionEngine (or via ScopedFaultPlan)
// makes every launch draw faults from a counter-keyed hash instead of any
// real randomness: each candidate site is identified by the tuple
// (seed, launch ordinal, block id, per-block site ordinal), so the set of
// injected faults is bit-identical for any --sim-threads value, any
// InstrumentMode, and any block->worker assignment. Five fault kinds are
// modelled:
//   * global_flip — ECC-style single-bit flip on a global t.load/t.store
//   * nan_write   — a global t.store silently writes quiet-NaN instead
//   * shared_flip — one live shared-arena word is corrupted at a phase
//                   boundary (transient scratchpad upset)
//   * launch_fail — the whole launch aborts with a LaunchFailure
//   * timeout     — a block overruns its time budget; the launch completes
//                   but its simulated time is inflated by
//                   kFaultTimeoutOverrunUs per overrunning block and the
//                   results are suspect
// A value flip targets the top exponent bit (bit 62 for 8-byte, bit 30
// for 4-byte payloads and shared-arena words): the corruption is loud —
// orders of magnitude, infinities — so detection layers are exercised
// rather than quietly perturbing low mantissa bits.
//
// Contracts:
//  * Thread-safety: FaultPlan is a value snapshot; FaultSession belongs
//    to exactly one block on one worker thread. Counts sinks are
//    per-worker and merged (sums) after the grid drains.
//  * Determinism: decisions depend only on (seed, launch, block, site);
//    the per-block site ordinal counts *global* instrumented accesses in
//    thread-sequential block order, which is identical across worker
//    counts and instrument modes (a block with a fault session is
//    observed: kernels run their bodies through ThreadCtx, never on
//    RawThread, like hazard checking).
//  * Injection changes only functional values / timing — never recorded
//    KernelCosts, so cost accounting stays that of the un-faulted kernel.

#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "gpusim/shared_memory.hpp"

namespace tridsolve::gpusim {

/// Simulated stall added to a launch per block that overran its budget.
inline constexpr double kFaultTimeoutOverrunUs = 50.0;

/// Bitmask of injectable fault kinds (FaultPlan::kinds).
enum FaultKind : unsigned {
  kFaultGlobalFlip = 1u << 0,
  kFaultSharedFlip = 1u << 1,
  kFaultNanWrite = 1u << 2,
  kFaultLaunchFail = 1u << 3,
  kFaultTimeout = 1u << 4,
  kFaultAll = (1u << 5) - 1,
};

/// Parse a comma-separated kind list: "flip", "shared", "nan", "launch",
/// "timeout", plus "all" and "none". Throws std::invalid_argument on
/// anything else.
[[nodiscard]] inline unsigned parse_fault_kinds(std::string_view list) {
  unsigned kinds = 0;
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    const std::string_view tok = list.substr(0, comma);
    if (tok == "flip" || tok == "global-flip") {
      kinds |= kFaultGlobalFlip;
    } else if (tok == "shared" || tok == "shared-flip") {
      kinds |= kFaultSharedFlip;
    } else if (tok == "nan" || tok == "nan-write") {
      kinds |= kFaultNanWrite;
    } else if (tok == "launch" || tok == "launch-fail") {
      kinds |= kFaultLaunchFail;
    } else if (tok == "timeout") {
      kinds |= kFaultTimeout;
    } else if (tok == "all") {
      kinds |= kFaultAll;
    } else if (tok != "none" && !tok.empty()) {
      throw std::invalid_argument(
          "unknown fault kind \"" + std::string(tok) +
          "\" (expected flip|shared|nan|launch|timeout|all|none)");
    }
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
  }
  return kinds;
}

/// Per-kind injection tallies. merge() is a plain sum, so any association
/// of per-worker tallies yields the same totals.
struct FaultCounts {
  std::uint64_t bit_flips = 0;           ///< global load/store bit flips
  std::uint64_t shared_corruptions = 0;  ///< arena words hit at phase ends
  std::uint64_t nan_writes = 0;          ///< stores replaced with quiet-NaN
  std::uint64_t launch_failures = 0;     ///< launches aborted outright
  std::uint64_t timeouts = 0;            ///< blocks that overran the budget

  void merge(const FaultCounts& o) noexcept {
    bit_flips += o.bit_flips;
    shared_corruptions += o.shared_corruptions;
    nan_writes += o.nan_writes;
    launch_failures += o.launch_failures;
    timeouts += o.timeouts;
  }

  [[nodiscard]] std::uint64_t total() const noexcept {
    return bit_flips + shared_corruptions + nan_writes + launch_failures +
           timeouts;
  }
  [[nodiscard]] bool any() const noexcept { return total() != 0; }
};

/// An injected launch failure: thrown by the engine in place of running
/// the grid (the simulated analogue of cudaLaunchKernel returning an
/// error). Retryable — the next launch draws a fresh ordinal.
class LaunchFailure : public std::runtime_error {
 public:
  explicit LaunchFailure(const std::string& what) : std::runtime_error(what) {}
};

/// What to inject, where, and how often. A default-constructed plan is
/// inactive (rate 0, no pinpoint). Two selection modes:
///  * rate mode — every candidate site is hit independently with
///    probability `rate`, decided by hashing (seed, launch, block, site);
///  * pinpoint mode — exactly one site is hit: `pinpoint_kind` at launch
///    `at_launch`, block `at_block`, site ordinal `at_site` (ignored for
///    launch-level kinds). Used by property tests that need precisely one
///    corruption.
struct FaultPlan {
  std::uint64_t seed = 0;
  double rate = 0.0;        ///< per-site probability in [0, 1]
  unsigned kinds = kFaultAll;

  bool pinpoint = false;
  std::uint64_t at_launch = 0;
  std::uint64_t at_block = 0;
  std::uint64_t at_site = 0;
  unsigned pinpoint_kind = kFaultNanWrite;

  [[nodiscard]] bool active() const noexcept { return rate > 0.0 || pinpoint; }

  /// Launch-level decisions (made once per launch by the engine).
  [[nodiscard]] bool launch_should_fail(std::uint64_t launch) const noexcept;
};

namespace fault_detail {

/// splitmix64 finalizer: a full-avalanche 64-bit mix.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Hash one candidate site; `salt` separates fault categories so e.g.
/// data-site and timeout decisions at the same ordinals are independent.
[[nodiscard]] constexpr std::uint64_t site_hash(std::uint64_t seed,
                                                std::uint64_t salt,
                                                std::uint64_t launch,
                                                std::uint64_t block,
                                                std::uint64_t site) noexcept {
  return mix64(mix64(mix64(mix64(seed ^ salt) + launch) + block) + site);
}

inline constexpr std::uint64_t kSaltData = 0x66617573696d3031ull;
inline constexpr std::uint64_t kSaltShared = 0x66617573696d3032ull;
inline constexpr std::uint64_t kSaltLaunch = 0x66617573696d3033ull;
inline constexpr std::uint64_t kSaltTimeout = 0x66617573696d3034ull;

/// Map a probability to a strict-< threshold on the 64-bit hash space.
[[nodiscard]] constexpr std::uint64_t rate_threshold(double rate) noexcept {
  if (!(rate > 0.0)) return 0;
  if (rate >= 1.0) return ~0ull;
  const double scaled = rate * 18446744073709551616.0;  // 2^64
  return scaled >= 18446744073709551615.0
             ? ~0ull
             : static_cast<std::uint64_t>(scaled);
}

/// Flip the top exponent bit of an IEEE float of that width (62 / 30), or
/// the next-to-top bit of the widest word of any other payload.
template <typename T>
[[nodiscard]] T flip_value_bit(T v) noexcept {
  static_assert(std::is_trivially_copyable_v<T>);
  if constexpr (sizeof(T) == 8) {
    std::uint64_t u;
    std::memcpy(&u, &v, 8);
    u ^= 1ull << 62;
    std::memcpy(&v, &u, 8);
  } else if constexpr (sizeof(T) == 4) {
    std::uint32_t u;
    std::memcpy(&u, &v, 4);
    u ^= 1u << 30;
    std::memcpy(&v, &u, 4);
  } else {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    constexpr std::size_t b = 8 * sizeof(T) - 2;
    bytes[b / 8] ^= static_cast<unsigned char>(1u << (b % 8));
    std::memcpy(&v, bytes, sizeof(T));
  }
  return v;
}

}  // namespace fault_detail

inline bool FaultPlan::launch_should_fail(std::uint64_t launch) const noexcept {
  if (pinpoint) {
    return pinpoint_kind == kFaultLaunchFail && launch == at_launch;
  }
  if ((kinds & kFaultLaunchFail) == 0) return false;
  return fault_detail::site_hash(seed, fault_detail::kSaltLaunch, launch, 0,
                                 0) < fault_detail::rate_threshold(rate);
}

/// Per-block fault state: owns the deterministic site ordinals of one
/// block and applies the plan's decisions. Constructed by the engine for
/// every block of a fault-checked launch, with the counts sink of the
/// executing worker (merged deterministically post-launch).
class FaultSession {
 public:
  FaultSession(const FaultPlan& plan, std::uint64_t launch, std::uint64_t block,
               FaultCounts& sink) noexcept
      : plan_(plan), launch_(launch), block_(block), sink_(sink) {
    if (timeout_hit()) ++sink_.timeouts;
  }

  /// Filter one global load/store value. Loads are candidates for bit
  /// flips; stores additionally for NaN writes. Every call advances the
  /// block's data-site ordinal whether or not a fault fires.
  template <typename T>
  [[nodiscard]] T filter_data(T v, bool is_store) noexcept {
    const std::uint64_t site = data_site_++;
    unsigned kind = 0;
    if (plan_.pinpoint) {
      if (launch_ == plan_.at_launch && block_ == plan_.at_block &&
          site == plan_.at_site) {
        kind = plan_.pinpoint_kind;
      }
    } else {
      const std::uint64_t h = fault_detail::site_hash(
          plan_.seed, fault_detail::kSaltData, launch_, block_, site);
      if (h < fault_detail::rate_threshold(plan_.rate)) {
        // Both data kinds enabled: a second hash bit picks one.
        const bool flip_ok = (plan_.kinds & kFaultGlobalFlip) != 0;
        const bool nan_ok = is_store && (plan_.kinds & kFaultNanWrite) != 0;
        if (flip_ok && nan_ok) {
          kind = (fault_detail::mix64(h) & 1) ? kFaultNanWrite
                                              : kFaultGlobalFlip;
        } else if (flip_ok) {
          kind = kFaultGlobalFlip;
        } else if (nan_ok) {
          kind = kFaultNanWrite;
        }
      }
    }
    if (kind == kFaultNanWrite && is_store) {
      if constexpr (std::is_floating_point_v<T>) {
        ++sink_.nan_writes;
        return std::numeric_limits<T>::quiet_NaN();
      } else {
        kind = kFaultGlobalFlip;  // non-FP payloads degrade to a flip
      }
    }
    if (kind == kFaultGlobalFlip) {
      ++sink_.bit_flips;
      return fault_detail::flip_value_bit(v);
    }
    return v;
  }

  /// Phase-boundary shared-memory upset: corrupt one live arena word
  /// (bit 30 of a 32-bit word chosen by hash). Called by
  /// BlockContext at the end of every phase; advances the phase ordinal
  /// regardless of whether a fault fires.
  void end_phase(SharedArena& arena) noexcept {
    const std::uint64_t phase = phase_++;
    std::uint64_t h;
    if (plan_.pinpoint) {
      if (plan_.pinpoint_kind != kFaultSharedFlip ||
          launch_ != plan_.at_launch || block_ != plan_.at_block ||
          phase != plan_.at_site) {
        return;
      }
      h = fault_detail::site_hash(plan_.seed, fault_detail::kSaltShared,
                                  launch_, block_, phase);
    } else {
      if ((plan_.kinds & kFaultSharedFlip) == 0) return;
      h = fault_detail::site_hash(plan_.seed, fault_detail::kSaltShared,
                                  launch_, block_, phase);
      if (h >= fault_detail::rate_threshold(plan_.rate)) return;
    }
    const std::size_t words = arena.used() / 4;
    if (words == 0) return;  // no live shared memory to corrupt
    const std::size_t word = fault_detail::mix64(h) % words;
    std::uint32_t u;
    std::byte* p = arena.mutable_data() + word * 4;
    std::memcpy(&u, p, 4);
    u = fault_detail::flip_value_bit(u);
    std::memcpy(p, &u, 4);
    ++sink_.shared_corruptions;
  }

 private:
  [[nodiscard]] bool timeout_hit() const noexcept {
    if (plan_.pinpoint) {
      return plan_.pinpoint_kind == kFaultTimeout &&
             launch_ == plan_.at_launch && block_ == plan_.at_block;
    }
    if ((plan_.kinds & kFaultTimeout) == 0) return false;
    return fault_detail::site_hash(plan_.seed, fault_detail::kSaltTimeout,
                                   launch_, block_, 0) <
           fault_detail::rate_threshold(plan_.rate);
  }

  const FaultPlan& plan_;
  std::uint64_t launch_;
  std::uint64_t block_;
  FaultCounts& sink_;
  std::uint64_t data_site_ = 0;
  std::uint64_t phase_ = 0;
};

}  // namespace tridsolve::gpusim
