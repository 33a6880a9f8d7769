#pragma once
// Plan cache for the hybrid solver (ROADMAP item 4): memoize the outcome
// of planning — transition point k, window variant, sub-tile c, launch
// geometry — per (device, shape, request) so repeated-shape workloads
// plan once and solve many times, and so an offline autotuner
// (gpu_solvers/autotune.hpp, bench_autotune) can preload empirically
// measured plans from a calibration file.
//
// Contracts:
//  * Thread-safe: the cache is shard-locked (16 shards, per-shard mutex);
//    lookups and inserts from concurrent solves never block each other on
//    different shards. Planning itself runs outside the locks — two
//    threads racing on the same cold key both compute the (deterministic)
//    plan and one insert wins; both solves use identical plans.
//  * Bit-transparent: a cached SolvePlan pins exactly the values cold
//    planning computes, so cache-hit solves are bitwise-identical to
//    cold solves, in solution and in simulated time (pinned by
//    tests/test_plan_cache.cpp across the whole solver registry).
//  * Shape-checked: insert() and lookup() reject any plan that does not
//    fit its key (stale calibration entry, corrupted file) — a SolvePlan
//    can never be applied to a mismatched PlanKey. Rejections count in
//    gpu.plan_cache.rejected.
//  * Metrics: gpu.plan_cache.{hits,misses,evictions,insertions,rejected}
//    counters plus a gpu.plan_cache.size gauge.
//
// Calibration files (written by bench_autotune --out, schema-checked by
// tools/validate_telemetry --plan) preload plans for the *default*
// request (no forced k, no explicit variant/c) via --plan-file on any
// bench/example.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "gpu_solvers/hybrid_solver.hpp"
#include "gpusim/device_spec.hpp"
#include "obs/metrics.hpp"

namespace tridsolve::util {
class Cli;
}

namespace tridsolve::gpu {

/// Identity of one planning problem: device fingerprint, batch shape,
/// element size and the full plan-affecting request signature from
/// HybridOptions. Two solves with equal keys are guaranteed to plan
/// identically, so a cached plan is exact, never approximate.
struct PlanKey {
  std::uint64_t device = 0;  ///< gpusim::DeviceSpec::fingerprint()
  std::uint64_t m = 0;       ///< number of systems
  std::uint64_t n = 0;       ///< system size
  std::uint32_t elem_size = sizeof(double);

  // Request signature (every HybridOptions field that can change a plan).
  std::int32_t force_k = -1;
  std::uint64_t sub_tile_c = 1;
  std::uint8_t variant = 0;  ///< WindowVariant as an integer
  std::uint8_t fuse = 0;

  [[nodiscard]] bool operator==(const PlanKey&) const noexcept = default;
};

struct PlanKeyHash {
  [[nodiscard]] std::size_t operator()(const PlanKey& k) const noexcept;
};

/// A fully resolved plan: everything hybrid_solve derives before touching
/// the batch. `variant` is never auto_select here.
struct SolvePlan {
  unsigned k = 0;
  WindowVariant variant = WindowVariant::one_block_per_system;
  std::size_t c = 1;                  ///< sub-tile multiplier, S = c * 2^k
  std::size_t blocks_per_system = 0;  ///< split_system region count (else 0)
  std::size_t systems_per_block = 1;  ///< windows per block (multi variant)
  PlanSource source = PlanSource::heuristic;
  double tuned_us = 0.0;  ///< autotuner's measured simulated time (0 = n/a)

  /// Shape check: can this plan legally solve an (m, n) batch? 2^k
  /// reduced systems need at least one row each, the sub-tile S = c * 2^k
  /// needs c >= 1, and a split_system plan needs at least one region.
  [[nodiscard]] bool fits(std::uint64_t n) const noexcept {
    return k < 31 && (n >> k) >= 1 && c >= 1 &&
           (variant != WindowVariant::split_system || blocks_per_system >= 1);
  }
};

/// The plan-affecting request key for a batch shape and options set.
[[nodiscard]] PlanKey make_plan_key(const gpusim::DeviceSpec& dev,
                                    std::size_t m, std::size_t n,
                                    std::size_t elem_size,
                                    const HybridOptions& opts);

/// Cold planning: the transition point (Table III heuristic or forced
/// k), the Fig. 11 variant pick, split-system region count and
/// multi-system windows per block. Throws std::invalid_argument when a
/// forced k is out of range for the shape or device (2^k > N, or 2^k
/// threads exceed a block); the heuristic clamps instead, and each plan
/// it clamps counts once in transition.clamped.
[[nodiscard]] SolvePlan plan_hybrid(const gpusim::DeviceSpec& dev,
                                    std::size_t m, std::size_t n,
                                    std::size_t elem_size,
                                    const HybridOptions& opts);

/// Process-wide, shard-locked plan cache. See file header for contracts.
class PlanCache {
 public:
  struct Result {
    SolvePlan plan;
    bool hit = false;  ///< plan came from the cache (or a calibration file)
  };

  static PlanCache& instance();

  /// The steady-state entry point: return the cached plan for `key`, or
  /// compute one with `make`, insert it, and return it. Under an active
  /// ScopedBypass the cache is not consulted or touched (autotune_cell
  /// measures candidates without polluting steady-state metrics).
  Result plan(const PlanKey& key, const std::function<SolvePlan()>& make);

  /// Shape-checked lookup; nullopt on miss (does not count hit/miss
  /// metrics — plan() is the metered path).
  [[nodiscard]] std::optional<SolvePlan> lookup(const PlanKey& key) const;

  /// Shape-checked insert; returns false (and counts
  /// gpu.plan_cache.rejected) when the plan does not fit the key.
  bool insert(const PlanKey& key, const SolvePlan& plan);

  /// Preload plans from a calibration JSON file (bench_autotune --out
  /// format). Entries are keyed for the default request of the file's
  /// device fingerprint; entries that fail the shape check are rejected
  /// (counted, not fatal). Returns the number of plans accepted. Throws
  /// std::runtime_error on an unreadable or malformed file.
  std::size_t load_calibration(const std::string& path);

  void clear();
  [[nodiscard]] std::size_t size() const;

  /// While alive on this thread, plan() computes without reading or
  /// writing the cache. The autotuner wraps candidate measurements in
  /// this so they neither hit preloaded plans nor count as misses.
  class ScopedBypass {
   public:
    ScopedBypass() noexcept { ++depth(); }
    ~ScopedBypass() { --depth(); }
    ScopedBypass(const ScopedBypass&) = delete;
    ScopedBypass& operator=(const ScopedBypass&) = delete;

    [[nodiscard]] static bool active() noexcept { return depth() > 0; }

   private:
    static int& depth() noexcept {
      thread_local int d = 0;
      return d;
    }
  };

 private:
  PlanCache() = default;

  struct Entry {
    SolvePlan plan;
    std::uint64_t last_use = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<PlanKey, Entry, PlanKeyHash> map;
    std::uint64_t tick = 0;
  };

  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kCapacityPerShard = 256;

  [[nodiscard]] Shard& shard_for(const PlanKey& key) const noexcept;
  void publish_size() const noexcept;

  mutable Shard shards_[kShards];

  obs::MetricsRegistry::Counter hits_ =
      obs::counter_handle("gpu.plan_cache.hits");
  obs::MetricsRegistry::Counter misses_ =
      obs::counter_handle("gpu.plan_cache.misses");
  obs::MetricsRegistry::Counter evictions_ =
      obs::counter_handle("gpu.plan_cache.evictions");
  obs::MetricsRegistry::Counter insertions_ =
      obs::counter_handle("gpu.plan_cache.insertions");
  obs::MetricsRegistry::Counter rejected_ =
      obs::counter_handle("gpu.plan_cache.rejected");
};

/// Apply the shared plan flag: --plan-file PATH preloads a calibration
/// file into the PlanCache. Called by bench::Telemetry alongside
/// gpusim::configure_engine_from_cli.
void configure_plan_cache_from_cli(const util::Cli& cli);

}  // namespace tridsolve::gpu
