#include "gpu_solvers/plan_cache.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "gpu_solvers/transition.hpp"
#include "obs/json.hpp"
#include "util/cli.hpp"

namespace tridsolve::gpu {

namespace {

// FNV-1a over the key's fields, byte by byte — field-wise so struct
// padding never leaks into the hash.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

[[nodiscard]] std::uint64_t key_hash(const PlanKey& k) noexcept {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, k.device);
  fnv_mix(h, k.m);
  fnv_mix(h, k.n);
  fnv_mix(h, k.elem_size);
  fnv_mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(k.force_k)));
  fnv_mix(h, k.sub_tile_c);
  fnv_mix(h, (std::uint64_t{k.variant} << 16) | k.fuse);
  return h;
}

/// The kernel's own hard cap (tiled_pcr_kernel.cpp kMaxK), re-stated here
/// so a forced k is rejected at plan time with a structured error instead
/// of deep inside the launch path.
constexpr unsigned kKernelMaxK = 16;

void validate_forced_k(int force_k, std::size_t n,
                       const gpusim::DeviceSpec& dev) {
  const auto fail = [&](const char* why) {
    std::ostringstream os;
    os << "plan_hybrid: forced k=" << force_k << " invalid for N=" << n
       << " on " << dev.name << ": " << why;
    throw std::invalid_argument(os.str());
  };
  const auto k = static_cast<unsigned>(force_k);
  if (k == 0) return;  // k = 0 is always legal: skip PCR, p-Thomas only
  if (k > kKernelMaxK) fail("k exceeds the kernel maximum (16)");
  const std::size_t threads = std::size_t{1} << k;
  if (threads > static_cast<std::size_t>(dev.max_threads_per_block)) {
    fail("2^k threads exceed the device block limit");
  }
  if (threads > n) fail("2^k exceeds the system size");
}

struct PlanMetrics {
  obs::MetricsRegistry::Counter clamped =
      obs::counter_handle("transition.clamped");

  static PlanMetrics& instance() {
    static PlanMetrics m;
    return m;
  }
};

}  // namespace

std::size_t PlanKeyHash::operator()(const PlanKey& k) const noexcept {
  return static_cast<std::size_t>(key_hash(k));
}

PlanKey make_plan_key(const gpusim::DeviceSpec& dev, std::size_t m,
                      std::size_t n, std::size_t elem_size,
                      const HybridOptions& opts) {
  PlanKey key;
  key.device = dev.fingerprint();
  key.m = m;
  key.n = n;
  key.elem_size = static_cast<std::uint32_t>(elem_size);
  key.force_k = opts.force_k;
  key.sub_tile_c = std::max<std::uint64_t>(1, opts.sub_tile_c);
  key.variant = static_cast<std::uint8_t>(opts.variant);
  key.fuse = opts.fuse ? 1 : 0;
  return key;
}

SolvePlan plan_hybrid(const gpusim::DeviceSpec& dev, std::size_t m,
                      std::size_t n, std::size_t elem_size,
                      const HybridOptions& opts) {
  (void)elem_size;  // planning is shape-driven; elem_size only keys the cache
  SolvePlan plan;
  plan.c = std::max<std::size_t>(1, opts.sub_tile_c);
  plan.source =
      opts.force_k >= 0 ? PlanSource::forced : PlanSource::heuristic;
  if (m == 0 || n == 0) return plan;  // degenerate batch: nothing to plan

  // --- transition point (Table III / forced) -------------------------------
  unsigned k = 0;
  if (opts.force_k >= 0) {
    validate_forced_k(opts.force_k, n, dev);
    k = static_cast<unsigned>(opts.force_k);
  } else {
    k = heuristic_k(m, n);
    // Unbounded n gives the Table III row itself: a difference is a clamp.
    if (k != heuristic_k(m, SIZE_MAX)) PlanMetrics::instance().clamped.add();
  }
  plan.k = k;

  if (k == 0) {
    plan.variant = WindowVariant::one_block_per_system;  // p-Thomas only
    return plan;
  }

  // --- window variant + launch geometry (Fig. 11) --------------------------
  WindowVariant variant =
      opts.variant == WindowVariant::auto_select
          ? (m < static_cast<std::size_t>(2 * dev.num_sms)
                 ? WindowVariant::split_system
                 : WindowVariant::one_block_per_system)
          : opts.variant;
  if (opts.fuse && variant == WindowVariant::split_system) {
    variant = WindowVariant::one_block_per_system;  // fusion needs whole systems
  }
  plan.variant = variant;

  if (variant == WindowVariant::split_system) {
    const std::size_t sub_tile = plan.c << k;
    const std::size_t target_blocks = static_cast<std::size_t>(4 * dev.num_sms);
    const std::size_t max_regions =
        std::max<std::size_t>(1, n / std::max<std::size_t>(1, 4 * sub_tile));
    plan.blocks_per_system = std::clamp<std::size_t>(
        (target_blocks + m - 1) / m, 1, max_regions);
  } else if (variant == WindowVariant::multi_system_per_block) {
    plan.systems_per_block = std::min<std::size_t>(4, m);
  }
  return plan;
}

PlanCache& PlanCache::instance() {
  static PlanCache cache;
  return cache;
}

PlanCache::Shard& PlanCache::shard_for(const PlanKey& key) const noexcept {
  return shards_[key_hash(key) % kShards];
}

void PlanCache::publish_size() const noexcept {
  obs::gauge("gpu.plan_cache.size", static_cast<double>(size()));
}

PlanCache::Result PlanCache::plan(const PlanKey& key,
                                  const std::function<SolvePlan()>& make) {
  if (ScopedBypass::active()) return {make(), false};
  {
    Shard& sh = shard_for(key);
    std::lock_guard<std::mutex> lk(sh.mu);
    auto it = sh.map.find(key);
    if (it != sh.map.end()) {
      it->second.last_use = ++sh.tick;
      hits_.add();
      return {it->second.plan, true};
    }
  }
  misses_.add();
  // Compute outside the lock. Two threads racing on the same cold key
  // both compute the deterministic plan; one insert wins.
  const SolvePlan computed = make();
  insert(key, computed);
  return {computed, false};
}

std::optional<SolvePlan> PlanCache::lookup(const PlanKey& key) const {
  Shard& sh = shard_for(key);
  std::lock_guard<std::mutex> lk(sh.mu);
  auto it = sh.map.find(key);
  if (it == sh.map.end()) return std::nullopt;
  if (!it->second.plan.fits(key.n)) {
    // Should be unreachable (insert shape-checks) — defense against a
    // future mutation path handing out a plan that cannot run.
    sh.map.erase(it);
    rejected_.add();
    return std::nullopt;
  }
  it->second.last_use = ++sh.tick;
  return it->second.plan;
}

bool PlanCache::insert(const PlanKey& key, const SolvePlan& plan) {
  if (!plan.fits(key.n) ||
      (key.force_k >= 0 && plan.k != static_cast<unsigned>(key.force_k))) {
    rejected_.add();
    return false;
  }
  {
    Shard& sh = shard_for(key);
    std::lock_guard<std::mutex> lk(sh.mu);
    auto it = sh.map.find(key);
    if (it != sh.map.end()) {
      it->second.plan = plan;
      it->second.last_use = ++sh.tick;
      return true;
    }
    if (sh.map.size() >= kCapacityPerShard) {
      auto victim = sh.map.begin();
      for (auto cand = sh.map.begin(); cand != sh.map.end(); ++cand) {
        if (cand->second.last_use < victim->second.last_use) victim = cand;
      }
      sh.map.erase(victim);
      evictions_.add();
    }
    sh.map.emplace(key, Entry{plan, ++sh.tick});
    insertions_.add();
  }
  publish_size();
  return true;
}

std::size_t PlanCache::load_calibration(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("plan cache: cannot open calibration file: " +
                             path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto doc = obs::JsonValue::parse(buf.str());
  if (!doc || !doc->is_object()) {
    throw std::runtime_error("plan cache: calibration file is not JSON: " +
                             path);
  }
  const auto* schema = doc->find("schema");
  if (!schema || !schema->is_string() ||
      schema->as_string() != "tridsolve-plan-v1") {
    throw std::runtime_error(
        "plan cache: calibration schema is not tridsolve-plan-v1: " + path);
  }
  // The fingerprint is a decimal *string*: it uses all 64 bits and a JSON
  // number (double) round-trip would corrupt it above 2^53.
  const auto* fp = doc->find("fingerprint");
  const auto* plans = doc->find("plans");
  if (!fp || !fp->is_string() || !plans || !plans->is_array()) {
    throw std::runtime_error(
        "plan cache: calibration file missing fingerprint/plans: " + path);
  }
  std::uint64_t fingerprint = 0;
  try {
    fingerprint = std::stoull(fp->as_string());
  } catch (const std::exception&) {
    throw std::runtime_error("plan cache: calibration fingerprint is not a "
                             "decimal string: " + path);
  }

  const auto num = [&path](const obs::JsonValue& entry, const char* field,
                           double fallback, bool required) {
    const auto* v = entry.find(field);
    if (!v || !v->is_number()) {
      if (required) {
        throw std::runtime_error(std::string("plan cache: calibration entry "
                                             "missing numeric field '") +
                                 field + "': " + path);
      }
      return fallback;
    }
    return v->as_number();
  };

  std::size_t accepted = 0;
  for (const auto& entry : plans->as_array()) {
    if (!entry.is_object()) {
      throw std::runtime_error("plan cache: calibration entry is not an "
                               "object: " + path);
    }
    // Integer fields must be whole numbers in [0, 2^31) before the casts
    // below: a negative c or region count would otherwise wrap into a
    // huge value that passes the shape check.
    bool whole = true;
    const auto count = [&](const char* field, double fallback, bool required) {
      const double v = num(entry, field, fallback, required);
      whole = whole && v >= 0.0 && v < 2147483648.0 && v == std::floor(v);
      return whole ? v : 0.0;
    };
    PlanKey key;  // calibration plans answer the *default* plan request
    key.device = fingerprint;
    key.m = static_cast<std::uint64_t>(count("m", 0, true));
    key.n = static_cast<std::uint64_t>(count("n", 0, true));
    key.elem_size = static_cast<std::uint32_t>(count("elem_size", 8, false));

    SolvePlan plan;
    plan.k = static_cast<unsigned>(count("k", 0, true));
    plan.c = static_cast<std::size_t>(count("c", 1, false));
    plan.blocks_per_system =
        static_cast<std::size_t>(count("blocks_per_system", 0, false));
    plan.systems_per_block =
        static_cast<std::size_t>(count("systems_per_block", 1, false));
    plan.source = PlanSource::calibrated;
    plan.tuned_us = num(entry, "tuned_us", 0.0, false);

    const auto* variant = entry.find("variant");
    const auto parsed = variant && variant->is_string()
                            ? window_variant_from_name(variant->as_string())
                            : std::nullopt;
    if (!whole || !parsed || *parsed == WindowVariant::auto_select) {
      // A non-whole number, or an unknown/auto variant: the entry cannot
      // pin a plan.
      rejected_.add();
      continue;
    }
    plan.variant = *parsed;
    if (insert(key, plan)) ++accepted;  // insert() rejects unfit shapes
  }
  return accepted;
}

void PlanCache::clear() {
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.map.clear();
    sh.tick = 0;
  }
  publish_size();
}

std::size_t PlanCache::size() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh.mu);
    total += sh.map.size();
  }
  return total;
}

void configure_plan_cache_from_cli(const util::Cli& cli) {
  if (const auto path = cli.get("plan-file")) {
    PlanCache::instance().load_calibration(*path);
  }
}

}  // namespace tridsolve::gpu
