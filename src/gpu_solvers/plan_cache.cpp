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

SolvePlan plan_from_request(const gpusim::DeviceSpec& dev, std::size_t m,
                            std::size_t n, tridiag::Layout layout,
                            const HybridOptions& opts) {
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
    k = heuristic_k(m, n, layout);
    // Unbounded n gives the Table III row itself: a plan running Table
    // III's k (not the layout rule's k = 0) below that row is a clamp.
    if (k == heuristic_k(m, n) && k != heuristic_k(m, SIZE_MAX)) {
      PlanMetrics::instance().clamped.add();
    }
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

SolvePlan plan_hybrid(const gpusim::DeviceSpec& dev, std::size_t m,
                      std::size_t n, std::size_t elem_size,
                      tridiag::Layout layout, const HybridOptions& opts) {
  const bool default_request = opts.force_k < 0 && opts.sub_tile_c <= 1 &&
                               opts.variant == WindowVariant::auto_select &&
                               !opts.fuse;
  if (default_request && layout == preferred_layout(m, n)) {
    if (auto calibrated = PlanCache::instance().find(dev, m, n, elem_size)) {
      return *calibrated;
    }
  }
  return plan_from_request(dev, m, n, layout, opts);
}

PlanCache& PlanCache::instance() {
  static PlanCache cache;
  return cache;
}

std::optional<SolvePlan> PlanCache::find(const gpusim::DeviceSpec& dev,
                                         std::size_t m, std::size_t n,
                                         std::size_t elem_size) const {
  if (!loaded_.load(std::memory_order_acquire)) return std::nullopt;
  const Key key{dev.fingerprint(), m, n, elem_size};
  const std::lock_guard<std::mutex> lk(mu_);
  const auto it = plans_.find(key);
  if (it == plans_.end()) return std::nullopt;
  return it->second;
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
    // Calibration plans answer the *default* plan request.
    const Key key{fingerprint, static_cast<std::uint64_t>(count("m", 0, true)),
                  static_cast<std::uint64_t>(count("n", 0, true)),
                  static_cast<std::uint64_t>(count("elem_size", 8, false))};

    SolvePlan plan;
    plan.k = static_cast<unsigned>(count("k", 0, true));
    plan.c = static_cast<std::size_t>(count("c", 1, false));
    plan.blocks_per_system =
        static_cast<std::size_t>(count("blocks_per_system", 0, false));
    plan.systems_per_block =
        static_cast<std::size_t>(count("systems_per_block", 1, false));
    plan.source = PlanSource::calibrated;

    const auto* variant = entry.find("variant");
    const auto parsed = variant && variant->is_string()
                            ? window_variant_from_name(variant->as_string())
                            : std::nullopt;
    if (parsed) plan.variant = *parsed;
    if (!whole || !parsed || *parsed == WindowVariant::auto_select ||
        !plan.fits(std::get<2>(key))) {
      // A non-whole number, an unknown/auto variant, or a plan that cannot
      // solve its own shape: the entry cannot pin a plan.
      rejected_.add();
      continue;
    }
    const std::lock_guard<std::mutex> lk(mu_);
    plans_.insert_or_assign(key, plan);
    loaded_.store(true, std::memory_order_release);
    ++accepted;
  }
  return accepted;
}

void PlanCache::clear() {
  const std::lock_guard<std::mutex> lk(mu_);
  plans_.clear();
  loaded_.store(false, std::memory_order_release);
}

void configure_plan_cache_from_cli(const util::Cli& cli) {
  if (const auto path = cli.get("plan-file")) {
    PlanCache::instance().load_calibration(*path);
  }
}

}  // namespace tridsolve::gpu
