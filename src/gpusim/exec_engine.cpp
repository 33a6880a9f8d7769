#include "gpusim/exec_engine.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/cli.hpp"

namespace tridsolve::gpusim {

const char* instrument_mode_name(InstrumentMode mode) noexcept {
  switch (mode) {
    case InstrumentMode::exact:
      return "exact";
    case InstrumentMode::sampled:
      return "sampled";
    case InstrumentMode::functional_only:
      return "functional_only";
  }
  return "unknown";
}

InstrumentMode parse_instrument_mode(std::string_view name) {
  if (name == "exact") return InstrumentMode::exact;
  if (name == "sampled") return InstrumentMode::sampled;
  if (name == "functional" || name == "functional_only") {
    return InstrumentMode::functional_only;
  }
  throw std::invalid_argument("unknown instrument mode \"" + std::string(name) +
                              "\" (expected exact|sampled|functional_only)");
}

const char* hazard_mode_name(HazardMode mode) noexcept {
  switch (mode) {
    case HazardMode::off:
      return "off";
    case HazardMode::detect:
      return "detect";
    case HazardMode::fatal:
      return "fatal";
  }
  return "unknown";
}

HazardMode parse_hazard_mode(std::string_view name) {
  if (name == "off" || name == "false" || name == "no" || name == "0") {
    return HazardMode::off;
  }
  if (name == "detect" || name == "true" || name == "yes" || name == "on" ||
      name == "1") {
    return HazardMode::detect;
  }
  if (name == "fatal") return HazardMode::fatal;
  throw std::invalid_argument("unknown hazard mode \"" + std::string(name) +
                              "\" (expected off|detect|fatal)");
}

namespace {

/// Which blocks record, and whose recorded shard stands in for each block
/// at reduction. exact: every block records into its own shard. sampled:
/// the lowest block of each cost class records into the class's shard and
/// every other block runs unrecorded; a launch without a class table is
/// one class per block. functional_only: nothing records.
struct RecordPlan {
  static constexpr std::size_t npos = ~static_cast<std::size_t>(0);

  InstrumentMode mode = InstrumentMode::exact;
  std::span<const std::uint32_t> cls;   ///< class of each block (may be empty)
  std::span<const std::size_t> lowest;  ///< lowest block of each class
  std::size_t classes = 0;              ///< classes that own a block
  std::size_t num_slots = 0;            ///< shard count

  /// Validates the launch's class table and finds each class's lowest
  /// block into `lowest_buf` (reused across launches).
  static RecordPlan make(const detail::LaunchRequest& req,
                         std::vector<std::size_t>& lowest_buf) {
    if (!req.block_class.empty() &&
        req.block_class.size() != req.grid_blocks) {
      throw std::invalid_argument(
          "launch: block_class must hold one class id per block");
    }
    RecordPlan p;
    p.mode = req.mode;
    p.cls = req.block_class;
    lowest_buf.clear();
    for (std::size_t b = 0; b < p.cls.size(); ++b) {
      const std::size_t c = p.cls[b];
      if (c >= req.grid_blocks) {
        throw std::invalid_argument("launch: block class id out of range");
      }
      if (c >= lowest_buf.size()) lowest_buf.resize(c + 1, npos);
      if (lowest_buf[c] == npos) {
        lowest_buf[c] = b;
        ++p.classes;
      }
    }
    p.lowest = lowest_buf;
    if (p.cls.empty()) p.classes = req.grid_blocks;
    switch (p.mode) {
      case InstrumentMode::exact:
        p.num_slots = req.grid_blocks;
        break;
      case InstrumentMode::sampled:
        p.num_slots = p.cls.empty() ? req.grid_blocks : lowest_buf.size();
        break;
      case InstrumentMode::functional_only:
        break;
    }
    return p;
  }

  [[nodiscard]] std::size_t class_of(std::size_t b) const noexcept {
    return cls.empty() ? b : cls[b];
  }

  /// Lowest block of block `b`'s class.
  [[nodiscard]] std::size_t lowest_of(std::size_t b) const noexcept {
    return cls.empty() ? b : lowest[cls[b]];
  }

  /// Shard index block `b` records into; npos = execute without recording.
  [[nodiscard]] std::size_t slot_of(std::size_t b) const noexcept {
    switch (mode) {
      case InstrumentMode::exact:
        return b;
      case InstrumentMode::sampled:
        return lowest_of(b) == b ? class_of(b) : npos;
      case InstrumentMode::functional_only:
        return npos;
    }
    return npos;
  }

  /// Shard whose costs stand in for block `b` when reducing the grid.
  [[nodiscard]] std::size_t shard_of(std::size_t b) const noexcept {
    return mode == InstrumentMode::exact ? b : class_of(b);
  }
};

[[nodiscard]] bool costs_equal(const KernelCosts& a,
                               const KernelCosts& b) noexcept {
  return a.ops_f32 == b.ops_f32 && a.ops_f64 == b.ops_f64 &&
         a.transactions == b.transactions &&
         a.bytes_requested == b.bytes_requested && a.loads == b.loads &&
         a.stores == b.stores && a.rounds_total == b.rounds_total &&
         a.warps == b.warps && a.barriers == b.barriers &&
         a.shared_accesses == b.shared_accesses &&
         a.shared_bytes == b.shared_bytes &&
         a.shared_serializations == b.shared_serializations &&
         a.shared_peak_bytes == b.shared_peak_bytes;
}

[[nodiscard]] std::size_t default_sim_threads() noexcept {
  if (const char* env = std::getenv("TRIDSOLVE_SIM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 &&
        static_cast<unsigned long>(v) <= ExecutionEngine::kMaxThreads) {
      return static_cast<std::size_t>(v);
    }
  }
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                 ExecutionEngine::kMaxThreads);
}

}  // namespace

struct ExecutionEngine::Impl {
  // --- configuration (guarded by cfg_mu) ---
  mutable std::mutex cfg_mu;
  std::size_t threads = default_sim_threads();
  InstrumentMode default_mode = InstrumentMode::sampled;
  HazardMode default_hazards = HazardMode::off;
  bool vector_enabled = true;
  FaultPlan fault_plan;
  std::uint64_t fault_launch_counter = 0;  ///< launches since plan install
  double default_deadline_us = 0.0;        ///< 0 = unlimited
  int default_max_retries = 2;

  // --- one launch at a time (nested launches are not a thing: kernels
  // cannot launch kernels in this model) ---
  std::mutex launch_mu;

  // --- pool state (guarded by mu unless noted) ---
  std::mutex mu;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::vector<std::thread> workers;
  std::uint64_t generation = 0;
  std::size_t active = 0;
  bool shutdown = false;

  // Per-participant scratch; index 0 is the main (launching) thread,
  // worker i uses scratch[i + 1]. Only grown between launches.
  std::vector<std::unique_ptr<WorkerScratch>> scratch;

  // Per-participant hazard trackers, parallel to `scratch`; allocated
  // lazily on the first hazard-checked launch, inert otherwise.
  std::vector<std::unique_ptr<HazardTracker>> trackers;
  bool hazards_active = false;  ///< this launch runs with detection on

  // Per-participant fault tallies plus the plan snapshot of the running
  // launch (written under launch_mu before the generation bump).
  std::vector<FaultCounts> fault_counts;
  bool faults_active = false;  ///< this launch runs with a live FaultPlan
  FaultPlan job_fault_plan;
  std::uint64_t job_fault_launch = 0;

  // --- current job (written before the generation bump, read-only while
  // workers run; slots shards are disjoint per block) ---
  const detail::LaunchRequest* job = nullptr;
  const RecordPlan* plan = nullptr;
  std::vector<KernelCosts> slots;  // reused: assign() keeps capacity
  std::vector<std::size_t> class_lowest;  // RecordPlan::lowest storage
  std::size_t participants = 1;
  std::size_t chunk = 1;
  std::atomic<std::size_t> next_block{0};
  std::atomic<bool> abort{false};
  std::mutex err_mu;
  std::exception_ptr first_error;

  Impl() { scratch.push_back(std::make_unique<WorkerScratch>()); }

  void ensure_workers(std::size_t n) {
    while (workers.size() < n) {
      scratch.push_back(std::make_unique<WorkerScratch>());
      const std::size_t idx = workers.size();
      std::uint64_t seen;
      {
        const std::lock_guard<std::mutex> lk(mu);
        seen = generation;
      }
      workers.emplace_back([this, idx, seen] { worker_loop(idx, seen); });
    }
  }

  void worker_loop(std::size_t idx, std::uint64_t seen) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu);
        work_cv.wait(lk, [&] { return shutdown || generation != seen; });
        if (shutdown) return;
        seen = generation;
      }
      run_blocks(idx + 1);
      {
        const std::lock_guard<std::mutex> lk(mu);
        if (--active == 0) done_cv.notify_all();
      }
    }
  }

  /// Grab chunks of blocks until the grid is drained. Exceptions from
  /// kernel bodies are captured (first wins) and abort the launch.
  void run_blocks(std::size_t scratch_idx) noexcept {
    if (scratch_idx >= participants) return;
    try {
      WorkerScratch& ws = *scratch[scratch_idx];
      HazardTracker* hz =
          hazards_active ? trackers[scratch_idx].get() : nullptr;
      const detail::LaunchRequest& req = *job;
      const RecordPlan& pl = *plan;
      for (;;) {
        if (abort.load(std::memory_order_relaxed)) return;
        const std::size_t begin =
            next_block.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= req.grid_blocks) return;
        const std::size_t end = std::min(begin + chunk, req.grid_blocks);
        for (std::size_t b = begin; b < end; ++b) {
          const std::size_t slot = pl.slot_of(b);
          const bool record = slot != RecordPlan::npos;
          std::optional<FaultSession> fs;
          if (faults_active) {
            fs.emplace(job_fault_plan, job_fault_launch, b,
                       fault_counts[scratch_idx]);
          }
          BlockContext ctx(*req.dev, b, req.grid_blocks, req.block_threads,
                           ws, record ? slots[slot] : ws.discard, record, hz,
                           fs ? &*fs : nullptr,
                           b == 0 ? req.span_parent : 0);
          req.body(req.user, ctx);
          if (record) slots[slot].shared_peak_bytes = ws.arena->block_peak();
        }
      }
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
      abort.store(true, std::memory_order_relaxed);
    }
  }
};

ExecutionEngine& ExecutionEngine::instance() {
  static ExecutionEngine engine;
  return engine;
}

ExecutionEngine::ExecutionEngine() : impl_(new Impl) {}

ExecutionEngine::~ExecutionEngine() {
  {
    const std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->shutdown = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

std::size_t ExecutionEngine::threads() const noexcept {
  const std::lock_guard<std::mutex> lk(impl_->cfg_mu);
  return impl_->threads;
}

void ExecutionEngine::set_threads(std::size_t n) noexcept {
  const std::lock_guard<std::mutex> lk(impl_->cfg_mu);
  impl_->threads = n == 0 ? default_sim_threads() : std::min(n, kMaxThreads);
}

InstrumentMode ExecutionEngine::default_instrument() const noexcept {
  const std::lock_guard<std::mutex> lk(impl_->cfg_mu);
  return impl_->default_mode;
}

void ExecutionEngine::set_default_instrument(InstrumentMode mode) noexcept {
  const std::lock_guard<std::mutex> lk(impl_->cfg_mu);
  impl_->default_mode = mode;
}

HazardMode ExecutionEngine::default_hazards() const noexcept {
  const std::lock_guard<std::mutex> lk(impl_->cfg_mu);
  return impl_->default_hazards;
}

void ExecutionEngine::set_default_hazards(HazardMode mode) noexcept {
  const std::lock_guard<std::mutex> lk(impl_->cfg_mu);
  impl_->default_hazards = mode;
}

bool ExecutionEngine::vector_enabled() const noexcept {
  const std::lock_guard<std::mutex> lk(impl_->cfg_mu);
  return impl_->vector_enabled;
}

void ExecutionEngine::set_vector_enabled(bool on) noexcept {
  const std::lock_guard<std::mutex> lk(impl_->cfg_mu);
  impl_->vector_enabled = on;
}

bool ExecutionEngine::functional_fast_path() const noexcept {
  const std::lock_guard<std::mutex> lk(impl_->cfg_mu);
  return impl_->default_mode == InstrumentMode::functional_only &&
         impl_->default_hazards == HazardMode::off &&
         !impl_->fault_plan.active() && impl_->vector_enabled;
}

FaultPlan ExecutionEngine::fault_plan() const noexcept {
  const std::lock_guard<std::mutex> lk(impl_->cfg_mu);
  return impl_->fault_plan;
}

void ExecutionEngine::set_fault_plan(const FaultPlan& plan) noexcept {
  const std::lock_guard<std::mutex> lk(impl_->cfg_mu);
  impl_->fault_plan = plan;
  impl_->fault_launch_counter = 0;
}

double ExecutionEngine::default_deadline_us() const noexcept {
  const std::lock_guard<std::mutex> lk(impl_->cfg_mu);
  return impl_->default_deadline_us;
}

void ExecutionEngine::set_default_deadline_us(double us) noexcept {
  const std::lock_guard<std::mutex> lk(impl_->cfg_mu);
  impl_->default_deadline_us = us >= 0.0 ? us : 0.0;
}

int ExecutionEngine::default_max_retries() const noexcept {
  const std::lock_guard<std::mutex> lk(impl_->cfg_mu);
  return impl_->default_max_retries;
}

void ExecutionEngine::set_default_max_retries(int n) noexcept {
  const std::lock_guard<std::mutex> lk(impl_->cfg_mu);
  impl_->default_max_retries = n >= 0 ? n : 0;
}

void configure_engine_from_cli(const util::Cli& cli) {
  ExecutionEngine& engine = ExecutionEngine::instance();
  if (cli.get("sim-threads")) {
    const auto n = cli.get_int("sim-threads", 0);
    if (n < 0 || n > static_cast<std::int64_t>(ExecutionEngine::kMaxThreads)) {
      throw std::invalid_argument("--sim-threads must be in [0, " +
                                  std::to_string(ExecutionEngine::kMaxThreads) +
                                  "] (0 = default)");
    }
    engine.set_threads(static_cast<std::size_t>(n));
  }
  if (const auto mode = cli.get("instrument")) {
    engine.set_default_instrument(parse_instrument_mode(*mode));
  }
  if (const auto mode = cli.get("check-hazards")) {
    engine.set_default_hazards(parse_hazard_mode(*mode));
  }
  if (cli.has("vector")) engine.set_vector_enabled(cli.get_bool("vector", true));
  if (cli.get("fault-rate") || cli.get("fault-seed") || cli.get("fault-kinds")) {
    FaultPlan plan = engine.fault_plan();
    plan.seed = static_cast<std::uint64_t>(
        cli.get_int("fault-seed", static_cast<std::int64_t>(plan.seed)));
    plan.rate = cli.get_double("fault-rate", plan.rate);
    if (!(plan.rate >= 0.0) || plan.rate > 1.0) {
      throw std::invalid_argument("--fault-rate must be in [0, 1]");
    }
    if (const auto kinds = cli.get("fault-kinds")) {
      plan.kinds = parse_fault_kinds(*kinds);
    }
    engine.set_fault_plan(plan);
  }
  if (cli.get("deadline-us")) {
    const double us = cli.get_double("deadline-us", 0.0);
    if (!(us >= 0.0)) {
      throw std::invalid_argument("--deadline-us must be >= 0 (0 = unlimited)");
    }
    engine.set_default_deadline_us(us);
  }
  if (cli.get("max-retries")) {
    const auto n = cli.get_int("max-retries", 0);
    if (n < 0) throw std::invalid_argument("--max-retries must be >= 0");
    engine.set_default_max_retries(static_cast<int>(n));
  }
}

namespace detail {

LaunchOutcome execute_grid(const LaunchRequest& req) {
  ExecutionEngine& engine = ExecutionEngine::instance();
  ExecutionEngine::Impl& im = *engine.impl_;
  const std::lock_guard<std::mutex> launch_lock(im.launch_mu);

  const RecordPlan plan = RecordPlan::make(req, im.class_lowest);
  im.slots.assign(plan.num_slots, KernelCosts{});
  im.job = &req;
  im.plan = &plan;
  im.participants =
      std::min(engine.threads(), std::max<std::size_t>(req.grid_blocks, 1));
  im.hazards_active = req.hazards != HazardMode::off;
  if (im.hazards_active) {
    if (im.trackers.size() < im.participants) {
      im.trackers.resize(im.participants);
    }
    for (std::size_t i = 0; i < im.participants; ++i) {
      if (!im.trackers[i]) im.trackers[i] = std::make_unique<HazardTracker>();
      im.trackers[i]->begin_launch();
    }
  }
  // Snapshot the fault plan and claim this launch's deterministic ordinal
  // (launches are serialized by launch_mu, so the ordinal sequence is
  // independent of worker count). An injected launch failure aborts here,
  // before any block runs — the next launch draws a fresh ordinal.
  {
    const std::lock_guard<std::mutex> cfg_lk(im.cfg_mu);
    im.job_fault_plan = im.fault_plan;
    im.faults_active = im.job_fault_plan.active();
    im.job_fault_launch = im.faults_active ? im.fault_launch_counter++ : 0;
  }
  if (im.faults_active) {
    if (im.job_fault_plan.launch_should_fail(im.job_fault_launch)) {
      FaultCounts failed;
      failed.launch_failures = 1;
      note_faults(failed);
      im.faults_active = false;
      throw LaunchFailure("gpusim: injected launch failure (launch " +
                          std::to_string(im.job_fault_launch) + ", seed " +
                          std::to_string(im.job_fault_plan.seed) + ")");
    }
    im.fault_counts.assign(im.participants, FaultCounts{});
  }
  im.chunk = std::max<std::size_t>(
      1, req.grid_blocks / (std::max<std::size_t>(im.participants, 1) * 8));
  im.next_block.store(0, std::memory_order_relaxed);
  im.abort.store(false, std::memory_order_relaxed);
  im.first_error = nullptr;

  if (im.participants <= 1) {
    im.run_blocks(0);
  } else {
    im.ensure_workers(im.participants - 1);
    {
      const std::lock_guard<std::mutex> lk(im.mu);
      im.active = im.workers.size();
      ++im.generation;
    }
    im.work_cv.notify_all();
    im.run_blocks(0);
    std::unique_lock<std::mutex> lk(im.mu);
    im.done_cv.wait(lk, [&] { return im.active == 0; });
  }
  im.job = nullptr;
  im.plan = nullptr;
  // Per-launch LanePool bookkeeping: grow every participant's pool to the
  // launch's largest per-block demand (a worker that ran no block, or a
  // spilling one, is warm for the next launch however blocks get
  // scheduled), then sum growth / warm-serve tallies into
  // gpusim.scratch.{acquires,reuses}.
  {
    std::size_t peak = 0;
    for (std::size_t i = 0; i < im.participants; ++i) {
      peak = std::max(peak, im.scratch[i]->lanes.block_peak());
    }
    std::size_t acquires = 0;
    std::size_t reuses = 0;
    for (std::size_t i = 0; i < im.participants; ++i) {
      im.scratch[i]->lanes.reserve(peak);
      im.scratch[i]->lanes.drain(acquires, reuses);
    }
    note_scratch(acquires, reuses);
  }
  if (im.first_error) std::rethrow_exception(im.first_error);

  LaunchOutcome out;
  if (im.faults_active) {
    // Deterministic merge: per-worker tallies are sums of per-block hits.
    for (std::size_t i = 0; i < im.participants; ++i) {
      out.faults.merge(im.fault_counts[i]);
    }
    if (out.faults.timeouts > 0) {
      out.fault_overrun_us =
          kFaultTimeoutOverrunUs * static_cast<double>(out.faults.timeouts);
    }
    note_faults(out.faults);
  }
  if (im.hazards_active) {
    // Deterministic merge: counts are sums (order-independent), the
    // example is the finding from the lowest block id across workers.
    for (std::size_t i = 0; i < im.participants; ++i) {
      const HazardTracker& t = *im.trackers[i];
      out.hazards.merge(t.counts());
      const HazardExample& e = t.example();
      if (e.valid &&
          (!out.hazard_example.valid || e.block < out.hazard_example.block)) {
        out.hazard_example = e;
      }
    }
    note_hazards(out.hazards);
    if (req.hazards == HazardMode::fatal && out.hazards.any()) {
      throw std::runtime_error(
          "gpusim: shared-memory hazard (fatal mode): " +
          out.hazard_example.describe() + " [raw=" +
          std::to_string(out.hazards.raw) + " war=" +
          std::to_string(out.hazards.war) + " waw=" +
          std::to_string(out.hazards.waw) + " oob=" +
          std::to_string(out.hazards.oob) + " divergence=" +
          std::to_string(out.hazards.divergence) + "]");
    }
  }
  if (req.mode == InstrumentMode::functional_only) return out;

  // Deterministic reduction: merge per-block shards in block order. All
  // floating-point shard entries are sums of exactly-representable small
  // values, so the result is independent of worker count and identical to
  // the historical serial accumulation; in sampled mode each block merges
  // its class's shard, which is the exact record whenever the class table
  // is right.
  for (std::size_t b = 0; b < req.grid_blocks; ++b) {
    out.costs.merge(im.slots[plan.shard_of(b)]);
  }
  out.instrumented_blocks =
      req.mode == InstrumentMode::exact ? req.grid_blocks : plan.classes;

  // Exact mode verifies the launch's class table: with every block's
  // shard on hand, compute what `sampled` would have reported and check
  // that it matches the full record bit for bit.
  if (req.mode == InstrumentMode::exact && !req.block_class.empty()) {
    static auto checks = obs::counter_handle("gpusim.sampling.checks");
    static auto mismatches = obs::counter_handle("gpusim.sampling.mismatches");
    KernelCosts scaled;
    for (std::size_t b = 0; b < req.grid_blocks; ++b) {
      scaled.merge(im.slots[plan.lowest_of(b)]);
    }
    checks.add();
    if (!costs_equal(scaled, out.costs)) mismatches.add();
  }
  return out;
}

void note_launch(std::size_t grid_blocks, bool timed, double kernel_us,
                 double overhead_us, const KernelCosts& costs) noexcept {
  static auto launches = obs::counter_handle("gpusim.launches");
  static auto blocks = obs::counter_handle("gpusim.blocks");
  static auto kernel = obs::counter_handle("gpusim.kernel_us");
  static auto overhead = obs::counter_handle("gpusim.overhead_us");
  static auto transactions = obs::counter_handle("gpusim.transactions");
  static auto bytes = obs::counter_handle("gpusim.bytes_requested");
  static auto barriers = obs::counter_handle("gpusim.barriers");
  static auto kernel_hist = obs::histogram_handle("gpusim.launch.time_us");
  launches.add();
  blocks.add(static_cast<double>(grid_blocks));
  if (timed) {
    kernel_hist.record(kernel_us);
    kernel.add(kernel_us);
    overhead.add(overhead_us);
    transactions.add(static_cast<double>(costs.transactions));
    bytes.add(static_cast<double>(costs.bytes_requested));
    barriers.add(static_cast<double>(costs.barriers));
  }
}

void note_faults(const FaultCounts& faults) noexcept {
  static auto bit_flips = obs::counter_handle("gpusim.fault.bit_flips");
  static auto shared = obs::counter_handle("gpusim.fault.shared_corruptions");
  static auto nans = obs::counter_handle("gpusim.fault.nan_writes");
  static auto launches = obs::counter_handle("gpusim.fault.launch_failures");
  static auto timeouts = obs::counter_handle("gpusim.fault.timeouts");
  bit_flips.add(static_cast<double>(faults.bit_flips));
  shared.add(static_cast<double>(faults.shared_corruptions));
  nans.add(static_cast<double>(faults.nan_writes));
  launches.add(static_cast<double>(faults.launch_failures));
  timeouts.add(static_cast<double>(faults.timeouts));
}

void note_hazards(const HazardCounts& hazards) noexcept {
  static auto raw = obs::counter_handle("gpusim.hazard.raw");
  static auto war = obs::counter_handle("gpusim.hazard.war");
  static auto waw = obs::counter_handle("gpusim.hazard.waw");
  static auto oob = obs::counter_handle("gpusim.hazard.oob");
  static auto divergence = obs::counter_handle("gpusim.hazard.divergence");
  static auto tracked = obs::counter_handle("gpusim.hazard.tracked");
  raw.add(static_cast<double>(hazards.raw));
  war.add(static_cast<double>(hazards.war));
  waw.add(static_cast<double>(hazards.waw));
  oob.add(static_cast<double>(hazards.oob));
  divergence.add(static_cast<double>(hazards.divergence));
  tracked.add(static_cast<double>(hazards.tracked));
}

}  // namespace detail

}  // namespace tridsolve::gpusim
