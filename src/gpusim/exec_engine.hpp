#pragma once
// Fast-path execution engine behind gpusim::launch.
//
// Grid blocks of a simulated kernel are independent by construction (the
// functional model has no inter-block communication), so the engine
// executes them on a persistent std::thread pool with per-worker
// WorkerScratch (arena + pooled coalescers/bank trackers). Costs are
// recorded into per-block shards and reduced *in block order*, which
// makes every reported number independent of the worker count and the
// (nondeterministic) block→worker assignment: all double-valued op
// counters are sums of small exactly-representable values, so any
// association of the same per-block sums is bit-identical.
//
// Instrumentation level (InstrumentMode) is the engine default each launch
// reads (--instrument / ScopedInstrumentMode; `sampled` unless set):
//   exact           every block records; the per-launch self-check counts
//                   the launches whose declared cost classes disagree
//                   with the full record (gpusim.sampling.mismatches)
//   sampled         the lowest block of each cost class records, and its
//                   costs stand in for every block of the class, merged
//                   in block order; every other block runs unrecorded.
//                   Costs and timing are bit-identical to exact whenever
//                   the kernel's class table is (block_classes.hpp); a
//                   launch that declares no classes records every block.
//   functional_only no recording at all; the launch refuses to report
//                   timing (LaunchStats.timed == false).
// Blocks that record nothing, with no hazard tracker or fault session
// attached, run the kernels' phase bodies on RawThread (block_context.hpp)
// — the same bodies as recorded blocks, with no-op cost calls. Hazard
// checks and fault plans keep every block observed in every mode.
//
// Thread count comes from --sim-threads / TRIDSOLVE_SIM_THREADS (default
// hardware_concurrency, at most ExecutionEngine::kMaxThreads); the main
// thread always participates, so 1 means fully serial with zero pool
// traffic.
//
// Orthogonally, HazardMode selects shared-memory hazard detection
// (hazard_tracker.hpp): `off` (default), `detect` (count + report via
// gpusim.hazard.* metrics and LaunchStats), or `fatal` (a flagged launch
// throws). Detection is read-only — it never alters outputs, recorded
// costs, or simulated time — and per-worker trackers are merged
// deterministically after the grid drains.
//
// A FaultPlan (fault_injector.hpp) installed on the engine makes every
// launch draw deterministic, seed-keyed faults: value corruption on
// global accesses, shared-arena upsets at phase boundaries, injected
// LaunchFailure throws, and per-block timeout overruns that inflate the
// launch's simulated time. Counts merge as sums (worker-count
// independent) into gpusim.fault.* metrics and LaunchStats.faults. The
// engine also carries the resilient-solve defaults (--deadline-us /
// --max-retries) so benches configure the whole pipeline from one CLI.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "gpusim/block_context.hpp"
#include "gpusim/costs.hpp"
#include "gpusim/device_spec.hpp"

namespace tridsolve::util {
class Cli;
}

namespace tridsolve::gpusim {

enum class InstrumentMode {
  exact,            ///< every block records (ground truth + self-check)
  sampled,          ///< one block per cost class records (the default)
  functional_only,  ///< no recording; timing unavailable
};

[[nodiscard]] const char* instrument_mode_name(InstrumentMode mode) noexcept;

/// Parse "exact" / "sampled" / "functional" / "functional_only".
/// Throws std::invalid_argument on anything else.
[[nodiscard]] InstrumentMode parse_instrument_mode(std::string_view name);

enum class HazardMode {
  off,     ///< no tracking (zero overhead)
  detect,  ///< count hazards; report via metrics + LaunchStats
  fatal,   ///< like detect, but a flagged launch throws std::runtime_error
};

[[nodiscard]] const char* hazard_mode_name(HazardMode mode) noexcept;

/// Parse "off" / "detect" / "fatal" (plus boolean-switch spellings of
/// --check-hazards: "true"/"1"/"yes"/"on" mean detect).
/// Throws std::invalid_argument on anything else.
[[nodiscard]] HazardMode parse_hazard_mode(std::string_view name);

namespace detail {

/// Type-erased block body: `user` is the address of the caller's callable.
using BlockBody = void (*)(void* user, BlockContext& ctx);

struct LaunchRequest {
  const DeviceSpec* dev = nullptr;
  std::size_t grid_blocks = 0;
  int block_threads = 0;
  std::span<const std::uint32_t> block_class;  ///< LaunchConfig::block_class
  InstrumentMode mode = InstrumentMode::exact;
  HazardMode hazards = HazardMode::off;
  BlockBody body = nullptr;
  void* user = nullptr;
  /// Span id of the enclosing launch when tracing (0 = tracing off).
  /// Block 0 parents its per-phase spans under it — one representative
  /// block keeps phase tracing cheap and the span tree readable.
  std::uint64_t span_parent = 0;
};

struct LaunchOutcome {
  KernelCosts costs;                    ///< grid-scaled totals (empty when
                                        ///< functional_only)
  std::size_t instrumented_blocks = 0;  ///< blocks that actually recorded
  HazardCounts hazards;                 ///< merged findings (detect/fatal)
  HazardExample hazard_example;         ///< lowest-block-id finding, if any
  FaultCounts faults;                   ///< injected faults (all zero when
                                        ///< no FaultPlan is active)
  double fault_overrun_us = 0.0;        ///< timeout stall to add to timing
};

/// Execute every block of the grid (parallel, pooled scratch) and reduce
/// costs deterministically. Exceptions thrown by kernel bodies propagate
/// with their original type (first one wins under parallel execution).
[[nodiscard]] LaunchOutcome execute_grid(const LaunchRequest& req);

/// Per-launch metric bookkeeping (cached counter handles; no string
/// hashing per launch). `timed` mirrors LaunchStats::timed.
void note_launch(std::size_t grid_blocks, bool timed, double kernel_us,
                 double overhead_us, const KernelCosts& costs) noexcept;

/// Hazard-metric bookkeeping: bumps gpusim.hazard.{raw,war,waw,oob,
/// divergence,tracked} for one launch that ran with detection enabled.
void note_hazards(const HazardCounts& hazards) noexcept;

/// Fault-metric bookkeeping: bumps gpusim.fault.{bit_flips,
/// shared_corruptions,nan_writes,launch_failures,timeouts} for one
/// launch that ran with a FaultPlan active.
void note_faults(const FaultCounts& faults) noexcept;

}  // namespace detail

/// Process-wide engine configuration + worker pool.
class ExecutionEngine {
 public:
  [[nodiscard]] static ExecutionEngine& instance();

  /// Upper bound on threads(). A launch starts min(threads, grid) - 1
  /// pool workers, so a mistyped count must not reach the OS: set_threads
  /// clamps to it, --sim-threads above it throws and a larger
  /// TRIDSOLVE_SIM_THREADS is ignored.
  static constexpr std::size_t kMaxThreads = 256;

  /// Simulation threads used per launch (>= 1, main thread included).
  [[nodiscard]] std::size_t threads() const noexcept;
  /// 0 restores the default (TRIDSOLVE_SIM_THREADS or hardware_concurrency);
  /// a count above kMaxThreads is clamped to it.
  void set_threads(std::size_t n) noexcept;

  [[nodiscard]] InstrumentMode default_instrument() const noexcept;
  void set_default_instrument(InstrumentMode mode) noexcept;

  [[nodiscard]] HazardMode default_hazards() const noexcept;
  void set_default_hazards(HazardMode mode) noexcept;

  /// Vectorized p-Thomas lane sweeps (on by default): grid-wide in
  /// functional_only solves, block by block for the unobserved blocks of
  /// instrumented launches. --vector off runs the per-block kernel bodies
  /// instead — same outputs, bit-identical, just slower. They are the only
  /// thing the switch controls.
  [[nodiscard]] bool vector_enabled() const noexcept;
  void set_vector_enabled(bool on) noexcept;

  /// True iff a launch issued right now with no per-launch overrides would
  /// run functional_only with no hazard checking, no active fault plan,
  /// and the vector path on — i.e. a kernel may replace its launches with
  /// one grid-wide vectorized sweep (plus empty-bodied launches to keep
  /// the launch accounting identical). Kernel-side conditions (equal
  /// per-array row strides) are the caller's to check; a guarded solve
  /// qualifies, since the sweep carries the guard.
  [[nodiscard]] bool functional_fast_path() const noexcept;

  /// Fault-injection plan applied to every launch (snapshot). A default
  /// (inactive) plan means zero-overhead execution.
  [[nodiscard]] FaultPlan fault_plan() const noexcept;
  /// Install a plan and reset the deterministic launch ordinal to 0, so a
  /// plan's fault sites are reproducible from the moment it is set.
  void set_fault_plan(const FaultPlan& plan) noexcept;

  /// Resilient-solve defaults fed from --deadline-us / --max-retries;
  /// consumed by gpu::engine_resilience_policy(). 0 deadline = unlimited.
  [[nodiscard]] double default_deadline_us() const noexcept;
  void set_default_deadline_us(double us) noexcept;
  [[nodiscard]] int default_max_retries() const noexcept;
  void set_default_max_retries(int n) noexcept;

  ~ExecutionEngine();

 private:
  friend detail::LaunchOutcome detail::execute_grid(
      const detail::LaunchRequest& req);

  ExecutionEngine();
  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;

  struct Impl;
  Impl* impl_;
};

/// RAII override of the engine's thread count (tests, benches).
class ScopedSimThreads {
 public:
  explicit ScopedSimThreads(std::size_t n)
      : prev_(ExecutionEngine::instance().threads()) {
    ExecutionEngine::instance().set_threads(n);
  }
  ~ScopedSimThreads() { ExecutionEngine::instance().set_threads(prev_); }
  ScopedSimThreads(const ScopedSimThreads&) = delete;
  ScopedSimThreads& operator=(const ScopedSimThreads&) = delete;

 private:
  std::size_t prev_;
};

/// RAII override of the default instrumentation mode.
class ScopedInstrumentMode {
 public:
  explicit ScopedInstrumentMode(InstrumentMode mode)
      : prev_(ExecutionEngine::instance().default_instrument()) {
    ExecutionEngine::instance().set_default_instrument(mode);
  }
  ~ScopedInstrumentMode() {
    ExecutionEngine::instance().set_default_instrument(prev_);
  }
  ScopedInstrumentMode(const ScopedInstrumentMode&) = delete;
  ScopedInstrumentMode& operator=(const ScopedInstrumentMode&) = delete;

 private:
  InstrumentMode prev_;
};

/// RAII override of the vectorized-lane fast path (tests, benches).
class ScopedVectorMode {
 public:
  explicit ScopedVectorMode(bool on)
      : prev_(ExecutionEngine::instance().vector_enabled()) {
    ExecutionEngine::instance().set_vector_enabled(on);
  }
  ~ScopedVectorMode() { ExecutionEngine::instance().set_vector_enabled(prev_); }
  ScopedVectorMode(const ScopedVectorMode&) = delete;
  ScopedVectorMode& operator=(const ScopedVectorMode&) = delete;

 private:
  bool prev_;
};

/// RAII override of the default hazard-detection mode.
class ScopedHazardMode {
 public:
  explicit ScopedHazardMode(HazardMode mode)
      : prev_(ExecutionEngine::instance().default_hazards()) {
    ExecutionEngine::instance().set_default_hazards(mode);
  }
  ~ScopedHazardMode() { ExecutionEngine::instance().set_default_hazards(prev_); }
  ScopedHazardMode(const ScopedHazardMode&) = delete;
  ScopedHazardMode& operator=(const ScopedHazardMode&) = delete;

 private:
  HazardMode prev_;
};

/// RAII override of the engine's fault-injection plan. Installing (and
/// restoring) a plan resets the launch ordinal, so the scope sees a
/// reproducible fault sequence starting at launch 0.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan)
      : prev_(ExecutionEngine::instance().fault_plan()) {
    ExecutionEngine::instance().set_fault_plan(plan);
  }
  ~ScopedFaultPlan() { ExecutionEngine::instance().set_fault_plan(prev_); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

 private:
  FaultPlan prev_;
};

/// Apply --sim-threads / --instrument / --check-hazards / --vector plus the fault
/// and resilience flags (--fault-seed / --fault-rate / --fault-kinds /
/// --deadline-us / --max-retries) to the engine when present. Benches
/// call this once after parsing; flags come from util::with_obs_flags.
void configure_engine_from_cli(const util::Cli& cli);

}  // namespace tridsolve::gpusim
