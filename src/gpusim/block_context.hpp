#pragma once
// Functional execution context for one simulated thread block.
//
// A kernel is a callable `void(BlockContext&)`. Inside it, computation is
// organized into *phases*: `ctx.phase([&](ThreadCtx& t) { ... })` runs the
// lambda once per thread id, with an implicit block-wide barrier at the
// end — the direct analogue of the code between two __syncthreads() in a
// CUDA kernel. Within a phase each thread:
//   * reads/writes global memory through t.load / t.store (functionally
//     real, and recorded for per-warp coalescing analysis),
//   * charges arithmetic through t.flops<T>/t.divs<T>,
//   * marks serialized-dependence boundaries with t.end_round() (e.g. one
//     iteration of a forward sweep = one exposed memory round).
//
// Threads of a block run sequentially in tid order; algorithms must be
// race-free between barriers exactly as on real hardware, and the
// round-indexed coalescer reconstructs the lockstep warp view.
//
// Blocks draw their arena and instrumentation state from a WorkerScratch
// owned by the executing worker thread, so back-to-back blocks (and
// launches) reuse warm buffers instead of allocating. A block constructed
// with record=false executes functionally but skips all cost recording —
// every block but each cost class's lowest in sampled mode, and every
// block in functional_only. When
// nothing observes a block (see observed()), a kernel may run the same
// phase bodies on RawThread, a plain-memory stand-in for ThreadCtx, in a
// loop order of its own choosing instead of through phase(). When only
// the cost recorder observes it (see watched()), a phase that touches no
// global memory may run as one plain loop closed by block_phase().
//
// Contracts:
//  * Thread-safety: a BlockContext (and the ThreadCtx handles it hands
//    out) lives on one engine worker thread; nothing here is shared
//    between concurrent blocks except read-only launch inputs.
//  * Bit-exactness: phase() and phase_rounds() record identical costs for
//    the same accesses, and neither cost recording, hazard tracking
//    (`hazards != nullptr`) nor record=false changes any functional
//    result — only what is observed about it. Fault injection
//    (`faults != nullptr`) is the sole deliberate exception: it corrupts
//    functional values, but never recorded costs.
//  * Units: load/store sizes are bytes; flops are op-equivalents at the
//    value type's precision; rounds are serialized-memory-round counts.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "gpusim/bank_tracker.hpp"
#include "gpusim/coalescer.hpp"
#include "gpusim/costs.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/fault_injector.hpp"
#include "gpusim/hazard_tracker.hpp"
#include "gpusim/shared_memory.hpp"
#include "gpusim/vector_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace tridsolve::gpusim {

class BlockContext;

/// Reusable per-worker execution state: one shared-memory arena plus
/// pooled per-warp coalescers/bank trackers, all kept warm across blocks
/// and launches. prepare() rebuilds only when device parameters change.
struct WorkerScratch {
  std::unique_ptr<SharedArena> arena;
  std::vector<WarpCoalescer> coalescers;
  std::vector<BankTracker> banks;
  /// Per-block lane carries (c', d', x_next, PCR window state) — bump
  /// pool, warm across blocks and launches so steady-state functional
  /// blocks perform zero heap allocations (gpusim.scratch.* metrics).
  LanePool lanes;
  /// Cost sink trackers stay attached to between blocks; never reported.
  KernelCosts discard;

  void prepare(const DeviceSpec& dev) {
    if (arena && arena_capacity_ == dev.shared_mem_per_block &&
        tx_bytes_ == static_cast<std::size_t>(dev.transaction_bytes) &&
        num_banks_ == dev.shared_banks &&
        bank_width_ == dev.shared_bank_width) {
      return;
    }
    arena = std::make_unique<SharedArena>(dev.shared_mem_per_block);
    coalescers.clear();
    banks.clear();
    arena_capacity_ = dev.shared_mem_per_block;
    tx_bytes_ = dev.transaction_bytes;
    num_banks_ = dev.shared_banks;
    bank_width_ = dev.shared_bank_width;
  }

  /// Grow the per-warp tracker pools to at least `num_warps` entries.
  void ensure_warps(const DeviceSpec& dev, std::size_t num_warps) {
    if (coalescers.size() >= num_warps) return;
    coalescers.reserve(num_warps);
    banks.reserve(num_warps);
    while (coalescers.size() < num_warps) {
      coalescers.emplace_back(dev.transaction_bytes, &discard);
      banks.emplace_back(dev.shared_banks, dev.shared_bank_width, &discard);
    }
  }

 private:
  std::size_t arena_capacity_ = 0;
  std::size_t tx_bytes_ = 0;
  int num_banks_ = 0;
  int bank_width_ = 0;
};

/// A phase's integer cost tallies: op-equivalents, divisions, global loads,
/// stores and requested bytes. Every charged count is an integer, so the
/// order they add up in does not matter; BlockContext weights the
/// divisions and adds the totals to the cost shard once per phase.
struct PhaseTally {
  std::uint64_t ops[2] = {0, 0};   ///< op-equivalents, [fp32, fp64]
  std::uint64_t divs[2] = {0, 0};  ///< divisions, [fp32, fp64]
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t bytes = 0;         ///< global bytes requested

  PhaseTally& operator+=(const PhaseTally& o) noexcept {
    for (int p = 0; p < 2; ++p) {
      ops[p] += o.ops[p];
      divs[p] += o.divs[p];
    }
    loads += o.loads;
    stores += o.stores;
    bytes += o.bytes;
    return *this;
  }
};

/// Per-thread handle passed to phase lambdas. The block makes one handle
/// per round of a phase and moves it from thread to thread, warp by warp
/// in tid order; it keeps the phase's costs in integer tallies
/// (PhaseTally) and numbers each thread's global accesses per round — the
/// number is the access's coalescer site (coalescer.hpp).
class ThreadCtx {
 public:
  ThreadCtx(const ThreadCtx&) = delete;
  ThreadCtx& operator=(const ThreadCtx&) = delete;

  [[nodiscard]] int tid() const noexcept { return tid_; }

  /// Functional global load, recorded for coalescing/bandwidth accounting.
  template <typename T>
  [[nodiscard, gnu::always_inline]] T load(const T* p) {
    global_access(p, sizeof(T), /*is_write=*/false);
    return faults_ != nullptr ? fault_value(faults_, *p, /*is_store=*/false)
                              : *p;
  }

  /// Functional global store, recorded likewise.
  template <typename T>
  [[gnu::always_inline]] void store(T* p, T v) {
    global_access(p, sizeof(T), /*is_write=*/true);
    *p = faults_ != nullptr ? fault_value(faults_, v, /*is_store=*/true) : v;
  }

  /// Charge n arithmetic op-equivalents at T's precision.
  template <typename T>
  void flops(std::uint32_t n) noexcept {
    tally_.ops[sizeof(T) == 8] += n;
  }

  /// Charge n divisions (weighted by the device's div_op_cost when the
  /// phase ends).
  template <typename T>
  void divs(std::uint32_t n) noexcept {
    tally_.divs[sizeof(T) == 8] += n;
  }

  /// Instrumented *shared-memory* load/store: functionally identical to a
  /// plain access, but recorded for bank-conflict accounting. Optional —
  /// only kernels studying shared access patterns route through these.
  template <typename T>
  [[nodiscard]] T sload(const T* p) {
    shared_access(p, sizeof(T), /*is_write=*/false);
    return *p;
  }
  template <typename T>
  void sstore(T* p, T v) {
    shared_access(p, sizeof(T), /*is_write=*/true);
    *p = v;
  }

  /// Hazard-only annotations for kernels that touch simulated shared
  /// memory through raw references (spans from ctx.shared<T>()): they
  /// record nothing into KernelCosts and are no-ops unless hazard
  /// checking is enabled on this block. Annotate each raw shared read and
  /// write so the detector sees the kernel's true barrier structure.
  template <typename T>
  void note_sread(const T& ref) {
    note_shared(&ref, sizeof(T), /*is_write=*/false);
  }
  template <typename T>
  void note_swrite(const T& ref) {
    note_shared(&ref, sizeof(T), /*is_write=*/true);
  }

  /// Intra-phase barrier marker — the analogue of a __syncthreads()
  /// *inside* the code between two phase boundaries. Purely observational
  /// (no cost, no functional effect): the hazard detector uses it to
  /// order accesses within a phase and to flag barrier divergence when
  /// the threads of a block disagree on how many they executed.
  void sync() noexcept {
    if (hazards_ != nullptr) hazard_sync(hazards_, tid_);
  }

  /// Close the current dependent-load round: subsequent loads belong to a
  /// new serialized memory round on this thread's critical path.
  void end_round() noexcept {
    ++round_;
    site_ = 0;
  }

 private:
  friend class BlockContext;

  ThreadCtx(HazardTracker* hazards, FaultSession* faults) noexcept
      : hazards_(hazards), faults_(faults) {}

  /// Point the handle at one warp's trackers (null when not recording).
  void enter_warp(WarpCoalescer* coalescer, BankTracker* banks) noexcept {
    coalescer_ = coalescer;
    banks_ = banks;
  }

  /// Become thread `tid` at round `round`.
  void begin(int tid, std::size_t round) noexcept {
    tid_ = tid;
    round_ = round;
    site_ = 0;
    shared_ordinal_ = 0;
  }

  [[gnu::always_inline]] void global_access(const void* p, std::size_t size,
                                            bool is_write) {
    if (coalescer_ != nullptr) {
      coalescer_->record(p, size, is_write, round_, site_);
    }
    ++site_;
    ++(is_write ? tally_.stores : tally_.loads);
    tally_.bytes += size;
    if (hazards_ != nullptr) {
      hazard(hazards_, p, size, tid_, is_write, /*expect_shared=*/false);
    }
  }

  void shared_access(const void* p, std::size_t size, bool is_write) {
    if (banks_ != nullptr) banks_->record(shared_ordinal_, p, size);
    ++shared_ordinal_;
    note_shared(p, size, is_write);
  }

  void note_shared(const void* p, std::size_t size, bool is_write) {
    if (hazards_ != nullptr) {
      hazard(hazards_, p, size, tid_, is_write, /*expect_shared=*/true);
    }
  }

  // Observer calls stay out of line and never see the handle's address,
  // so the handle can live in registers in the block's thread loop.
  [[gnu::noinline]] static void hazard(HazardTracker* h, const void* p,
                                       std::size_t size, int tid,
                                       bool is_write, bool expect_shared) {
    h->access(p, size, tid, is_write, expect_shared);
  }

  [[gnu::noinline]] static void hazard_sync(HazardTracker* h,
                                            int tid) noexcept {
    h->sync(tid);
  }

  template <typename T>
  [[gnu::noinline]] static T fault_value(FaultSession* f, T v,
                                         bool is_store) noexcept {
    return f->filter_data(v, is_store);
  }

  HazardTracker* hazards_;
  FaultSession* faults_;
  WarpCoalescer* coalescer_ = nullptr;
  BankTracker* banks_ = nullptr;
  int tid_ = 0;
  std::size_t round_ = 0;
  std::size_t site_ = 0;            ///< global access ordinal in the round
  std::size_t shared_ordinal_ = 0;  ///< shared access ordinal since begin()
  PhaseTally tally_;
};

/// Per-thread handle for blocks nothing observes: the ThreadCtx calls a
/// phase body is written against, on plain memory, with every cost and
/// hazard call a no-op. One body instantiated over either handle computes
/// bit-identical values; only what is recorded about it differs.
class RawThread {
 public:
  explicit RawThread(int tid = 0) noexcept : tid_(tid) {}

  [[nodiscard]] int tid() const noexcept { return tid_; }
  template <typename T>
  [[nodiscard]] T load(const T* p) const noexcept {
    return *p;
  }
  template <typename T>
  void store(T* p, T v) const noexcept {
    *p = v;
  }
  template <typename T>
  void flops(std::uint32_t) const noexcept {}
  template <typename T>
  void divs(std::uint32_t) const noexcept {}
  template <typename T>
  void note_sread(const T&) const noexcept {}
  template <typename T>
  void note_swrite(const T&) const noexcept {}

 private:
  int tid_;
};

/// One simulated thread block.
class BlockContext {
 public:
  BlockContext(const DeviceSpec& dev, std::size_t block_id,
               std::size_t grid_blocks, int block_threads,
               WorkerScratch& scratch, KernelCosts& costs, bool record = true,
               HazardTracker* hazards = nullptr, FaultSession* faults = nullptr,
               std::uint64_t span_parent = 0)
      : dev_(dev),
        block_id_(block_id),
        grid_blocks_(grid_blocks),
        block_threads_(block_threads),
        scratch_(scratch),
        costs_(costs),
        record_(record),
        hazards_(hazards),
        faults_(faults),
        span_parent_(span_parent) {
    assert(block_threads_ > 0);
    scratch_.prepare(dev_);
    scratch_.arena->reset();
    scratch_.lanes.begin_block();
    if (hazards_ != nullptr) {
      hazards_->begin_block(scratch_.arena.get(), block_id_, block_threads_);
    }
    num_warps_ = (static_cast<std::size_t>(block_threads_) + dev_.warp_size - 1) /
                 dev_.warp_size;
    if (record_) {
      scratch_.ensure_warps(dev_, num_warps_);
      for (std::size_t w = 0; w < num_warps_; ++w) {
        scratch_.coalescers[w].attach(&costs_);
        scratch_.banks[w].attach(&costs_);
      }
    }
  }

  [[nodiscard]] std::size_t block_id() const noexcept { return block_id_; }
  [[nodiscard]] std::size_t grid_blocks() const noexcept { return grid_blocks_; }
  [[nodiscard]] int block_threads() const noexcept { return block_threads_; }
  /// True when this block records costs, a hazard detector watches it or
  /// a fault injector is attached. Observed blocks must run their global
  /// accesses through phase()/phase_rounds() and ThreadCtx, so the
  /// coalescer, the detector and the injector see every access in the
  /// instrumented order (fault-site ordinals included); watched blocks
  /// their shared-memory phases too. Any other block may run the same
  /// bodies on RawThread.
  [[nodiscard]] bool observed() const noexcept {
    return record_ || watched();
  }
  /// True when a hazard detector or a fault injector is attached: the
  /// observers that need every shared access in barrier order. A block
  /// that only records costs is observed but not watched, and may close
  /// its global-memory-free phases with block_phase().
  [[nodiscard]] bool watched() const noexcept {
    return hazards_ != nullptr || faults_ != nullptr;
  }

  /// Allocate shared memory for this block (throws if over capacity).
  template <typename T>
  [[nodiscard]] std::span<T> shared(std::size_t n) {
    return {scratch_.arena->allocate<T>(n), n};
  }

  /// Per-block lane carries from the worker's warm LanePool: host-side
  /// bookkeeping storage (simulated registers), value-initialized, valid
  /// until the block ends. Never counts against simulated shared memory.
  template <typename T>
  [[nodiscard]] std::span<T> lane_buffer(std::size_t n) {
    return scratch_.lanes.take<T>(n);
  }

  /// Run one barrier-delimited phase: fn(ThreadCtx&) for every tid.
  template <typename F>
  void phase(F&& fn) {
    const double span_t0 = phase_span_begin();
    const PhaseTally tally = run_threads(0, fn);
    phase_span_end("phase", span_t0, 1);
    end_phase(tally);
  }

  /// Run one barrier-delimited phase in *lockstep* (round-major) order:
  /// fn(ThreadCtx&, r) for every tid at round 0, then every tid at round
  /// 1, and so on — how the warp actually advances on hardware. The
  /// recorded costs are identical to the equivalent thread-major phase()
  /// (the coalescer and op counters are order-independent within a
  /// round), but independent per-thread dependence chains — the divide of
  /// a forward sweep — pipeline across lanes, and accesses walk row-major
  /// (contiguous in an interleaved layout). Per-thread carried state must
  /// live in caller-managed lane arrays; shared-memory ordinal tracking
  /// (sload/sstore grouping) restarts each round, so kernels that study
  /// bank conflicts should keep using phase().
  template <typename F>
  void phase_rounds(std::size_t rounds, F&& fn) {
    const double span_t0 = phase_span_begin();
    PhaseTally tally;
    for (std::size_t r = 0; r < rounds; ++r) {
      tally += run_threads(r, [&](ThreadCtx& t) { fn(t, r); });
    }
    phase_span_end("phase_rounds", span_t0, rounds);
    end_phase(tally);
  }

  /// Run one barrier-delimited phase as a single block-wide loop: fn()
  /// once, then close the phase as phase() does, with `tally` standing in
  /// for what the per-thread body would have charged (one traced span, and
  /// on a recording block the tally plus one barrier). Only for phases
  /// that touch no global memory and route no shared access through
  /// sload/sstore, so the coalescer and bank tracker have nothing to see.
  /// A watched block must walk every phase per thread and throws
  /// std::logic_error here.
  template <typename F>
  void block_phase(const PhaseTally& tally, F&& fn) {
    if (watched()) {
      throw std::logic_error(
          "BlockContext::block_phase: a watched block runs per-thread phases");
    }
    const double span_t0 = phase_span_begin();
    fn();
    phase_span_end("phase", span_t0, 1);
    end_phase(tally);
  }

  KernelCosts& costs() noexcept { return costs_; }

 private:
  /// Phase tracing (active only for the block carrying a span parent —
  /// block 0 of a traced launch). Wall-clock only: phases have no
  /// individual simulated time (the timing model prices whole launches),
  /// so sim_t0 == sim_t1 == the launch's sim cursor. Purely
  /// observational: no cost recording, no functional effect.
  [[nodiscard]] double phase_span_begin() const noexcept {
    if (span_parent_ == 0) return 0.0;
    return obs::SpanTracer::instance().now_wall_us();
  }

  void phase_span_end(const char* kind, double wall_t0,
                      std::size_t rounds) noexcept {
    if (span_parent_ == 0) return;
    obs::SpanTracer& tracer = obs::SpanTracer::instance();
    obs::Span s;
    s.id = tracer.reserve_id();
    const std::size_t index = phase_index_++;
    if (s.id == 0) return;
    try {
      s.name = "phase" + std::to_string(index);
      s.parent = span_parent_;
      s.thread_ordinal = tracer.thread_ordinal();
      s.wall_t0_us = wall_t0;
      s.wall_t1_us = tracer.now_wall_us();
      s.sim_t0_us = s.sim_t1_us = tracer.sim_now();
      s.attrs.emplace_back("block", obs::JsonValue(block_id_));
      s.attrs.emplace_back("kind", obs::JsonValue(kind));
      s.attrs.emplace_back("rounds", obs::JsonValue(rounds));
      const double wall_us = s.wall_t1_us - s.wall_t0_us;
      tracer.emit(std::move(s));
      obs::observe("gpusim.block_phase.wall_us", wall_us);
    } catch (...) {
    }
  }

  /// Run fn(t) for every thread at round `round`, warp by warp in tid
  /// order, on one handle pointed at each warp's trackers; returns the
  /// handle's tallies. Flattened: the phase body and ThreadCtx's
  /// recording fast path inline into this loop, so the handle stays in
  /// registers; observer calls and coalescer misses stay out of line.
  template <typename F>
  [[gnu::flatten]] PhaseTally run_threads(std::size_t round, F&& fn) {
    ThreadCtx t(hazards_, faults_);
    const int warp = dev_.warp_size;
    int tid = 0;
    for (std::size_t w = 0; w < num_warps_; ++w) {
      if (record_) {
        t.enter_warp(&scratch_.coalescers[w], &scratch_.banks[w]);
      }
      const int end = std::min(tid + warp, block_threads_);
      for (; tid < end; ++tid) {
        t.begin(tid, round);
        fn(t);
      }
    }
    return t.tally_;
  }

  /// The phase's closing barrier: flush every warp's trackers and the
  /// phase's tallies into the cost shard, then close the observers'
  /// barrier interval.
  void end_phase(const PhaseTally& tally) {
    if (record_) {
      for (std::size_t w = 0; w < num_warps_; ++w) {
        scratch_.coalescers[w].flush();
        scratch_.banks[w].flush();
      }
      costs_.ops_f32 += static_cast<double>(tally.ops[0]) +
                        static_cast<double>(tally.divs[0]) * dev_.div_op_cost;
      costs_.ops_f64 += static_cast<double>(tally.ops[1]) +
                        static_cast<double>(tally.divs[1]) * dev_.div_op_cost;
      costs_.loads += tally.loads;
      costs_.stores += tally.stores;
      costs_.bytes_requested += tally.bytes;
      ++costs_.barriers;
    }
    if (hazards_ != nullptr) hazards_->end_phase();
    if (faults_ != nullptr) faults_->end_phase(*scratch_.arena);
  }

  const DeviceSpec& dev_;
  std::size_t block_id_;
  std::size_t grid_blocks_;
  int block_threads_;
  WorkerScratch& scratch_;
  KernelCosts& costs_;
  bool record_;
  HazardTracker* hazards_ = nullptr;
  FaultSession* faults_ = nullptr;
  std::uint64_t span_parent_ = 0;
  std::size_t phase_index_ = 0;
  std::size_t num_warps_ = 0;
};

}  // namespace tridsolve::gpusim
