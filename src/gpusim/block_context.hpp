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
// loop order of its own choosing instead of through phase().
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

#include <cassert>
#include <cstddef>
#include <memory>
#include <span>
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

/// Per-thread handle passed to phase lambdas.
class ThreadCtx {
 public:
  ThreadCtx(BlockContext* block, int tid, std::size_t round = 0) noexcept
      : block_(block), tid_(tid), round_(round) {}

  [[nodiscard]] int tid() const noexcept { return tid_; }

  /// Functional global load, recorded for coalescing/bandwidth accounting.
  template <typename T>
  [[nodiscard]] T load(const T* p);

  /// Functional global store, recorded likewise.
  template <typename T>
  void store(T* p, T v);

  /// Charge n arithmetic op-equivalents at T's precision.
  template <typename T>
  void flops(double n);

  /// Charge n divisions (weighted by the device's div_op_cost).
  template <typename T>
  void divs(double n);

  /// Instrumented *shared-memory* load/store: functionally identical to a
  /// plain access, but recorded for bank-conflict accounting. Optional —
  /// only kernels studying shared access patterns route through these.
  template <typename T>
  [[nodiscard]] T sload(const T* p);
  template <typename T>
  void sstore(T* p, T v);

  /// Hazard-only annotations for kernels that touch simulated shared
  /// memory through raw references (spans from ctx.shared<T>()): they
  /// record nothing into KernelCosts and are no-ops unless hazard
  /// checking is enabled on this block. Annotate each raw shared read and
  /// write so the detector sees the kernel's true barrier structure.
  template <typename T>
  void note_sread(const T& ref);
  template <typename T>
  void note_swrite(const T& ref);

  /// Intra-phase barrier marker — the analogue of a __syncthreads()
  /// *inside* the code between two phase boundaries. Purely observational
  /// (no cost, no functional effect): the hazard detector uses it to
  /// order accesses within a phase and to flag barrier divergence when
  /// the threads of a block disagree on how many they executed.
  void sync() noexcept;

  /// Close the current dependent-load round: subsequent loads belong to a
  /// new serialized memory round on this thread's critical path.
  void end_round() noexcept { ++round_; }

  [[nodiscard]] std::size_t rounds() const noexcept { return round_; }

 private:
  BlockContext* block_;
  int tid_;
  std::size_t round_ = 0;
  std::size_t shared_ordinal_ = 0;
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
  void flops(double) const noexcept {}
  template <typename T>
  void divs(double) const noexcept {}
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
  [[nodiscard]] const DeviceSpec& device() const noexcept { return dev_; }
  [[nodiscard]] bool recording() const noexcept { return record_; }
  /// True when this block records costs, a hazard detector watches it or
  /// a fault injector is attached. Observed blocks must run their phase
  /// bodies through phase()/phase_rounds() and ThreadCtx, so the
  /// coalescer, the detector and the injector see every access in the
  /// instrumented order (fault-site ordinals included); any other block
  /// may run the same bodies on RawThread.
  [[nodiscard]] bool observed() const noexcept {
    return record_ || hazards_ != nullptr || faults_ != nullptr;
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
    const int warp = dev_.warp_size;
    for (int tid = 0; tid < block_threads_; ++tid) {
      current_warp_ = static_cast<std::size_t>(tid / warp);
      ThreadCtx t(this, tid);
      fn(t);
    }
    phase_span_end("phase", span_t0, 1);
    if (record_) {
      for (std::size_t w = 0; w < num_warps_; ++w) {
        scratch_.coalescers[w].flush();
        scratch_.banks[w].flush();
      }
      ++costs_.barriers;
    }
    if (hazards_ != nullptr) hazards_->end_phase();
    if (faults_ != nullptr) faults_->end_phase(*scratch_.arena);
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
    const int warp = dev_.warp_size;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (int tid = 0; tid < block_threads_; ++tid) {
        current_warp_ = static_cast<std::size_t>(tid / warp);
        ThreadCtx t(this, tid, r);
        fn(t, r);
      }
    }
    phase_span_end("phase_rounds", span_t0, rounds);
    if (record_) {
      for (std::size_t w = 0; w < num_warps_; ++w) {
        scratch_.coalescers[w].flush();
        scratch_.banks[w].flush();
      }
      ++costs_.barriers;
    }
    if (hazards_ != nullptr) hazards_->end_phase();
    if (faults_ != nullptr) faults_->end_phase(*scratch_.arena);
  }

  KernelCosts& costs() noexcept { return costs_; }

 private:
  friend class ThreadCtx;

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

  void record_access(const void* p, std::size_t size, bool is_write,
                     std::size_t round) {
    if (!record_) return;
    scratch_.coalescers[current_warp_].record(p, size, is_write, round);
  }

  void record_shared(const void* p, std::size_t size, std::size_t ordinal) {
    if (!record_) return;
    scratch_.banks[current_warp_].record(ordinal, p, size);
  }

  void hazard_access(const void* p, std::size_t size, int tid, bool is_write,
                     bool expect_shared) {
    if (hazards_ != nullptr) {
      hazards_->access(p, size, tid, is_write, expect_shared);
    }
  }

  void hazard_sync(int tid) noexcept {
    if (hazards_ != nullptr) hazards_->sync(tid);
  }

  /// Give the fault injector (when attached) a shot at a global access
  /// value. No-op — and no site-ordinal consumption — when inactive.
  template <typename T>
  [[nodiscard]] T fault_data(T v, bool is_store) noexcept {
    return faults_ != nullptr ? faults_->filter_data(v, is_store) : v;
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
  std::size_t current_warp_ = 0;
};

template <typename T>
T ThreadCtx::load(const T* p) {
  block_->record_access(p, sizeof(T), /*is_write=*/false, round_);
  block_->hazard_access(p, sizeof(T), tid_, /*is_write=*/false,
                        /*expect_shared=*/false);
  return block_->fault_data(*p, /*is_store=*/false);
}

template <typename T>
void ThreadCtx::store(T* p, T v) {
  block_->record_access(p, sizeof(T), /*is_write=*/true, round_);
  block_->hazard_access(p, sizeof(T), tid_, /*is_write=*/true,
                        /*expect_shared=*/false);
  *p = block_->fault_data(v, /*is_store=*/true);
}

template <typename T>
T ThreadCtx::sload(const T* p) {
  block_->record_shared(p, sizeof(T), shared_ordinal_++);
  block_->hazard_access(p, sizeof(T), tid_, /*is_write=*/false,
                        /*expect_shared=*/true);
  return *p;
}

template <typename T>
void ThreadCtx::sstore(T* p, T v) {
  block_->record_shared(p, sizeof(T), shared_ordinal_++);
  block_->hazard_access(p, sizeof(T), tid_, /*is_write=*/true,
                        /*expect_shared=*/true);
  *p = v;
}

template <typename T>
void ThreadCtx::note_sread(const T& ref) {
  block_->hazard_access(&ref, sizeof(T), tid_, /*is_write=*/false,
                        /*expect_shared=*/true);
}

template <typename T>
void ThreadCtx::note_swrite(const T& ref) {
  block_->hazard_access(&ref, sizeof(T), tid_, /*is_write=*/true,
                        /*expect_shared=*/true);
}

inline void ThreadCtx::sync() noexcept { block_->hazard_sync(tid_); }

template <typename T>
void ThreadCtx::flops(double n) {
  if (!block_->record_) return;
  if constexpr (sizeof(T) == 8) {
    block_->costs_.ops_f64 += n;
  } else {
    block_->costs_.ops_f32 += n;
  }
}

template <typename T>
void ThreadCtx::divs(double n) {
  flops<T>(n * block_->dev_.div_op_cost);
}

}  // namespace tridsolve::gpusim
