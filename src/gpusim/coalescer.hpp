#pragma once
// Per-warp global-memory transaction accounting.
//
// Threads of a warp execute in lockstep; the addresses they touch within
// one "round" (one dependent-load step, e.g. one iteration of the Thomas
// forward sweep) coalesce into as few fixed-size segments as the access
// pattern allows. The simulator executes threads of a block sequentially,
// so each warp buffers its rounds' segment sets and flushes once the
// whole warp has run the phase.
//
// Cost: every access names its site, the lane's access ordinal within its
// round (ThreadCtx numbers them). The per-warp site cache remembers, per
// site, the segment the previous lane's access there hit; an access that
// hits the same segment again, in the same round and direction, is
// already in that round's set and stops there. Only the others search the
// exact per-(round, read/write) segment set. Lanes of a coalesced access
// share a segment, so the set sees about one access per segment per site
// instead of one per lane. Transactions and rounds reach the cost shard at
// flush(); loads, stores and requested bytes are ThreadCtx's integer
// tallies, added once per phase with the op counts. Misses stay out of
// line so the hit path inlines into the block's thread loop.
// tests/test_coalescer_oracle.cpp pins every counter against a std::set
// reference on random streams.
//
// Instances live in per-worker scratch and are reused across phases,
// blocks and launches: flush() retires the round data but keeps every
// buffer's capacity, and attach() redirects the instance at the next
// block's cost shard. After warm-up the per-access path allocates only
// when a round sees more distinct segments than any round before it.
//
// Contracts: NOT thread-safe — one instance per engine worker, never
// shared across threads; per-worker cost shards merge in block order so
// recorded totals are bit-identical for any --sim-threads value.
// Recording is read-only w.r.t. kernel numerics. Units: transactions are
// fixed-size segments of DeviceSpec::transaction_bytes (128 B on Fermi),
// which must be a power of two (gpusim::launch checks the spec);
// requested sizes are bytes.

#include <bit>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "gpusim/costs.hpp"

namespace tridsolve::gpusim {

class WarpCoalescer {
 public:
  WarpCoalescer(std::size_t transaction_bytes, KernelCosts* costs)
      : shift_(static_cast<unsigned>(std::countr_zero(transaction_bytes))),
        costs_(costs) {}

  /// Point subsequent recording at a (possibly different) cost shard.
  /// Requires the previous phase to have been flushed.
  void attach(KernelCosts* costs) noexcept { costs_ = costs; }

  /// Record the current lane's `site`-th access of round `round`. Reads
  /// and writes coalesce separately — a load and a store to the same
  /// segment are two transactions on hardware.
  [[gnu::always_inline]] void record(const void* addr, std::size_t size,
                                     bool is_write, std::size_t round,
                                     std::size_t site) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    const std::uintptr_t first = a >> shift_;
    const std::uintptr_t last = (a + size - 1) >> shift_;
    const std::size_t key = (round << 1 | (is_write ? 1u : 0u)) + 1;
    if (site < sites_.size()) {
      const Site& s = sites_[site];
      if (s.key == key && s.segment == first && first == last) [[likely]] {
        return;
      }
    }
    miss(first, last, is_write, round, site, key);
  }

  /// Called once per warp after all of its threads finished the phase.
  /// Keeps buffer capacity for reuse by the next phase/block.
  void flush() {
    std::size_t tx = 0;
    for (std::size_t r = 0; r < rounds_used_; ++r) {
      tx += rounds_[r].reads.size() + rounds_[r].writes.size();
      rounds_[r].reads.clear();
      rounds_[r].writes.clear();
    }
    for (std::size_t i = 0; i < sites_used_; ++i) sites_[i] = Site{};
    costs_->transactions += tx;
    costs_->rounds_total += rounds_used_;
    rounds_used_ = 0;
    sites_used_ = 0;
  }

  [[nodiscard]] bool empty() const noexcept { return rounds_used_ == 0; }

 private:
  struct Round {
    std::vector<std::uintptr_t> reads;
    std::vector<std::uintptr_t> writes;
  };

  /// Last segment one site's access hit, tagged with the round and
  /// direction of the set it went into; key 0 = nothing since flush().
  struct Site {
    std::uintptr_t segment = 0;
    std::size_t key = 0;
  };

  /// Site cache miss: add segments [first, last] to the set of (round,
  /// direction) and remember `last` for the site.
  [[gnu::noinline]] void miss(std::uintptr_t first, std::uintptr_t last,
                              bool is_write, std::size_t round,
                              std::size_t site, std::size_t key) {
    if (round >= rounds_used_) {
      rounds_used_ = round + 1;
      if (rounds_used_ > rounds_.size()) rounds_.resize(rounds_used_);
    }
    auto& segs = is_write ? rounds_[round].writes : rounds_[round].reads;
    for (std::uintptr_t s = first; s <= last; ++s) insert_unique(segs, s);
    if (site >= sites_.size()) sites_.resize(site + 1);
    sites_[site] = {last, key};
    if (site >= sites_used_) sites_used_ = site + 1;
  }

  static void insert_unique(std::vector<std::uintptr_t>& v, std::uintptr_t s) {
    for (std::uintptr_t existing : v) {
      if (existing == s) return;
    }
    v.push_back(s);
  }

  unsigned shift_;  ///< log2 of the transaction size
  KernelCosts* costs_;
  std::vector<Round> rounds_;
  std::size_t rounds_used_ = 0;  // rounds_[0..rounds_used_) are live
  std::vector<Site> sites_;
  std::size_t sites_used_ = 0;   // sites_[0..sites_used_) may be set
};

}  // namespace tridsolve::gpusim
