#pragma once
// Shared-memory bank-conflict accounting.
//
// Fermi-class shared memory is organized as 32 four-byte banks; lanes of
// a warp touching distinct words in the same bank serialize. Kernels that
// opt in route their shared accesses through ThreadCtx::sload/sstore;
// lockstep accesses are grouped by each lane's access ordinal within the
// phase, and every group is charged
//
//   serializations = max over banks of (distinct words in that bank)
//   extra          = serializations - ceil(access bytes / bank width)
//
// so a conflict-free access pattern costs zero extra (including 8-byte
// accesses, which inherently take two passes). A repeated word (a
// broadcast) counts once. This is the effect Göddeke & Strzodka's
// bank-conflict-free CR layout [10] eliminates; the banks ablation bench
// measures it on both CR layouts.
//
// Cost: record() appends the access's words to its ordinal group —
// constant work per access, no duplicate search. flush() sorts each
// group's words (skipped when lanes arrived in address order, the common
// case), drops repeats and histograms the rest by bank: O(w log w) per
// group of w words, O(w) when already sorted. tests/test_bank_oracle.cpp
// pins every count to a pairwise reference tracker on random streams.
//
// Like WarpCoalescer, instances are pooled in per-worker scratch:
// flush() clears group contents but keeps capacity, attach() retargets
// the cost shard for the next block.
//
// Contracts: NOT thread-safe — each instance is owned by one engine
// worker and never shared (workers' cost shards merge in block order, so
// totals are bit-identical for any worker count). Accounting is
// read-only with respect to kernel numerics: it never alters arena
// contents or arithmetic. Units: serializations and extra replays are
// cycle-equivalent counts per warp; widths/bytes are bytes.

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "gpusim/costs.hpp"

namespace tridsolve::gpusim {

class BankTracker {
 public:
  BankTracker(int num_banks, int bank_width_bytes, KernelCosts* costs)
      : banks_(num_banks), width_(bank_width_bytes), costs_(costs),
        per_bank_(banks_) {}

  /// Point subsequent recording at a (possibly different) cost shard.
  /// Requires the previous phase to have been flushed.
  void attach(KernelCosts* costs) noexcept { costs_ = costs; }

  /// Record one access: the `ordinal`-th shared access of the current
  /// lane in this phase.
  void record(std::size_t ordinal, const void* addr, std::size_t size) {
    if (ordinal >= groups_used_) {
      groups_used_ = ordinal + 1;
      if (groups_used_ > groups_.size()) groups_.resize(groups_used_);
    }
    auto& group = groups_[ordinal];
    const auto first = reinterpret_cast<std::uintptr_t>(addr) / width_;
    const auto last =
        (reinterpret_cast<std::uintptr_t>(addr) + size - 1) / width_;
    for (std::uintptr_t w = first; w <= last; ++w) group.words.push_back(w);
    group.max_size = std::max(group.max_size, size);
    ++costs_->shared_accesses;
    costs_->shared_bytes += size;
  }

  /// Phase end: charge each ordinal group's serialization overhead.
  /// Keeps buffer capacity for reuse by the next phase/block.
  void flush() {
    for (std::size_t g = 0; g < groups_used_; ++g) {
      auto& group = groups_[g];
      auto& words = group.words;
      if (!std::is_sorted(words.begin(), words.end())) {
        std::sort(words.begin(), words.end());
      }
      const auto distinct_end = std::unique(words.begin(), words.end());
      std::uint32_t worst = 0;
      for (auto w = words.begin(); w != distinct_end; ++w) {
        worst = std::max(worst, ++per_bank_[*w % banks_]);
      }
      std::fill(per_bank_.begin(), per_bank_.end(), 0u);
      const std::size_t baseline = (group.max_size + width_ - 1) / width_;
      if (worst > baseline) {
        costs_->shared_serializations += worst - baseline;
      }
      words.clear();
      group.max_size = 0;
    }
    groups_used_ = 0;
  }

 private:
  struct Group {
    std::vector<std::uintptr_t> words;  ///< with repeats until flush()
    std::size_t max_size = 0;
  };

  std::size_t banks_;
  std::size_t width_;
  KernelCosts* costs_;
  std::vector<Group> groups_;
  std::size_t groups_used_ = 0;  // groups_[0..groups_used_) are live
  std::vector<std::uint32_t> per_bank_;  ///< flush() scratch, zero between groups
};

}  // namespace tridsolve::gpusim
