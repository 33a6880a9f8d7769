#pragma once
// Cost classes of a launch's blocks (LaunchConfig::block_class).
//
// A kernel puts two blocks in one class when they record identical costs.
// In sampled mode the engine then records only the lowest block of each
// class and charges its costs to every block of the class; exact mode
// records every block and counts each launch whose class-scaled costs
// differ from the full record (gpusim.sampling.mismatches).
//
// Kernels build the table from an exact per-block signature: every value
// the block's recorded costs depend on (lane or window counts, sizes,
// strides), with its global addresses given as byte offsets from the
// block's first address plus that first address modulo the transaction
// size. Two blocks with one signature touch address sets that are
// translations of each other by a whole number of transactions, so the
// coalescer counts the same transactions for both. A hash of the
// signature only picks the candidate classes; a block joins one only
// after a full compare of the two signatures.
//
// Contracts: one BlockClasses per launch, filled block by block in
// ascending block order on the launching thread; the span table() returns
// stays valid until the object is destroyed or another block is added.

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace tridsolve::gpusim {

class BlockClasses {
 public:
  explicit BlockClasses(std::size_t transaction_bytes)
      : tx_bytes_(transaction_bytes == 0 ? 1 : transaction_bytes) {}

  /// Start the signature of the next block.
  void begin_block() {
    sig_.clear();
    has_base_ = false;
  }

  /// Append one value the block's costs depend on.
  void push(std::int64_t v) { sig_.push_back(v); }

  /// Append one global address of the block: the first as its residue
  /// modulo the transaction size, every later one as its byte offset from
  /// the first.
  void address(std::uintptr_t p) {
    if (!has_base_) {
      base_ = p;
      has_base_ = true;
      sig_.push_back(static_cast<std::int64_t>(p % tx_bytes_));
      return;
    }
    sig_.push_back(static_cast<std::int64_t>(p - base_));
  }

  /// Close the block: it joins the class of an identical earlier
  /// signature, or opens the next class.
  void end_block() {
    const auto next = static_cast<std::uint32_t>(known_.size());
    ids_.push_back(known_.try_emplace(sig_, next).first->second);
  }

  /// One dense class id per block added so far, for LaunchConfig.
  [[nodiscard]] std::span<const std::uint32_t> table() const noexcept {
    return ids_;
  }

 private:
  /// Multiply-xor over four interleaved lanes: the multiplies of
  /// neighbouring values are independent, so a long signature does not
  /// wait one multiply latency per value.
  struct SigHash {
    std::size_t operator()(const std::vector<std::int64_t>& sig) const noexcept {
      constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
      std::uint64_t h[4] = {sig.size(), 1, 2, 3};
      for (std::size_t i = 0; i < sig.size(); ++i) {
        h[i % 4] = (h[i % 4] ^ static_cast<std::uint64_t>(sig[i])) * kMul;
      }
      return ((h[0] * kMul ^ h[1]) * kMul ^ h[2]) * kMul ^ h[3];
    }
  };

  std::size_t tx_bytes_;
  std::vector<std::int64_t> sig_;   ///< signature of the open block
  std::uintptr_t base_ = 0;         ///< first address of the open block
  bool has_base_ = false;
  std::vector<std::uint32_t> ids_;  ///< class of each closed block
  /// Class of each signature seen so far; the hash picks the bucket and
  /// the map's key equality is the full compare.
  std::unordered_map<std::vector<std::int64_t>, std::uint32_t, SigHash> known_;
};

}  // namespace tridsolve::gpusim
