// Oracle test for gpusim::BankTracker. The pairwise tracker it replaced —
// a duplicate search on every record() and an all-pairs bank comparison
// in flush() — is kept below as the reference. Both are driven through
// the same seeded random shared-access streams, and every cost counter
// must agree after every flush, for Fermi's 32 x 4 B banks and for other
// bank shapes.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpusim/bank_tracker.hpp"
#include "gpusim/costs.hpp"
#include "gpusim/device_spec.hpp"
#include "util/aligned_buffer.hpp"
#include "util/random.hpp"

namespace gs = tridsolve::gpusim;
using tridsolve::util::Xoshiro256;
using tridsolve::util::uniform_int;

namespace {

/// Reference tracker: quadratic in the words a group touches, obviously
/// correct. Same public surface and accounting rule as gs::BankTracker.
class ReferenceBankTracker {
 public:
  ReferenceBankTracker(int num_banks, int bank_width_bytes,
                       gs::KernelCosts* costs)
      : banks_(num_banks), width_(bank_width_bytes), costs_(costs) {}

  void record(std::size_t ordinal, const void* addr, std::size_t size) {
    if (ordinal >= groups_.size()) groups_.resize(ordinal + 1);
    Group& group = groups_[ordinal];
    const auto first = reinterpret_cast<std::uintptr_t>(addr) / width_;
    const auto last =
        (reinterpret_cast<std::uintptr_t>(addr) + size - 1) / width_;
    for (std::uintptr_t w = first; w <= last; ++w) {
      bool seen = false;
      for (std::uintptr_t existing : group.words) seen = seen || existing == w;
      if (!seen) group.words.push_back(w);
    }
    group.max_size = group.max_size > size ? group.max_size : size;
    ++costs_->shared_accesses;
    costs_->shared_bytes += size;
  }

  void flush() {
    for (Group& group : groups_) {
      std::size_t worst = 0;
      for (std::uintptr_t wi : group.words) {
        std::size_t in_bank = 0;
        for (std::uintptr_t w : group.words) in_bank += (w % banks_) == (wi % banks_);
        worst = worst > in_bank ? worst : in_bank;
      }
      const std::size_t baseline = (group.max_size + width_ - 1) / width_;
      if (worst > baseline) costs_->shared_serializations += worst - baseline;
    }
    groups_.clear();
  }

 private:
  struct Group {
    std::vector<std::uintptr_t> words;
    std::size_t max_size = 0;
  };

  std::size_t banks_;
  std::size_t width_;
  gs::KernelCosts* costs_;
  std::vector<Group> groups_;
};

gs::DeviceSpec with_banks(int banks, int width) {
  gs::DeviceSpec dev = gs::gtx480();
  dev.shared_banks = banks;
  dev.shared_bank_width = width;
  return dev;
}

/// How one random phase picks its accesses.
enum class Pattern { random, strided, broadcast, mixed };

/// Drives a BankTracker and the reference through identical phases and
/// compares their counters after every flush.
class OracleHarness {
 public:
  OracleHarness(const gs::DeviceSpec& dev, std::uint64_t seed)
      : tracker_(dev.shared_banks, dev.shared_bank_width, &costs_),
        reference_(dev.shared_banks, dev.shared_bank_width, &ref_costs_),
        rng_(seed),
        arena_(kArenaBytes) {}

  /// One barrier interval: `lanes` lanes, each issuing up to `ordinals`
  /// accesses (lanes may diverge and issue fewer), recorded lane-major
  /// as BlockContext::phase() does.
  void phase(Pattern pattern, std::size_t lanes, std::size_t ordinals) {
    static constexpr std::size_t kSizes[] = {1, 2, 4, 8, 16};
    const std::size_t size = kSizes[pick(0, 4)];
    const std::size_t span = std::size_t{64} << pick(0, 7);  // 64 B .. 8 KiB
    const std::size_t stride = pick(1, 40) * (pick(0, 1) ? size : 1);
    const bool aligned = pick(0, 3) != 0;  // else addresses straddle words
    const std::size_t hot = pick(0, span - 1);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::size_t issued =
          pick(0, 3) == 0 ? pick(1, ordinals) : ordinals;
      for (std::size_t ord = 0; ord < issued; ++ord) {
        Pattern p = pattern;
        if (p == Pattern::mixed) p = static_cast<Pattern>(pick(0, 2));
        std::size_t offset = 0;
        switch (p) {
          case Pattern::random: offset = pick(0, span - 1); break;
          case Pattern::strided: offset = lane * stride + ord * size * 3; break;
          default: offset = hot + (pick(0, 7) == 0 ? lane * size : 0); break;
        }
        const std::size_t access = pick(0, 9) == 0 ? kSizes[pick(0, 4)] : size;
        offset %= kArenaBytes - 16;
        if (aligned) offset -= offset % access;
        record(ord, arena_.data() + offset, access);
      }
    }
    flush();
  }

  void record(std::size_t ordinal, const void* addr, std::size_t size) {
    tracker_.record(ordinal, addr, size);
    reference_.record(ordinal, addr, size);
  }

  void flush() {
    tracker_.flush();
    reference_.flush();
    ++flushes_;
    ASSERT_EQ(costs_.shared_accesses, ref_costs_.shared_accesses)
        << "after flush " << flushes_;
    ASSERT_EQ(costs_.shared_bytes, ref_costs_.shared_bytes)
        << "after flush " << flushes_;
    ASSERT_EQ(costs_.shared_serializations, ref_costs_.shared_serializations)
        << "after flush " << flushes_;
  }

  [[nodiscard]] std::size_t pick(std::size_t lo, std::size_t hi) {
    return static_cast<std::size_t>(uniform_int(
        rng_, static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  }

  [[nodiscard]] const gs::KernelCosts& costs() const { return costs_; }
  [[nodiscard]] const std::byte* arena() const { return arena_.data(); }

 private:
  static constexpr std::size_t kArenaBytes = 16384;

  gs::KernelCosts costs_;
  gs::KernelCosts ref_costs_;
  gs::BankTracker tracker_;
  ReferenceBankTracker reference_;
  Xoshiro256 rng_;
  tridsolve::util::AlignedBuffer<std::byte> arena_;
  std::size_t flushes_ = 0;
};

struct Shape {
  int banks;
  int width;
};

class BankOracle : public ::testing::TestWithParam<Shape> {};

}  // namespace

TEST_P(BankOracle, RandomStreamsMatchReference) {
  const Shape shape = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    OracleHarness h(with_banks(shape.banks, shape.width), seed);
    for (int i = 0; i < 150; ++i) {
      const auto pattern = static_cast<Pattern>(h.pick(0, 3));
      h.phase(pattern, h.pick(1, 32), h.pick(1, 12));
      if (::testing::Test::HasFatalFailure()) return;
    }
    // A few wide phases: full warps over many ordinals.
    for (int i = 0; i < 6; ++i) {
      h.phase(Pattern::mixed, 32, 48);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(h.costs().shared_serializations, 0u);
  }
}

TEST_P(BankOracle, LockstepRoundsShareOneGroup) {
  // BlockContext::phase_rounds restarts each lane's ordinal every round,
  // so one ordinal group collects a whole warp over many rounds,
  // repeats included.
  const Shape shape = GetParam();
  OracleHarness h(with_banks(shape.banks, shape.width), 99);
  for (std::size_t round = 0; round < 64; ++round) {
    for (std::size_t lane = 0; lane < 32; ++lane) {
      h.record(0, h.arena() + 8 * ((lane * 17 + round * 5) % 700), 8);
      h.record(1, h.arena() + 4 * (round % 3), 4);
    }
  }
  h.flush();
}

TEST_P(BankOracle, StraddlingAccessesAndEmptyFlushes) {
  const Shape shape = GetParam();
  OracleHarness h(with_banks(shape.banks, shape.width), 7);
  h.flush();  // nothing recorded
  for (std::size_t misalign = 0; misalign < 16; ++misalign) {
    for (const std::size_t size : {1u, 2u, 4u, 8u, 16u}) {
      for (std::size_t lane = 0; lane < 32; ++lane) {
        h.record(0, h.arena() + misalign + lane * size, size);
        h.record(1, h.arena() + misalign + lane * 32 * size, size);
        h.record(2, h.arena() + misalign, size);  // broadcast
      }
      h.flush();
      h.flush();  // a second flush on the drained tracker charges nothing
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BankOracle,
                         ::testing::Values(Shape{32, 4}, Shape{16, 4},
                                           Shape{32, 8}, Shape{24, 4}),
                         [](const ::testing::TestParamInfo<Shape>& shape_info) {
                           return std::to_string(shape_info.param.banks) + "x" +
                                  std::to_string(shape_info.param.width) + "B";
                         });
