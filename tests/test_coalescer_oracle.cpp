// Oracle test for gpusim::WarpCoalescer as ThreadCtx drives it. A
// reference keeps one std::set of segments per (warp, round, read/write)
// and counts loads, stores, bytes and rounds access by access. Seeded
// random access streams run through a recording BlockContext, once as
// thread-major phase() with end_round() and once as lockstep
// phase_rounds(), and every cost counter must match the reference after
// every flush — the site cache may only ever skip a set insert that
// would have found its segment already there.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "gpusim/block_context.hpp"
#include "gpusim/costs.hpp"
#include "gpusim/device_spec.hpp"
#include "util/aligned_buffer.hpp"
#include "util/random.hpp"

namespace gs = tridsolve::gpusim;
using tridsolve::util::Xoshiro256;
using tridsolve::util::uniform_int;

namespace {

/// A 16-byte, 8-aligned element: placed at 8 mod 16 it can straddle a
/// segment edge without a misaligned access.
struct Pair {
  double x;
  double y;
};

/// One global access of one thread in one round.
struct Access {
  std::size_t offset;  ///< bytes from the arena start
  std::size_t size;    ///< 4, 8 or 16
  bool write;
};

/// Reference accounting: obviously correct, one std::set per (warp,
/// round, read/write), flushed like the coalescer.
class Reference {
 public:
  Reference(std::size_t tx_bytes, int warp) : tx_(tx_bytes), warp_(warp) {}

  void record(int tid, std::size_t round, const void* p, std::size_t size,
              bool write) {
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    const std::size_t w = static_cast<std::size_t>(tid / warp_);
    auto& segs = sets_[{w, round, write}];
    for (std::uintptr_t s = a / tx_; s <= (a + size - 1) / tx_; ++s) {
      segs.insert(s);
    }
    std::size_t& rounds = rounds_[w];
    rounds = std::max(rounds, round + 1);
    ++(write ? costs_.stores : costs_.loads);
    costs_.bytes_requested += size;
  }

  void flush() {
    for (const auto& [key, segs] : sets_) costs_.transactions += segs.size();
    for (const auto& [warp, rounds] : rounds_) costs_.rounds_total += rounds;
    sets_.clear();
    rounds_.clear();
    ++costs_.barriers;
  }

  [[nodiscard]] const gs::KernelCosts& costs() const { return costs_; }

 private:
  std::size_t tx_;
  int warp_;
  std::map<std::tuple<std::size_t, std::size_t, bool>,
           std::set<std::uintptr_t>>
      sets_;
  std::map<std::size_t, std::size_t> rounds_;
  gs::KernelCosts costs_;
};

/// How the accesses of one site spread across lanes and rounds.
enum class Pattern {
  contiguous,  ///< lane-consecutive elements: a few segments per warp
  strided,     ///< every lane its own stride step
  straddle,    ///< 16-byte elements across segment edges
  same_segment,  ///< the previous site's segment again
  read_write,    ///< a store to the previous site's address
  random,
};

class Harness {
 public:
  Harness(const gs::DeviceSpec& dev, std::uint64_t seed)
      : dev_(dev),
        reference_(dev.transaction_bytes, dev.warp_size),
        rng_(seed),
        arena_(kArenaBytes) {}

  [[nodiscard]] std::size_t pick(std::size_t lo, std::size_t hi) {
    return static_cast<std::size_t>(uniform_int(
        rng_, static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  }

  /// A random phase: per thread and round, the accesses it issues in
  /// order. Each site follows one pattern; a lane may skip a site, which
  /// shifts the ordinals of its later accesses in that round.
  std::vector<std::vector<std::vector<Access>>> make_phase(int threads,
                                                           std::size_t rounds,
                                                           std::size_t sites) {
    struct Site {
      Pattern pattern;
      std::size_t size;
      std::size_t base;
      std::size_t stride;
    };
    std::vector<Site> plan;
    for (std::size_t k = 0; k < sites; ++k) {
      auto pattern = static_cast<Pattern>(pick(0, 5));
      if (k == 0 && (pattern == Pattern::same_segment ||
                     pattern == Pattern::read_write)) {
        pattern = Pattern::contiguous;
      }
      static constexpr std::size_t kSizes[] = {4, 8, 16};
      const std::size_t size =
          pattern == Pattern::straddle ? 16 : kSizes[pick(0, 2)];
      const std::size_t align = size < 8 ? size : 8;
      plan.push_back({pattern, size, pick(0, kArenaBytes / 2) / align * align,
                      (pick(1, 40)) * align});
    }
    std::vector<std::vector<std::vector<Access>>> out(
        static_cast<std::size_t>(threads),
        std::vector<std::vector<Access>>(rounds));
    const std::size_t skip_one_in = pick(2, 10);
    for (int tid = 0; tid < threads; ++tid) {
      const auto lane = static_cast<std::size_t>(tid);
      for (std::size_t r = 0; r < rounds; ++r) {
        std::vector<Access>& list = out[lane][r];
        for (std::size_t k = 0; k < sites; ++k) {
          const Site& s = plan[k];
          if (pick(1, skip_one_in) == 1) continue;
          Access acc{0, s.size, pick(0, 2) == 0};
          switch (s.pattern) {
            case Pattern::contiguous:
              acc.offset = s.base + (lane + r * 64) * s.size;
              break;
            case Pattern::strided:
              acc.offset = s.base + lane * s.stride + r * s.size;
              break;
            case Pattern::straddle:
              acc.offset = s.base / 16 * 16 + 8 + (lane + r * 7) * 16;
              break;
            case Pattern::same_segment:
            case Pattern::read_write:
              if (list.empty()) {
                acc.offset = s.base;
              } else {
                const Access& prev = list.back();
                acc.offset = prev.offset;
                acc.size = prev.size;
                if (s.pattern == Pattern::same_segment) {
                  acc.offset += pick(0, 1) * prev.size;
                } else {
                  acc.write = !prev.write;
                }
              }
              break;
            case Pattern::random:
              acc.offset = pick(0, kArenaBytes / 2) / 8 * 8;
              break;
          }
          acc.offset %= kArenaBytes - 32;
          acc.offset -= acc.offset % (acc.size < 8 ? acc.size : 8);
          list.push_back(acc);
        }
      }
    }
    return out;
  }

  /// Issue one access through the handle and into the reference.
  void issue(gs::ThreadCtx& t, std::size_t round, const Access& acc) {
    std::byte* p = arena_.data() + acc.offset;
    reference_.record(t.tid(), round, p, acc.size, acc.write);
    switch (acc.size) {
      case 4: {
        auto* q = reinterpret_cast<float*>(p);
        if (acc.write) {
          t.store(q, 1.0f);
        } else {
          sink_ += static_cast<double>(t.load(q));
        }
        break;
      }
      case 8: {
        auto* q = reinterpret_cast<double*>(p);
        if (acc.write) {
          t.store(q, 2.0);
        } else {
          sink_ += t.load(q);
        }
        break;
      }
      default: {
        auto* q = reinterpret_cast<Pair*>(p);
        if (acc.write) {
          t.store(q, Pair{3.0, 4.0});
        } else {
          sink_ += t.load(q).y;
        }
        break;
      }
    }
  }

  /// Run one random phase through phase() or phase_rounds(), then compare
  /// every counter with the reference.
  void run(gs::BlockContext& ctx, bool lockstep) {
    const std::size_t rounds = pick(1, 6);
    const auto phase = make_phase(ctx.block_threads(), rounds, pick(1, 8));
    if (lockstep) {
      ctx.phase_rounds(rounds, [&](gs::ThreadCtx& t, std::size_t r) {
        for (const Access& acc : phase[static_cast<std::size_t>(t.tid())][r]) {
          issue(t, r, acc);
        }
      });
    } else {
      ctx.phase([&](gs::ThreadCtx& t) {
        for (std::size_t r = 0; r < rounds; ++r) {
          for (const Access& acc :
               phase[static_cast<std::size_t>(t.tid())][r]) {
            issue(t, r, acc);
          }
          t.end_round();
        }
      });
    }
    reference_.flush();
    ++flushes_;
    const gs::KernelCosts& got = ctx.costs();
    const gs::KernelCosts& want = reference_.costs();
    ASSERT_EQ(got.transactions, want.transactions) << "after flush " << flushes_;
    ASSERT_EQ(got.loads, want.loads) << "after flush " << flushes_;
    ASSERT_EQ(got.stores, want.stores) << "after flush " << flushes_;
    ASSERT_EQ(got.bytes_requested, want.bytes_requested)
        << "after flush " << flushes_;
    ASSERT_EQ(got.rounds_total, want.rounds_total) << "after flush " << flushes_;
    ASSERT_EQ(got.barriers, want.barriers) << "after flush " << flushes_;
  }

  [[nodiscard]] const gs::DeviceSpec& device() const { return dev_; }

 private:
  static constexpr std::size_t kArenaBytes = 65536;

  gs::DeviceSpec dev_;
  Reference reference_;
  Xoshiro256 rng_;
  tridsolve::util::AlignedBuffer<std::byte> arena_;
  double sink_ = 0.0;
  std::size_t flushes_ = 0;
};

struct Shape {
  int warp;
  std::size_t tx_bytes;
};

class CoalescerOracle : public ::testing::TestWithParam<Shape> {};

}  // namespace

TEST_P(CoalescerOracle, RandomStreamsMatchReference) {
  gs::DeviceSpec dev = gs::gtx480();
  dev.warp_size = GetParam().warp;
  dev.transaction_bytes = GetParam().tx_bytes;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Harness h(dev, seed);
    gs::WorkerScratch scratch;
    gs::KernelCosts costs;
    const int threads = static_cast<int>(h.pick(1, 96));
    gs::BlockContext ctx(dev, 0, 1, threads, scratch, costs);
    for (int i = 0; i < 120; ++i) {
      h.run(ctx, /*lockstep=*/h.pick(0, 1) == 1);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(costs.transactions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, CoalescerOracle,
                         ::testing::Values(Shape{32, 128}, Shape{4, 32},
                                           Shape{16, 64}, Shape{32, 256}),
                         [](const ::testing::TestParamInfo<Shape>& shape_info) {
                           return std::to_string(shape_info.param.warp) +
                                  "lanes_" +
                                  std::to_string(shape_info.param.tx_bytes) +
                                  "B";
                         });
