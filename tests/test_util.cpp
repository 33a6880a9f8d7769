// Unit tests for the util library: aligned buffers, RNG, stats, tables, CLI.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/aligned_buffer.hpp"
#include "util/cli.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace util = tridsolve::util;

TEST(AlignedBuffer, ProvidesAlignedStorage) {
  util::AlignedBuffer<double> buf(1000);
  EXPECT_TRUE(util::is_aligned(buf.data(), util::kDefaultAlignment));
  EXPECT_EQ(buf.size(), 1000u);
  for (const std::size_t n : {1u, 3u, 17u, 4096u, 300000u}) {
    util::AlignedBuffer<float> f(n, 1.0f);
    util::AlignedBuffer<char> c(n, 'x');
    EXPECT_TRUE(util::is_aligned(f.data(), util::kDefaultAlignment)) << n;
    EXPECT_TRUE(util::is_aligned(c.data(), util::kDefaultAlignment)) << n;
    EXPECT_EQ(f[n - 1], 1.0f);
    EXPECT_EQ(c[n - 1], 'x');
  }
}

TEST(AlignedBuffer, MovedBufferKeepsItsStorage) {
  util::AlignedBuffer<double> a(64, 2.0);
  const double* storage = a.data();
  util::AlignedBuffer<double> b(std::move(a));
  EXPECT_EQ(b.data(), storage);
  util::AlignedBuffer<double> c(8);
  c = std::move(b);  // releases c's own block, adopts b's
  EXPECT_EQ(c.data(), storage);
  EXPECT_EQ(c[63], 2.0);
}

TEST(AlignedBuffer, FillsWithRequestedValue) {
  util::AlignedBuffer<float> buf(17, 3.5f);
  for (float v : buf) EXPECT_EQ(v, 3.5f);
}

TEST(AlignedBuffer, EmptyBufferIsSafe) {
  util::AlignedBuffer<double> buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.span().size(), 0u);
}

TEST(AlignedBuffer, SpanViewsSameMemory) {
  util::AlignedBuffer<int> buf(8);
  buf.span()[3] = 42;
  EXPECT_EQ(buf[3], 42);
}

TEST(Xoshiro, DeterministicForSameSeed) {
  util::Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  util::Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b();
  EXPECT_LT(same, 4);
}

TEST(Xoshiro, UniformInRange) {
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = util::uniform(rng, -2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Xoshiro, UniformIntCoversEndpoints) {
  util::Xoshiro256 rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = util::uniform_int(rng, 0, 7);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 7);
    saw_lo |= v == 0;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Stats, SummaryBasics) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto s = util::summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, 1.5811388, 1e-6);
}

TEST(Stats, MedianOfEvenCount) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(util::summarize(v).median, 2.5);
}

TEST(Stats, EmptySummaryIsZero) {
  const auto s = util::summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, MaxAbsAndRelDiff) {
  const std::vector<double> a{1.0, 2.0, 10.0};
  const std::vector<double> b{1.0, 2.5, 8.0};
  EXPECT_DOUBLE_EQ(util::max_abs_diff(a, b), 2.0);
}

TEST(Table, AsciiHasHeaderRuleAndAlignment) {
  util::Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", util::Table::num(1.5, 2)});
  t.add_row({"b", "22"});
  const std::string s = t.to_ascii();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--m=128", "--n", "512", "--verbose"};
  util::Cli cli(5, argv, {"m", "n", "verbose"});
  EXPECT_EQ(cli.get_int("m", 0), 128);
  EXPECT_EQ(cli.get_int("n", 0), 512);
  EXPECT_TRUE(cli.get_bool("verbose", false));
}

TEST(Cli, GetBoolRejectsUnknownSpelling) {
  const char* argv[] = {"prog",       "--a=on",   "--b=false", "--c", "yes",
                        "--d=0",      "--e=ture", "--f=On",    "--g"};
  util::Cli cli(9, argv, {"a", "b", "c", "d", "e", "f", "g"});
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
  EXPECT_TRUE(cli.get_bool("g", false));  // bare switch
  EXPECT_THROW((void)cli.get_bool("f", false), std::invalid_argument);
  try {
    (void)cli.get_bool("e", false);
    ADD_FAILURE() << "--e=ture must not read as a boolean";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--e"), std::string::npos) << e.what();
  }
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  util::Cli cli(1, argv, {"m"});
  EXPECT_EQ(cli.get_int("m", 7), 7);
  EXPECT_EQ(cli.get_string("m", "dft"), "dft");
  EXPECT_DOUBLE_EQ(cli.get_double("m", 2.5), 2.5);
}

TEST(Cli, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(util::Cli(2, argv, {"m"}), std::invalid_argument);
}

TEST(Cli, RejectsBareWord) {
  // A word that is neither a flag nor a flag's value: leading, or after
  // an `=` flag, which takes no next token.
  const char* leading[] = {"prog", "file1", "--m=1"};
  EXPECT_THROW(util::Cli(3, leading, {"m"}), std::invalid_argument);
  const char* after_eq[] = {"prog", "--m=1", "file2"};
  EXPECT_THROW(util::Cli(3, after_eq, {"m"}), std::invalid_argument);
}
