// Unit tests for rng: Xorshift64Star, MersenneSeeder, cube-weighted rank.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "rng/draw_lanes.hpp"
#include "rng/seeder.hpp"
#include "rng/xorshift.hpp"

namespace dabs {
namespace {

TEST(Xorshift, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xorshift, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Xorshift, ZeroSeedIsRemapped) {
  Rng z(0);
  EXPECT_NE(z.state(), 0u);
  EXPECT_NE(z(), 0u);  // would be stuck at zero otherwise
}

TEST(XorshiftJump, EqualsSteppingTheGenerator) {
  for (const std::uint64_t steps : {0u, 1u, 63u, 64u, 128u, 1000u}) {
    SCOPED_TRACE(steps);
    const XorshiftJump jump(steps);
    EXPECT_EQ(jump.steps(), steps);
    for (const std::uint64_t seed : {1ull, 0x9e3779b97f4a7c15ull, ~0ull}) {
      Rng g(seed);
      for (std::uint64_t i = 0; i < steps; ++i) g();
      EXPECT_EQ(jump(seed), g.state());
    }
  }
}

TEST(XorshiftJump, ChainedJumpsContinueTheSequence) {
  // Three jumps of 64 land where 192 draws do, and reseeding with the
  // jumped state continues the generator from there.
  const XorshiftJump jump(64);
  Rng serial(77);
  for (int i = 0; i < 192; ++i) serial();
  Rng jumped(77);
  jumped.reseed(jump(jump(jump(jumped.state()))));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(jumped(), serial());
}

TEST(DrawLanes, ChunksAtHalfThresholdAreTheSerialBits) {
  // 5,000 draws as the complete-graph generator makes them: chunks of 2048
  // in the draw lanes at threshold 2^52, whose candidates are the draws
  // with next_bit() 0, then a serial tail of 904.
  constexpr std::size_t kDraws = 5000;
  constexpr std::size_t kChunk = 2048;
  const XorshiftJump jump(lane_length(kChunk));
  ASSERT_EQ(jump.steps(), 128u);
  for (const std::uint64_t seed : {1ull, 2000ull, ~0ull}) {
    SCOPED_TRACE(seed);
    Rng serial(seed);
    std::vector<bool> want(kDraws);
    for (std::size_t k = 0; k < kDraws; ++k) want[k] = serial.next_bit();

    Rng lanes(seed);
    std::vector<bool> got;
    std::vector<std::uint64_t> cand(kChunk / 64);
    for (std::size_t c = 0; c < kDraws / kChunk; ++c) {
      draw_candidates(lanes, jump, kChunk, std::uint64_t{1} << 52,
                      cand.data());
      for (std::size_t k = 0; k < kChunk; ++k) {
        got.push_back(((cand[k / 64] >> (k % 64)) & 1) == 0);
      }
    }
    while (got.size() < kDraws) got.push_back(lanes.next_bit());
    EXPECT_EQ(got, want);
    EXPECT_EQ(lanes.state(), serial.state());
  }
}

TEST(Xorshift, AdvanceAndOutputComposeToADraw) {
  Rng g(99);
  const std::uint64_t s = g.state();
  EXPECT_EQ(g(), Rng::output(Rng::advance(s)));
}

TEST(Xorshift, NextIndexInBounds) {
  Rng rng(99);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1000003ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_index(bound), bound);
    }
  }
}

TEST(Xorshift, NextIndexOfOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_index(1), 0u);
}

TEST(Xorshift, NextIndexCoversRange) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_index(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Xorshift, NextUnitInHalfOpenUnitInterval) {
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xorshift, NextUnitRoughlyUniform) {
  Rng rng(77);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_unit();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xorshift, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bernoulli(0.0));
    EXPECT_TRUE(rng.next_bernoulli(1.0));
  }
}

TEST(Xorshift, BernoulliApproximatesProbability) {
  Rng rng(8);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.next_bernoulli(0.125);
  EXPECT_NEAR(double(hits) / n, 0.125, 0.01);
}

TEST(Xorshift, NextBitBalanced) {
  Rng rng(21);
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ones += rng.next_bit();
  EXPECT_NEAR(double(ones) / n, 0.5, 0.01);
}

TEST(Seeder, DeterministicFanOut) {
  MersenneSeeder a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_seed(), b.next_seed());
}

TEST(Seeder, SeedsAreDistinct) {
  MersenneSeeder s(7);
  const auto seeds = s.seeds(256);
  const std::set<std::uint64_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), seeds.size());
}

TEST(Seeder, NextRngStreamsDiffer) {
  MersenneSeeder s(9);
  Rng a = s.next_rng();
  Rng b = s.next_rng();
  EXPECT_NE(a(), b());
}

TEST(CubeRank, AlwaysInRange) {
  Rng rng(11);
  for (std::size_t m : {1u, 2u, 5u, 100u}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(cube_weighted_rank(rng, m), m);
    }
  }
}

TEST(CubeRank, PrefersLowRanks) {
  // floor(r^3 * m): rank 0 has probability (1/m)^{1/3}, far above 1/m.
  Rng rng(13);
  const std::size_t m = 100;
  int zeros = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) zeros += cube_weighted_rank(rng, m) == 0;
  const double p0 = double(zeros) / n;
  EXPECT_NEAR(p0, std::pow(1.0 / m, 1.0 / 3.0), 0.02);  // ~0.215
  EXPECT_GT(p0, 10.0 / m);                              // >> uniform
}

TEST(CubeRank, RejectsEmptyPool) {
  Rng rng(1);
  EXPECT_THROW((void)cube_weighted_rank(rng, 0), std::invalid_argument);
}

TEST(CubeRank, MaxDrawIsClampedIntoRange) {
  // The largest value next_unit() can produce is (2^53 - 1) / 2^53; r^3 * m
  // can round up to exactly m in floating point, which would index one past
  // the end of the pool.  The clamp must pin it (and even an exact 1.0,
  // which only rounding can manufacture) to m - 1.
  const double max_unit =
      static_cast<double>((std::uint64_t{1} << 53) - 1) /
      static_cast<double>(std::uint64_t{1} << 53);
  for (const std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{100}, std::size_t{1} << 40}) {
    EXPECT_EQ(cube_weighted_rank_from_unit(max_unit, m), m - 1) << m;
    EXPECT_EQ(cube_weighted_rank_from_unit(1.0, m), m - 1) << m;
  }
  // Sanity at the other end and in the middle.
  EXPECT_EQ(cube_weighted_rank_from_unit(0.0, 100), 0u);
  EXPECT_EQ(cube_weighted_rank_from_unit(0.5, 100), 12u);  // 0.125 * 100
}

}  // namespace
}  // namespace dabs
