// Tests for compare_mask, the word-wide compare that builds every Step-1
// argmin lookup and Step-2 candidate mask: its int16 vector body (AVX-512BW
// or SSE2, whichever the build targets) and its scalar loop must give the
// per-element reference bit for bit.  tests/CMakeLists.txt also builds this
// file for AVX-512BW on every x86-64 build (candidate_mask_avx512_test).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <vector>

#include "qubo/candidate_mask.hpp"
#include "rng/xorshift.hpp"

namespace dabs {
namespace {

template <Compare C, class D>
std::uint64_t reference(const std::vector<D>& d, std::size_t offset,
                        std::size_t len, D t) {
  std::uint64_t m = 0;
  for (std::size_t b = 0; b < len; ++b) {
    const D v = d[offset + b];
    if (C == Compare::kEqual ? v == t : v <= t) m |= std::uint64_t{1} << b;
  }
  return m;
}

/// The values a Delta array holds near the thresholds below: each
/// width's extremes and their neighbours, a few values around zero and
/// the thresholds themselves.
template <class D>
std::vector<D> interesting() {
  constexpr D lo = std::numeric_limits<D>::min();
  constexpr D hi = std::numeric_limits<D>::max();
  return {lo,  static_cast<D>(lo + 1), -2, -1, 0, 1, 2,
          static_cast<D>(hi - 1),      hi, 7,  -7};
}

/// Every len from 1 to 64, every start offset within a 64-byte line (the
/// windows of CyclicMin start anywhere), both predicates and every
/// threshold above.  The data ends exactly at offset + len, so a load
/// past the word is a heap overflow under AddressSanitizer.
template <class D>
void expect_matches_reference() {
  const std::vector<D> values = interesting<D>();
  Rng rng(26);
  const std::size_t offsets = 64 / sizeof(D);
  for (std::size_t len = 1; len <= 64; ++len) {
    for (std::size_t offset = 0; offset < offsets; ++offset) {
      std::vector<D> d(offset + len);
      // Half the elements from the interesting set, half anywhere.
      for (D& v : d) {
        v = rng.next_index(2) == 0
                ? values[rng.next_index(values.size())]
                : static_cast<D>(rng());
      }
      for (const D t : values) {
        SCOPED_TRACE(::testing::Message() << "len " << len << " offset "
                                          << offset << " t " << t);
        ASSERT_EQ((compare_mask<Compare::kEqual>(d.data() + offset, len, t)),
                  (reference<Compare::kEqual>(d, offset, len, t)));
        ASSERT_EQ(
            (compare_mask<Compare::kLessEqual>(d.data() + offset, len, t)),
            (reference<Compare::kLessEqual>(d, offset, len, t)));
      }
    }
  }
}

TEST(CompareMask, ReportsItsInt16Body) {
  std::printf("compare_mask int16 body: %s\n", kCompareMaskBody);
  RecordProperty("compare_mask_body", kCompareMaskBody);
}

TEST(CompareMask, Int16MatchesReference) {
  expect_matches_reference<std::int16_t>();
}

TEST(CompareMask, Int64MatchesReference) {
  expect_matches_reference<std::int64_t>();
}

/// All len elements equal to v: each compare is all ones or all zeros,
/// and no bit at or past len is set.
template <class D>
void expect_uniform_words() {
  constexpr D lo = std::numeric_limits<D>::min();
  constexpr D hi = std::numeric_limits<D>::max();
  for (std::size_t len = 1; len <= 64; ++len) {
    SCOPED_TRACE(len);
    const std::uint64_t all =
        len == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1;
    const std::vector<D> low(len, lo), high(len, hi);
    EXPECT_EQ(compare_mask<Compare::kLessEqual>(high.data(), len, hi), all);
    EXPECT_EQ(compare_mask<Compare::kEqual>(high.data(), len, hi), all);
    EXPECT_EQ(compare_mask<Compare::kLessEqual>(high.data(), len,
                                                static_cast<D>(hi - 1)),
              0u);
    EXPECT_EQ(compare_mask<Compare::kLessEqual>(low.data(), len, lo), all);
    EXPECT_EQ(compare_mask<Compare::kEqual>(low.data(), len, hi), 0u);
    EXPECT_EQ(compare_mask<Compare::kLessEqual>(high.data(), len, lo), 0u);
  }
}

TEST(CompareMask, Int16UniformWordsAtTheExtremes) {
  expect_uniform_words<std::int16_t>();
}

TEST(CompareMask, Int64UniformWordsAtTheExtremes) {
  expect_uniform_words<std::int64_t>();
}

TEST(CompareMask, WalkWordWithADifferingBitAtTheBound) {
  // The straight walk's word: off is INT16_MIN on differing bits and
  // INT16_MAX on agreeing ones, and a differing bit's Delta can be
  // INT16_MAX itself.  eq(Delta, v) & le(off, v) must pick the first
  // differing bit at v; at v = INT16_MAX, le(off, v) selects every bit,
  // which is why the walk picks without the mask there.
  constexpr std::int16_t kMin = std::numeric_limits<std::int16_t>::min();
  constexpr std::int16_t kMax = std::numeric_limits<std::int16_t>::max();
  std::vector<std::int16_t> delta(64, 5), off(64, kMax);
  delta[3] = -9;   // agreeing: ignored
  delta[10] = -9;  // differing: the pick
  delta[40] = kMax;
  delta[50] = -9;  // differing, later
  for (const std::size_t k : {10u, 40u, 50u, 63u}) off[k] = kMin;
  const auto pick = [&](std::int16_t v) {
    return compare_mask<Compare::kEqual>(delta.data(), 64, v) &
           compare_mask<Compare::kLessEqual>(off.data(), 64, v);
  };
  EXPECT_EQ(pick(-9), (std::uint64_t{1} << 10) | (std::uint64_t{1} << 50));
  EXPECT_EQ(compare_mask<Compare::kLessEqual>(off.data(), 64, kMax),
            ~std::uint64_t{0});
  EXPECT_EQ(pick(kMax), std::uint64_t{1} << 40);
  EXPECT_EQ(compare_mask<Compare::kLessEqual>(off.data(), 64,
                                              static_cast<std::int16_t>(-9)),
            (std::uint64_t{1} << 10) | (std::uint64_t{1} << 40) |
                (std::uint64_t{1} << 50) | (std::uint64_t{1} << 63));
}

}  // namespace
}  // namespace dabs
