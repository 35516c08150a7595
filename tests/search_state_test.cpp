// Property tests for the incremental SearchState: after any flip sequence,
// E(X) and every Delta_k(X) must equal a fresh full recomputation (Eqs.
// 3-5), and BEST must dominate everything the scans have seen.
#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "qubo/search_state.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using testing::naive_energy;
using testing::random_model;
using testing::random_solution;

void expect_consistent(const SearchState& s) {
  const QuboModel& m = s.model();
  EXPECT_EQ(s.energy(), m.energy(s.solution()));
  std::vector<Energy> fresh;
  m.delta_all(s.solution(), fresh);
  for (VarIndex k = 0; k < m.size(); ++k) {
    ASSERT_EQ(s.delta(k), fresh[k]) << "k=" << k;
  }
}

TEST(SearchState, StartsAtZeroVector) {
  const QuboModel m = random_model(12, 0.5, 5, 1);
  SearchState s(m);
  EXPECT_EQ(s.energy(), 0);
  EXPECT_EQ(s.solution().count(), 0u);
  for (VarIndex k = 0; k < m.size(); ++k) {
    EXPECT_EQ(s.delta(k), m.diag(k));  // Delta_k of the zero vector
  }
  EXPECT_EQ(s.flip_count(), 0u);
}

class SearchStateProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SearchStateProperty, RandomWalkStaysConsistent) {
  const auto [n, density] = GetParam();
  const QuboModel m = random_model(n, density, 9, 400 + n);
  SearchState s(m);
  Rng rng(n * 13 + 7);
  for (int step = 0; step < 200; ++step) {
    s.flip(static_cast<VarIndex>(rng.next_index(n)));
  }
  expect_consistent(s);
  EXPECT_EQ(s.flip_count(), 200u);
}

TEST_P(SearchStateProperty, ResetToArbitraryVector) {
  const auto [n, density] = GetParam();
  const QuboModel m = random_model(n, density, 9, 500 + n);
  SearchState s(m);
  Rng rng(n * 17 + 3);
  s.reset_to(random_solution(n, rng));
  expect_consistent(s);
  EXPECT_EQ(s.flip_count(), 0u);
  // Walk again after the reset.
  for (int step = 0; step < 50; ++step) {
    s.flip(static_cast<VarIndex>(rng.next_index(n)));
  }
  expect_consistent(s);
}

TEST_P(SearchStateProperty, DoubleFlipNegatesDelta) {
  // Eq. 5: Delta_k(f_k(X)) = -Delta_k(X).
  const auto [n, density] = GetParam();
  const QuboModel m = random_model(n, density, 9, 600 + n);
  SearchState s(m);
  Rng rng(n * 19 + 11);
  s.reset_to(random_solution(n, rng));
  for (VarIndex k = 0; k < m.size(); ++k) {
    const Energy before = s.delta(k);
    s.flip(k);
    EXPECT_EQ(s.delta(k), -before);
    s.flip(k);  // restore
    EXPECT_EQ(s.delta(k), before);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SearchStateProperty,
    ::testing::Combine(::testing::Values(2, 5, 16, 33, 64, 100),
                       ::testing::Values(0.1, 0.5, 1.0)));

TEST(SearchState, Eq4CrossUpdate) {
  // Delta_k(f_i(X)) - Delta_k(X) = W_{i,k} sigma(x_i) sigma(x_k), i != k.
  const QuboModel m = random_model(20, 0.7, 9, 77);
  SearchState s(m);
  Rng rng(123);
  s.reset_to(random_solution(20, rng));
  for (int trial = 0; trial < 40; ++trial) {
    const auto i = static_cast<VarIndex>(rng.next_index(20));
    const auto& x = s.solution();
    std::vector<Energy> before(20);
    for (VarIndex k = 0; k < 20; ++k) before[k] = s.delta(k);
    std::vector<int> sig(20);
    for (VarIndex k = 0; k < 20; ++k) sig[k] = sigma(x.get(k));
    s.flip(i);
    for (VarIndex k = 0; k < 20; ++k) {
      if (k == i) continue;
      EXPECT_EQ(s.delta(k) - before[k],
                Energy{m.weight(i, k)} * sig[i] * sig[k]);
    }
  }
}

TEST(SearchState, EnergyUpdatesByDelta) {
  const QuboModel m = random_model(15, 0.6, 9, 88);
  SearchState s(m);
  Rng rng(5);
  s.reset_to(random_solution(15, rng));
  for (int trial = 0; trial < 60; ++trial) {
    const auto i = static_cast<VarIndex>(rng.next_index(15));
    const Energy e = s.energy();
    const Energy d = s.delta(i);
    s.flip(i);
    EXPECT_EQ(s.energy(), e + d);
  }
}

TEST(SearchState, ScanFindsTrueMinMax) {
  const QuboModel m = random_model(40, 0.4, 9, 99);
  SearchState s(m);
  Rng rng(6);
  s.reset_to(random_solution(40, rng));
  const ScanResult r = s.scan();
  Energy mn = s.delta(0), mx = s.delta(0);
  for (VarIndex k = 1; k < 40; ++k) {
    mn = std::min(mn, s.delta(k));
    mx = std::max(mx, s.delta(k));
  }
  EXPECT_EQ(r.min_delta, mn);
  EXPECT_EQ(r.max_delta, mx);
  EXPECT_EQ(s.delta(r.argmin), mn);
}

TEST(SearchState, ScanRecordsBestOneBitNeighbor) {
  const QuboModel m = random_model(25, 0.5, 9, 111);
  SearchState s(m);
  Rng rng(7);
  s.reset_to(random_solution(25, rng));
  const Energy e0 = s.energy();
  const ScanResult r = s.scan();
  if (r.min_delta < 0) {
    // BEST must now be the argmin neighbor, without X having moved.
    EXPECT_EQ(s.best_energy(), e0 + r.min_delta);
    EXPECT_EQ(s.energy(), e0);
    EXPECT_EQ(s.best().hamming_distance(s.solution()), 1u);
    EXPECT_EQ(m.energy(s.best()), s.best_energy());
  } else {
    EXPECT_EQ(s.best_energy(), e0);
  }
}

TEST(SearchState, BestTracksVisitedSolutions) {
  const QuboModel m = random_model(30, 0.5, 9, 222);
  SearchState s(m);
  Rng rng(8);
  s.reset_to(random_solution(30, rng));
  Energy lowest_seen = s.energy();
  for (int step = 0; step < 100; ++step) {
    s.flip(static_cast<VarIndex>(rng.next_index(30)));
    lowest_seen = std::min(lowest_seen, s.energy());
  }
  EXPECT_LE(s.best_energy(), lowest_seen);
  EXPECT_EQ(m.energy(s.best()), s.best_energy());
}

TEST(SearchState, ResetBestAnchorsAtCurrent) {
  const QuboModel m = random_model(10, 0.8, 9, 333);
  SearchState s(m);
  Rng rng(9);
  s.reset_to(random_solution(10, rng));
  for (int step = 0; step < 20; ++step) {
    s.flip(static_cast<VarIndex>(rng.next_index(10)));
  }
  s.reset_best();
  EXPECT_EQ(s.best_energy(), s.energy());
  EXPECT_EQ(s.best(), s.solution());
}

TEST(SearchState, IsLocalMinimumMatchesDefinition) {
  const QuboModel m = random_model(18, 0.5, 9, 444);
  SearchState s(m);
  Rng rng(10);
  s.reset_to(random_solution(18, rng));
  // Drive to a local minimum by always flipping the argmin while negative.
  for (;;) {
    const ScanResult r = s.scan();
    if (r.min_delta >= 0) break;
    s.flip(r.argmin);
  }
  EXPECT_TRUE(s.is_local_minimum());
  // Verify against brute force: no 1-bit neighbor is better.
  for (VarIndex k = 0; k < 18; ++k) {
    BitVector fx = s.solution();
    fx.flip(k);
    EXPECT_GE(m.energy(fx), s.energy());
  }
}

TEST(SearchState, ResetReturnsToZeroVector) {
  const QuboModel m = random_model(22, 0.5, 9, 555);
  SearchState s(m);
  Rng rng(11);
  s.reset_to(random_solution(22, rng));
  s.flip(3);
  s.reset();
  EXPECT_EQ(s.energy(), 0);
  EXPECT_EQ(s.solution().count(), 0u);
  EXPECT_EQ(s.flip_count(), 0u);
  expect_consistent(s);
}

// The straight walk's masked Step 1: besides an unchanged Step 1, the
// masked scan reports the least Delta over the candidate bits, or the
// width's highest value when no candidate is below it, and the first
// candidate at that value (size() when none is below the highest).  Sizes straddle words and the
// 1024-variable reduction blocks; scales put the model on both widths.
template <class D>
void expect_masked_scans(const QuboModel& m, std::uint64_t seed) {
  constexpr D kDiffer = std::numeric_limits<D>::min();
  constexpr D kAgree = std::numeric_limits<D>::max();
  const std::size_t n = m.size();
  Rng rng(seed);
  const BitVector start = random_solution(n, rng);
  SearchState masked(m), plain(m);
  masked.reset_to(start);
  plain.reset_to(start);
  std::vector<D> off(n);
  for (int step = 0; step < 40; ++step) {
    SCOPED_TRACE(step);
    // Candidate densities from none through one in eight to all.
    const std::uint64_t odds = step % 5;
    for (D& o : off) {
      o = odds != 0 && rng.next_index(odds == 4 ? 1 : 8 * odds) == 0
              ? kDiffer
              : kAgree;
    }
    const auto i = static_cast<VarIndex>(rng.next_index(n));
    const MaskedScan got =
        step == 0 ? masked.scan(std::span<const D>(off))
                  : masked.flip_and_scan(i, std::span<const D>(off));
    const ScanResult want = step == 0 ? plain.scan() : plain.flip_and_scan(i);
    EXPECT_EQ(got.scan.min_delta, want.min_delta);
    EXPECT_EQ(got.scan.max_delta, want.max_delta);
    EXPECT_EQ(got.scan.argmin, want.argmin);
    EXPECT_EQ(masked.best_energy(), plain.best_energy());
    Energy least = kAgree;
    std::size_t first = n;
    for (VarIndex k = 0; k < n; ++k) {
      if (off[k] == kDiffer && masked.delta(k) < least) {
        least = masked.delta(k);
        first = k;
      }
    }
    EXPECT_EQ(got.masked_min, least);
    EXPECT_EQ(got.masked_arg, first);
  }
}

using MaskedParam = std::tuple<QuboBackend, std::size_t, Weight>;

class MaskedScanProperty : public ::testing::TestWithParam<MaskedParam> {};

TEST_P(MaskedScanProperty, MatchesBruteForce) {
  const auto [backend, n, scale] = GetParam();
  const QuboModel m = random_model(
      n, backend == QuboBackend::kDense ? 0.5 : 0.02, 9, 700 + n, backend,
      scale);
  if (m.delta_width() == DeltaWidth::kInt16) {
    expect_masked_scans<std::int16_t>(m, n);
  } else {
    expect_masked_scans<Energy>(m, n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MaskedScanProperty,
    ::testing::Combine(::testing::Values(QuboBackend::kDense,
                                         QuboBackend::kCsr),
                       ::testing::Values(std::size_t{1}, std::size_t{63},
                                         std::size_t{65}, std::size_t{1024},
                                         std::size_t{2100}),
                       ::testing::Values(Weight{1}, Weight{1 << 20})));

TEST(SearchState, ScansKeepTheFirstOccurrenceAcrossBlocks) {
  // n = 2100 spans three 1024-slot scan blocks.  With W_kk = -1 and no
  // couplings, Delta_k is +1 for a set bit and -1 for a clear one.  Bits
  // 0..1023 are set except 1000, so the least Delta, -1, first occurs at
  // 1000 and again at every bit of the later blocks: the argmin and the
  // walk's masked argmin must both come from the first block.
  const std::size_t n = 2100;
  for (const QuboBackend backend : {QuboBackend::kDense, QuboBackend::kCsr}) {
    SCOPED_TRACE(to_string(backend));
    QuboBuilder b(n);
    for (VarIndex k = 0; k < n; ++k) b.add_linear(k, -1);
    b.set_backend(backend);
    const QuboModel m = b.build();
    ASSERT_EQ(m.backend(), backend);
    BitVector x(n);
    for (VarIndex k = 0; k < 1024; ++k) x.set(k, k != 1000);
    const std::vector<std::int16_t> off(
        n, std::numeric_limits<std::int16_t>::min());
    SearchState s(m);
    s.reset_to(x);
    EXPECT_EQ(s.scan().argmin, 1000u);
    EXPECT_EQ(s.scan(std::span<const std::int16_t>(off)).masked_arg, 1000u);
    // Flipping bit 5 (set, Delta +1) keeps the picture.
    const MaskedScan after =
        s.flip_and_scan(5, std::span<const std::int16_t>(off));
    EXPECT_EQ(after.scan.min_delta, -1);
    EXPECT_EQ(after.scan.argmin, 5u);  // now clear: Delta_5 = -1
    EXPECT_EQ(after.masked_arg, 5u);
    EXPECT_EQ(s.flip_and_scan(5).argmin, 1000u);
  }
}

TEST(SearchState, MaskedScanRejectsAMaskOfTheWrongWidth) {
  const QuboModel m = random_model(20, 0.5, 9, 701);
  ASSERT_EQ(m.delta_width(), DeltaWidth::kInt16);
  SearchState s(m);
  const std::vector<Energy> wide(20, 0);
  const std::vector<std::int16_t> short_mask(19, 0);
  EXPECT_THROW(s.scan(std::span<const Energy>(wide)), std::invalid_argument);
  EXPECT_THROW(s.scan(std::span<const std::int16_t>(short_mask)),
               std::invalid_argument);
}

}  // namespace
}  // namespace dabs
