// Tests for the seven search algorithms and the tabu rule (paper §III-A).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "evolve/genetic_ops.hpp"
#include "evolve/solution_pool.hpp"
#include "qubo/search_state.hpp"
#include "search/cyclicmin.hpp"
#include "search/greedy.hpp"
#include "search/maxmin.hpp"
#include "search/positivemin.hpp"
#include "search/randommin.hpp"
#include "search/registry.hpp"
#include "search/straight.hpp"
#include "search/tabu_list.hpp"
#include "search/two_neighbor.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using testing::random_model;
using testing::random_solution;

TEST(TabuList, DisabledTenureAllowsEverything) {
  TabuList t(10, 0);
  t.record(3, 5);
  EXPECT_TRUE(t.allowed(3, 5));
  EXPECT_TRUE(t.allowed(3, 6));
}

TEST(TabuList, BlocksForExactlyTenureIterations) {
  TabuList t(10, 8);  // the paper's tenure
  t.record(4, 100);
  for (std::uint64_t now = 101; now <= 108; ++now) {
    EXPECT_FALSE(t.allowed(4, now)) << now;
  }
  EXPECT_TRUE(t.allowed(4, 109));
}

TEST(TabuList, FreshBitsAreAllowed) {
  TabuList t(5, 8);
  for (VarIndex i = 0; i < 5; ++i) EXPECT_TRUE(t.allowed(i, 0));
}

TEST(TabuList, ClearForgetsHistory) {
  TabuList t(5, 8);
  t.record(1, 50);
  EXPECT_FALSE(t.allowed(1, 51));
  t.clear();
  EXPECT_TRUE(t.allowed(1, 51));
}

TEST(Greedy, TerminatesAtLocalMinimum) {
  const QuboModel m = random_model(50, 0.3, 9, 1000);
  SearchState s(m);
  Rng rng(1);
  s.reset_to(random_solution(50, rng));
  greedy_descent(s);
  EXPECT_TRUE(s.is_local_minimum());
}

TEST(Greedy, EveryFlipStrictlyImproves) {
  const QuboModel m = random_model(40, 0.5, 9, 1001);
  SearchState s(m);
  Rng rng(2);
  s.reset_to(random_solution(40, rng));
  Energy prev = s.energy();
  while (!s.is_local_minimum()) {
    greedy_descent(s, 1);
    EXPECT_LT(s.energy(), prev);
    prev = s.energy();
  }
}

TEST(Greedy, MaxFlipsRespected) {
  const QuboModel m = random_model(60, 0.5, 9, 1002);
  SearchState s(m);
  Rng rng(3);
  s.reset_to(random_solution(60, rng));
  const std::uint64_t done = greedy_descent(s, 2);
  EXPECT_LE(done, 2u);
}

TEST(Straight, ReachesTargetInHammingDistanceFlips) {
  const QuboModel m = random_model(64, 0.4, 9, 1003);
  SearchState s(m);
  Rng rng(4);
  s.reset_to(random_solution(64, rng));
  const BitVector target = random_solution(64, rng);
  const std::size_t dist = s.solution().hamming_distance(target);
  const std::uint64_t flips = straight_walk(s, target);
  EXPECT_EQ(flips, dist);
  EXPECT_EQ(s.solution(), target);
}

TEST(Straight, NoopWhenAlreadyAtTarget) {
  const QuboModel m = random_model(20, 0.5, 9, 1004);
  SearchState s(m);
  Rng rng(5);
  const BitVector x = random_solution(20, rng);
  s.reset_to(x);
  EXPECT_EQ(straight_walk(s, x), 0u);
  EXPECT_EQ(s.solution(), x);
}

TEST(Straight, BestCoversPathMinimum) {
  // The walk's BEST must be at least as good as every point it visited.
  const QuboModel m = random_model(32, 0.6, 9, 1005);
  SearchState probe(m);
  Rng rng(6);
  const BitVector start = random_solution(32, rng);
  const BitVector target = random_solution(32, rng);
  probe.reset_to(start);
  straight_walk(probe, target);
  EXPECT_LE(probe.best_energy(), m.energy(start));
  EXPECT_LE(probe.best_energy(), m.energy(target));
}

// All iteration-driven algorithms must perform exactly the requested number
// of flips and leave the state internally consistent.
class MainSearchProperty : public ::testing::TestWithParam<MainSearch> {};

TEST_P(MainSearchProperty, PerformsRequestedFlips) {
  const MainSearch id = GetParam();
  const QuboModel m = random_model(48, 0.4, 9, 1006);
  SearchState s(m);
  Rng rng(7);
  s.reset_to(random_solution(48, rng));
  TabuList tabu(48, 8);
  auto algo = make_search_algorithm(id);
  const std::uint64_t before = s.flip_count();
  algo->run(s, rng, &tabu, 100);
  if (id == MainSearch::kTwoNeighbor) {
    EXPECT_EQ(s.flip_count() - before, 2u * 48 - 1);  // fixed ripple
  } else {
    EXPECT_EQ(s.flip_count() - before, 100u);
  }
}

TEST_P(MainSearchProperty, StateStaysConsistent) {
  const MainSearch id = GetParam();
  const QuboModel m = random_model(30, 0.5, 9, 1007);
  SearchState s(m);
  Rng rng(8);
  s.reset_to(random_solution(30, rng));
  auto algo = make_search_algorithm(id);
  algo->run(s, rng, nullptr, 64);
  EXPECT_EQ(s.energy(), m.energy(s.solution()));
  std::vector<Energy> fresh;
  m.delta_all(s.solution(), fresh);
  for (VarIndex k = 0; k < m.size(); ++k) EXPECT_EQ(s.delta(k), fresh[k]);
}

TEST_P(MainSearchProperty, BestNeverWorseThanStart) {
  const MainSearch id = GetParam();
  const QuboModel m = random_model(36, 0.5, 9, 1008);
  SearchState s(m);
  Rng rng(9);
  const BitVector start = random_solution(36, rng);
  s.reset_to(start);
  auto algo = make_search_algorithm(id);
  algo->run(s, rng, nullptr, 80);
  EXPECT_LE(s.best_energy(), m.energy(start));
  EXPECT_EQ(m.energy(s.best()), s.best_energy());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, MainSearchProperty,
                         ::testing::ValuesIn(kAllMainSearches),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(TwoNeighbor, CoversAllTwoBitNeighbors) {
  // After the ripple, BEST must be <= the best solution within Hamming
  // distance 2 of the start vector.
  const QuboModel m = random_model(14, 0.6, 9, 1009);
  SearchState s(m);
  Rng rng(10);
  const BitVector start = random_solution(14, rng);
  s.reset_to(start);
  TwoNeighborSearch tn;
  tn.run(s, rng, nullptr, 0);

  Energy best2 = m.energy(start);
  for (VarIndex i = 0; i < 14; ++i) {
    BitVector x1 = start;
    x1.flip(i);
    best2 = std::min(best2, m.energy(x1));
    for (VarIndex j = i + 1; j < 14; ++j) {
      BitVector x2 = x1;
      x2.flip(j);
      best2 = std::min(best2, m.energy(x2));
    }
  }
  EXPECT_LE(s.best_energy(), best2);
}

TEST(TwoNeighbor, EndsOneFlipFromStart) {
  // The ripple ends at ...0001-pattern: exactly bit n-1 flipped.
  const QuboModel m = random_model(10, 0.5, 9, 1010);
  SearchState s(m);
  Rng rng(11);
  const BitVector start = random_solution(10, rng);
  s.reset_to(start);
  TwoNeighborSearch tn;
  tn.run(s, rng, nullptr, 0);
  EXPECT_EQ(s.solution().hamming_distance(start), 1u);
  EXPECT_NE(s.solution().get(9), start.get(9));
}

TEST(CyclicMin, PermanentTabuForcesAllDistinctFlips) {
  const QuboModel m = random_model(12, 0.5, 9, 1012);
  SearchState s(m);
  Rng rng(13);
  const BitVector start = random_solution(12, rng);
  s.reset_to(start);
  TabuList tabu(12, 100000);
  CyclicMinSearch cm(12);
  cm.run(s, rng, &tabu, 12);
  // Every bit flipped exactly once -> Hamming distance n from the start.
  EXPECT_EQ(s.solution().hamming_distance(start), 12u);
}

TEST(CyclicMin, WindowPositionAdvances) {
  const QuboModel m = random_model(20, 0.5, 9, 1013);
  SearchState s(m);
  Rng rng(14);
  s.reset_to(random_solution(20, rng));
  CyclicMinSearch cm(4);
  const std::size_t before = cm.window_position();
  cm.run(s, rng, nullptr, 3);
  EXPECT_NE(cm.window_position(), before);
}

TEST(MaxMin, LateIterationsAreNearlyGreedy) {
  // In the final iteration u = 0, so the threshold collapses to minDelta
  // and the flipped bit must attain it.
  const QuboModel m = random_model(24, 0.5, 9, 1014);
  SearchState s(m);
  Rng rng(15);
  s.reset_to(random_solution(24, rng));
  MaxMinSearch mm;
  // Run exactly one iteration with T = 1: t = T = 1, u = 0, d = minDelta.
  const Energy e_before = s.energy();
  const Energy expected_min = s.scan().min_delta;
  mm.run(s, rng, nullptr, 1);
  EXPECT_EQ(s.energy(), e_before + expected_min);
}

TEST(PositiveMin, FlipsOnlyCandidateBits) {
  // Every flip must have Delta <= posmin (the cheapest strictly positive
  // Delta) at the time of the flip.  Verify via energy bound: a single
  // iteration can never increase E by more than the current posmin.
  const QuboModel m = random_model(28, 0.5, 9, 1015);
  SearchState s(m);
  Rng rng(16);
  s.reset_to(random_solution(28, rng));
  PositiveMinSearch pm;
  for (int it = 0; it < 50; ++it) {
    Energy posmin = std::numeric_limits<Energy>::max();
    for (VarIndex k = 0; k < 28; ++k) {
      const Energy d = s.delta(k);
      if (d > 0 && d < posmin) posmin = d;
    }
    const Energy before = s.energy();
    pm.run(s, rng, nullptr, 1);
    if (posmin != std::numeric_limits<Energy>::max()) {
      EXPECT_LE(s.energy() - before, posmin);
    }
  }
}

TEST(RandomMin, WithFullProbabilityActsGreedy) {
  // min_candidates >= n forces p(t) = 1: every bit is a candidate, so the
  // flip must attain the global minimum Delta.
  const QuboModel m = random_model(26, 0.5, 9, 1016);
  SearchState s(m);
  Rng rng(17);
  s.reset_to(random_solution(26, rng));
  RandomMinSearch rm(26);
  const Energy e = s.energy();
  const Energy mn = s.scan().min_delta;
  rm.run(s, rng, nullptr, 1);
  EXPECT_EQ(s.energy(), e + mn);
}

// ---------------------------------------------------------------------------
// Differential test of Step 2.  The production algorithms select with
// word-at-a-time candidate masks; the reference loops below are the scalar
// per-bit selection they replaced, kept as the specification.  Each
// reference also counts how often it took its fallback branch so the edge
// cases can prove they were reached.
namespace ref {

class RandomMin final : public SearchAlgorithm {
 public:
  explicit RandomMin(std::uint32_t min_candidates = 32)
      : min_candidates_(min_candidates) {}
  int fallbacks = 0;

  void run(SearchState& state, Rng& rng, TabuList* tabu,
           std::uint64_t iterations) override {
    const auto n = static_cast<VarIndex>(state.size());
    const std::uint64_t T = iterations;
    if (T == 0) return;
    ScanResult s = state.scan();
    for (std::uint64_t t = 1; t <= T; ++t) {
      const double frac = double(t) / double(T);
      const double p =
          std::max(frac * frac * frac, double(min_candidates_) / double(n));
      VarIndex pick = n;
      Energy best_d = std::numeric_limits<Energy>::max();
      const std::uint64_t now = state.flip_count();
      for (VarIndex k = 0; k < n; ++k) {
        if (!rng.next_bernoulli(p)) continue;
        if (tabu && !tabu->allowed(k, now)) continue;
        const Energy d = state.delta(k);
        if (d < best_d) {
          best_d = d;
          pick = k;
        }
      }
      if (pick == n) {
        ++fallbacks;
        pick = s.argmin;
      }
      if (tabu) tabu->record(pick, now + 1);
      s = state.flip_and_scan(pick);
    }
  }

 private:
  std::uint32_t min_candidates_;
};

class MaxMin final : public SearchAlgorithm {
 public:
  int fallbacks = 0;

  void run(SearchState& state, Rng& rng, TabuList* tabu,
           std::uint64_t iterations) override {
    const std::uint64_t T = iterations;
    if (T == 0) return;
    ScanResult s = state.scan();
    for (std::uint64_t t = 1; t <= T; ++t) {
      const double u = double(T - t) / double(T);
      const double u3 = u * u * u;
      const double upper =
          (1.0 - u3) * double(s.min_delta) + u3 * double(s.max_delta);
      const double d = double(s.min_delta) +
                       rng.next_unit() * (upper - double(s.min_delta));
      VarIndex pick = sample_below(state, d, rng, tabu, state.flip_count());
      if (pick == state.size()) {
        ++fallbacks;
        pick = sample_below(state, d, rng, nullptr, state.flip_count());
      }
      if (tabu) tabu->record(pick, state.flip_count() + 1);
      s = state.flip_and_scan(pick);
    }
  }

 private:
  static VarIndex sample_below(const SearchState& state, double d, Rng& rng,
                               const TabuList* tabu, std::uint64_t now) {
    const auto n = static_cast<VarIndex>(state.size());
    VarIndex pick = n;
    std::uint64_t seen = 0;
    for (VarIndex k = 0; k < n; ++k) {
      if (double(state.delta(k)) > d) continue;
      if (tabu && !tabu->allowed(k, now)) continue;
      ++seen;
      if (rng.next_index(seen) == 0) pick = k;
    }
    return pick;
  }
};

class PositiveMin final : public SearchAlgorithm {
 public:
  int fallbacks = 0;

  void run(SearchState& state, Rng& rng, TabuList* tabu,
           std::uint64_t iterations) override {
    const auto n = static_cast<VarIndex>(state.size());
    if (iterations == 0) return;
    state.scan();
    for (std::uint64_t t = 1; t <= iterations; ++t) {
      Energy posmin = std::numeric_limits<Energy>::max();
      for (VarIndex k = 0; k < n; ++k) {
        const Energy d = state.delta(k);
        if (d > 0 && d < posmin) posmin = d;
      }
      const std::uint64_t now = state.flip_count();
      VarIndex pick = n;
      VarIndex pick_any = n;
      std::uint64_t seen = 0, seen_any = 0;
      for (VarIndex k = 0; k < n; ++k) {
        if (state.delta(k) > posmin) continue;
        ++seen_any;
        if (rng.next_index(seen_any) == 0) pick_any = k;
        if (tabu && !tabu->allowed(k, now)) continue;
        ++seen;
        if (rng.next_index(seen) == 0) pick = k;
      }
      if (pick == n) {
        ++fallbacks;
        pick = pick_any;
      }
      if (tabu) tabu->record(pick, now + 1);
      state.flip_and_scan(pick);
    }
  }
};

class CyclicMin final : public SearchAlgorithm {
 public:
  explicit CyclicMin(std::uint32_t min_window = 32, bool bit_permuted = false)
      : min_window_(min_window), bit_permuted_(bit_permuted) {}
  int fallbacks = 0;
  int wraps = 0;
  std::size_t window_position() const { return pos_; }

  void run(SearchState& state, Rng& rng, TabuList* tabu,
           std::uint64_t iterations) override {
    const auto n = state.size();
    const std::uint64_t T = iterations;
    if (T == 0) return;
    if (bit_permuted_) {
      if (perm_.size() != n) {
        perm_.resize(n);
        std::iota(perm_.begin(), perm_.end(), 0);
      }
      for (std::size_t i = n - 1; i > 0; --i) {
        std::swap(perm_[i], perm_[rng.next_index(i + 1)]);
      }
    }
    state.scan();
    for (std::uint64_t t = 1; t <= T; ++t) {
      const double frac = double(t) / double(T);
      const auto width = std::clamp<std::size_t>(
          static_cast<std::size_t>(frac * frac * frac * double(n)),
          std::min<std::size_t>(min_window_, n), n);
      if (pos_ % n + width > n) ++wraps;
      VarIndex pick = static_cast<VarIndex>(n);
      VarIndex pick_any = static_cast<VarIndex>(n);
      Energy best_d = std::numeric_limits<Energy>::max();
      Energy best_any = std::numeric_limits<Energy>::max();
      const std::uint64_t now = state.flip_count();
      for (std::size_t o = 0; o < width; ++o) {
        const std::size_t slot = (pos_ + o) % n;
        const auto k =
            bit_permuted_ ? perm_[slot] : static_cast<VarIndex>(slot);
        const Energy d = state.delta(k);
        if (d < best_any) {
          best_any = d;
          pick_any = k;
        }
        if ((!tabu || tabu->allowed(k, now)) && d < best_d) {
          best_d = d;
          pick = k;
        }
      }
      if (pick == n) {
        ++fallbacks;
        pick = pick_any;
      }
      if (tabu) tabu->record(pick, now + 1);
      state.flip_and_scan(pick);
      pos_ = (pos_ + width) % n;
    }
  }

 private:
  std::uint32_t min_window_;
  bool bit_permuted_;
  std::size_t pos_ = 0;
  std::vector<VarIndex> perm_;
};

std::uint64_t straight_walk(SearchState& state, const BitVector& target) {
  std::uint64_t flips = 0;
  const auto n = static_cast<VarIndex>(state.size());
  state.scan();
  for (;;) {
    Energy diff_min = std::numeric_limits<Energy>::max();
    VarIndex diff_arg = n;
    const auto& x = state.solution();
    for (VarIndex k = 0; k < n; ++k) {
      if (x.get(k) != target.get(k) && state.delta(k) < diff_min) {
        diff_min = state.delta(k);
        diff_arg = k;
      }
    }
    if (diff_arg == n) break;
    state.flip_and_scan(diff_arg);
    ++flips;
  }
  return flips;
}

}  // namespace ref

/// Last flip clock of every bit, read back through allowed(): a bit last
/// recorded at clock c is blocked exactly at clocks <= c + tenure.  -1
/// marks a bit never recorded.  `horizon` bounds every recorded clock.
std::vector<std::int64_t> tabu_clock(const TabuList& tabu, std::size_t n,
                                     std::uint64_t horizon) {
  std::vector<std::int64_t> clock(n, -1);
  if (tabu.tenure() == 0) return clock;
  for (VarIndex k = 0; k < n; ++k) {
    if (tabu.allowed(k, 0)) continue;
    std::uint64_t lo = 0, hi = horizon + tabu.tenure();  // blocked at lo
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo + 1) / 2;
      if (tabu.allowed(k, mid)) {
        hi = mid - 1;
      } else {
        lo = mid;
      }
    }
    clock[k] = static_cast<std::int64_t>(lo) - tabu.tenure();
  }
  return clock;
}

/// One side of a differential run: state, generator and tabu list.
struct Side {
  Side(const QuboModel& m, const BitVector& start, std::uint64_t seed,
       std::uint32_t tenure)
      : state(m), rng(seed), tabu(m.size(), tenure) {
    state.reset_to(start);
  }
  SearchState state;
  Rng rng;
  TabuList tabu;
};

/// Everything a flip sequence leaves behind: the current and best vectors
/// and energies, the flip clock, the generator state and the tabu clock.
void expect_same_walk(const Side& got, const Side& want) {
  EXPECT_EQ(got.state.solution(), want.state.solution());
  EXPECT_EQ(got.state.energy(), want.state.energy());
  EXPECT_EQ(got.state.best(), want.state.best());
  EXPECT_EQ(got.state.best_energy(), want.state.best_energy());
  EXPECT_EQ(got.state.flip_count(), want.state.flip_count());
  EXPECT_EQ(got.rng.state(), want.rng.state());
  const std::size_t n = got.state.size();
  EXPECT_EQ(tabu_clock(got.tabu, n, got.state.flip_count()),
            tabu_clock(want.tabu, n, want.state.flip_count()));
}

/// Runs `got` and `want` side by side through a schedule of run() calls
/// and compares after each.  Single-iteration calls pin the flipped bit
/// itself; longer calls exercise the t/T schedules.  With tenure 0 every
/// other call passes no tabu list at all.
void expect_same_runs(SearchAlgorithm& got_algo, SearchAlgorithm& want_algo,
                      const QuboModel& m, std::uint32_t tenure,
                      std::uint64_t seed,
                      std::initializer_list<std::uint64_t> schedule) {
  Rng start_rng(seed);
  const BitVector start = random_solution(m.size(), start_rng);
  Side got(m, start, seed + 1, tenure), want(m, start, seed + 1, tenure);
  int call = 0;
  for (const std::uint64_t T : schedule) {
    SCOPED_TRACE("call " + std::to_string(call) + " T=" + std::to_string(T));
    const bool no_list = tenure == 0 && call++ % 2 == 1;
    const BitVector before = got.state.solution();
    got_algo.run(got.state, got.rng, no_list ? nullptr : &got.tabu, T);
    want_algo.run(want.state, want.rng, no_list ? nullptr : &want.tabu, T);
    if (T == 1) {
      EXPECT_EQ(got.state.solution().first_difference(before),
                want.state.solution().first_difference(before));
    }
    expect_same_walk(got, want);
  }
}

constexpr std::initializer_list<std::uint64_t> kSchedule = {1, 1, 2, 5,
                                                            17, 64, 3, 150};

using DiffParam = std::tuple<QuboBackend, std::size_t, std::uint32_t>;

class Step2Differential : public ::testing::TestWithParam<DiffParam> {
 protected:
  QuboModel model() const {
    const auto [backend, n, tenure] = GetParam();
    return random_model(n, backend == QuboBackend::kDense ? 0.5 : 0.08, 9,
                        2000 + n, backend);
  }
  std::uint32_t tenure() const { return std::get<2>(GetParam()); }
};

TEST_P(Step2Differential, RandomMin) {
  const QuboModel m = model();
  RandomMinSearch got;
  ref::RandomMin want;
  expect_same_runs(got, want, m, tenure(), 31, kSchedule);
}

TEST_P(Step2Differential, MaxMin) {
  const QuboModel m = model();
  MaxMinSearch got;
  ref::MaxMin want;
  expect_same_runs(got, want, m, tenure(), 32, kSchedule);
}

TEST_P(Step2Differential, PositiveMin) {
  const QuboModel m = model();
  PositiveMinSearch got;
  ref::PositiveMin want;
  expect_same_runs(got, want, m, tenure(), 33, kSchedule);
}

TEST_P(Step2Differential, CyclicMin) {
  const QuboModel m = model();
  CyclicMinSearch got;
  ref::CyclicMin want;
  expect_same_runs(got, want, m, tenure(), 34, kSchedule);
  EXPECT_EQ(got.window_position(), want.window_position());
}

TEST_P(Step2Differential, CyclicMinBitPermuted) {
  const QuboModel m = model();
  CyclicMinSearch got(32, true);
  ref::CyclicMin want(32, true);
  expect_same_runs(got, want, m, tenure(), 35, kSchedule);
  EXPECT_EQ(got.window_position(), want.window_position());
}

// The walk has no tabu list, so it runs once per backend and size.
class StraightWalkDifferential : public Step2Differential {};

TEST_P(StraightWalkDifferential, MatchesReference) {
  const QuboModel m = model();
  Rng rng(36);
  for (int trial = 0; trial < 12; ++trial) {
    const BitVector start = random_solution(m.size(), rng);
    // Mostly random targets, plus the degenerate ones: the start itself,
    // its complement, and one bit away.
    BitVector target = random_solution(m.size(), rng);
    if (trial == 0) target = start;
    if (trial == 1) {
      target = start;
      for (std::size_t i = 0; i < m.size(); ++i) target.flip(i);
    }
    if (trial == 2) {
      target = start;
      target.flip(m.size() - 1);
    }
    Side got(m, start, 1, 0), want(m, start, 1, 0);
    const std::uint64_t got_flips = straight_walk(got.state, target);
    const std::uint64_t want_flips = ref::straight_walk(want.state, target);
    EXPECT_EQ(got_flips, want_flips) << trial;
    expect_same_walk(got, want);
  }
}

std::string diff_param_name(
    const ::testing::TestParamInfo<DiffParam>& info) {
  return std::string(to_string(std::get<0>(info.param))) + "_n" +
         std::to_string(std::get<1>(info.param)) + "_tenure" +
         std::to_string(std::get<2>(info.param));
}

const auto kBackends =
    ::testing::Values(QuboBackend::kDense, QuboBackend::kCsr);
const auto kSizes =
    ::testing::Values(std::size_t{63}, std::size_t{64}, std::size_t{130});

INSTANTIATE_TEST_SUITE_P(DenseAndCsr, Step2Differential,
                         ::testing::Combine(kBackends, kSizes,
                                            ::testing::Values(0u, 8u)),
                         diff_param_name);

INSTANTIATE_TEST_SUITE_P(DenseAndCsr, StraightWalkDifferential,
                         ::testing::Combine(kBackends, kSizes,
                                            ::testing::Values(0u)),
                         diff_param_name);

TEST(Step2DifferentialEdge, CyclicMinWindowsWrap) {
  // Minimum width 50 on 63 bits: every window after the first wraps.
  const QuboModel m = random_model(63, 0.5, 9, 2100, QuboBackend::kDense);
  CyclicMinSearch got(50);
  ref::CyclicMin want(50);
  expect_same_runs(got, want, m, 8, 37, {4, 4, 7, 1});
  EXPECT_GT(want.wraps, 0);
  EXPECT_EQ(got.window_position(), want.window_position());
}

TEST(Step2DifferentialEdge, CyclicMinWindowsAllTabu) {
  // A tenure longer than the run makes every flipped bit permanently
  // tabu, so narrow windows soon hold only tabu bits.
  for (const bool permuted : {false, true}) {
    const QuboModel m = random_model(64, 0.08, 9, 2101, QuboBackend::kCsr);
    CyclicMinSearch got(8, permuted);
    ref::CyclicMin want(8, permuted);
    expect_same_runs(got, want, m, 100000, 38, {200, 1, 90});
    EXPECT_GT(want.fallbacks, 0) << permuted;
  }
}

TEST(Step2DifferentialEdge, CyclicMinReusedOnSmallerModel) {
  // A 130-bit model leaves the window at position 80, past the end of
  // the smaller model; the next run must wrap it, not index past Delta.
  // On 30 bits an unwrapped window would reach far beyond Delta.
  const QuboModel big = random_model(130, 0.5, 9, 2102, QuboBackend::kDense);
  for (const std::size_t small_n : {63u, 30u}) {
    SCOPED_TRACE(small_n);
    const QuboModel small =
        random_model(small_n, 0.5, 9, 2103, QuboBackend::kDense);
    CyclicMinSearch got(40);
    ref::CyclicMin want(40);
    expect_same_runs(got, want, big, 0, 39, {3});
    ASSERT_GE(want.window_position(), small.size());
    expect_same_runs(got, want, small, 8, 40, {5, 1, 30});
    EXPECT_EQ(got.window_position(), want.window_position());
  }
}

TEST(Step2DifferentialEdge, RandomMinAtFullProbability) {
  // min_candidates >= n: p(t) = 1 in every iteration.
  const QuboModel m = random_model(130, 0.5, 9, 2104, QuboBackend::kDense);
  RandomMinSearch got(200);
  ref::RandomMin want(200);
  expect_same_runs(got, want, m, 8, 41, {1, 20, 100});
}

TEST(Step2DifferentialEdge, RandomMinAtTheFloor) {
  // Long runs spend their early iterations at the c/n floor; c = 1 draws
  // one candidate per iteration on average, so some iterations draw none
  // and fall back to the global argmin.
  for (const std::uint32_t c : {1u, 32u}) {
    const QuboModel m = random_model(130, 0.08, 9, 2105, QuboBackend::kCsr);
    RandomMinSearch got(c);
    ref::RandomMin want(c);
    expect_same_runs(got, want, m, 8, 42, {400, 300});
    if (c == 1) {
      EXPECT_GT(want.fallbacks, 0);
    }
  }
}

TEST(Step2DifferentialEdge, MaxMinAllTabuFallback) {
  // Permanent tabu: once the cheap bits are spent, every bit under the
  // threshold is tabu and the draw is retried without the list.
  const QuboModel m = random_model(64, 0.5, 9, 2106, QuboBackend::kDense);
  MaxMinSearch got;
  ref::MaxMin want;
  expect_same_runs(got, want, m, 100000, 43, {200, 1, 150});
  EXPECT_GT(want.fallbacks, 0);
}

TEST(Step2DifferentialEdge, PositiveMinAllTabuFallback) {
  const QuboModel m = random_model(64, 0.5, 9, 2107, QuboBackend::kDense);
  PositiveMinSearch got;
  ref::PositiveMin want;
  expect_same_runs(got, want, m, 100000, 44, {200, 1, 150});
  EXPECT_GT(want.fallbacks, 0);
}

// straight_walk builds its candidate mask as x ^ target word by word, so
// every producer of targets must keep the bits past size() zero.
bool tail_is_zero(const BitVector& v) {
  const std::size_t rem = v.size() % 64;
  return rem == 0 || (v.words()[v.word_count() - 1] >> rem) == 0;
}

TEST(TargetTail, ProducersKeepBitsPastSizeZero) {
  Rng rng(45);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 130u}) {
    SCOPED_TRACE(n);
    EXPECT_TRUE(tail_is_zero(BitVector::from_string(std::string(n, '1'))));
    BitVector filled(n);
    filled.fill(true);
    EXPECT_TRUE(tail_is_zero(filled));
    EXPECT_EQ(filled.count(), n);
    EXPECT_TRUE(tail_is_zero(random_bit_vector(n, rng)));
    SolutionPool pool(8, n), neighbor(8, n);
    pool.initialize_random(rng);
    neighbor.initialize_random(rng);
    for (std::size_t op = 0; op < kGeneticOpCount; ++op) {
      for (int rep = 0; rep < 4; ++rep) {
        EXPECT_TRUE(tail_is_zero(apply_genetic_op(
            static_cast<GeneticOp>(op), n, pool, &neighbor, rng)))
            << to_string(static_cast<GeneticOp>(op));
      }
    }
  }
}

TEST(Registry, NamesAreUniqueAndStable) {
  std::set<std::string_view> names;
  for (const MainSearch a : kAllMainSearches) {
    names.insert(to_string(a));
  }
  EXPECT_EQ(names.size(), kMainSearchCount);
  EXPECT_EQ(to_string(MainSearch::kCyclicMin), "CyclicMin");
}

TEST(Registry, FactoryProducesEveryAlgorithm) {
  for (const MainSearch a : kAllMainSearches) {
    EXPECT_NE(make_search_algorithm(a), nullptr);
  }
}

}  // namespace
}  // namespace dabs
