// Tests for the comparator solvers: exhaustive ground truth, SA, tabu
// search, greedy restart.
#include <gtest/gtest.h>

#include "baseline/exhaustive.hpp"
#include "baseline/greedy_restart.hpp"
#include "baseline/simulated_annealing.hpp"
#include "baseline/tabu_search.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using testing::naive_energy;
using testing::random_model;
using testing::solve_on;

// Brute-force reference completely independent of the library internals.
Energy dumb_optimum(const QuboModel& m) {
  const std::size_t n = m.size();
  Energy best = kInfiniteEnergy;
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << n); ++bits) {
    BitVector x(n);
    for (std::size_t i = 0; i < n; ++i) x.set(i, (bits >> i) & 1);
    best = std::min(best, naive_energy(m, x));
  }
  return best;
}

TEST(Exhaustive, MatchesDumbEnumeration) {
  for (int n : {1, 2, 3, 7, 12}) {
    const QuboModel m = random_model(n, 0.6, 9, 5000 + n);
    const SolveReport r = solve_on(ExhaustiveSolver(), m);
    EXPECT_EQ(r.best_energy, dumb_optimum(m)) << "n=" << n;
    EXPECT_EQ(m.energy(r.best_solution), r.best_energy);
    EXPECT_EQ(r.flips, (std::uint64_t{1} << n) - 1);
  }
}

TEST(Exhaustive, RefusesOversizedModels) {
  const QuboModel m = random_model(30, 0.1, 3, 5050);
  EXPECT_THROW((void)solve_on(ExhaustiveSolver(26), m), std::invalid_argument);
}

TEST(SimulatedAnnealing, FindsOptimumOnSmallModel) {
  const QuboModel m = random_model(16, 0.6, 9, 5100);
  const Energy truth = solve_on(ExhaustiveSolver(), m).best_energy;
  SaParams p;
  p.sweeps = 300;
  p.restarts = 5;
  p.seed = 3;
  const SolveReport r = solve_on(SimulatedAnnealing(p), m);
  EXPECT_EQ(r.best_energy, truth);
  EXPECT_EQ(m.energy(r.best_solution), r.best_energy);
}

TEST(SimulatedAnnealing, MoreSweepsNeverHurtOnAverage) {
  // Not a strict guarantee per-seed, so compare best-of-5 seeds.
  const QuboModel m = random_model(60, 0.3, 9, 5101);
  Energy quick_best = kInfiniteEnergy, long_best = kInfiniteEnergy;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SaParams quick{.sweeps = 10, .seed = seed};
    SaParams slow{.sweeps = 500, .seed = seed};
    quick_best = std::min(quick_best,
                          solve_on(SimulatedAnnealing(quick), m).best_energy);
    long_best = std::min(long_best,
                         solve_on(SimulatedAnnealing(slow), m).best_energy);
  }
  EXPECT_LE(long_best, quick_best);
}

TEST(SimulatedAnnealing, TimeLimitShortensRun) {
  const QuboModel m = random_model(200, 0.5, 9, 5102);
  SaParams p;
  p.sweeps = 100000;
  p.restarts = 100;
  p.time_limit_seconds = 0.1;
  const SolveReport r = solve_on(SimulatedAnnealing(p), m);
  EXPECT_LT(r.elapsed_seconds, 5.0);
}

TEST(SimulatedAnnealing, RejectsBadParams) {
  EXPECT_THROW(SimulatedAnnealing(SaParams{.sweeps = 0}),
               std::invalid_argument);
  EXPECT_THROW(SimulatedAnnealing(SaParams{.t_final = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(SimulatedAnnealing(SaParams{.restarts = 0}),
               std::invalid_argument);
}

TEST(TabuSearchBaseline, FindsOptimumOnSmallModel) {
  const QuboModel m = random_model(14, 0.6, 9, 5200);
  const Energy truth = solve_on(ExhaustiveSolver(), m).best_energy;
  TabuSearchParams p;
  p.iterations = 5000;
  p.seed = 5;
  const SolveReport r = solve_on(TabuSearch(p), m);
  EXPECT_EQ(r.best_energy, truth);
}

TEST(TabuSearchBaseline, ResultEnergyIsConsistent) {
  const QuboModel m = random_model(50, 0.4, 9, 5201);
  const SolveReport r = solve_on(TabuSearch({.iterations = 2000}), m);
  EXPECT_EQ(m.energy(r.best_solution), r.best_energy);
}

TEST(GreedyRestartBaseline, FindsOptimumWithManyRestarts) {
  const QuboModel m = random_model(12, 0.6, 9, 5300);
  const Energy truth = solve_on(ExhaustiveSolver(), m).best_energy;
  const SolveReport r = solve_on(GreedyRestart({.restarts = 500}), m);
  EXPECT_EQ(r.best_energy, truth);
}

TEST(GreedyRestartBaseline, BestIsAlwaysALocalMinimumEnergy) {
  const QuboModel m = random_model(40, 0.4, 9, 5301);
  const SolveReport r = solve_on(GreedyRestart({.restarts = 10}), m);
  // Verify 1-flip local minimality of the reported solution.
  for (VarIndex k = 0; k < m.size(); ++k) {
    EXPECT_GE(m.delta(r.best_solution, k), 0);
  }
}

TEST(EnergyGap, MatchesPaperConvention) {
  // Paper: Gurobi found -33241 vs potential optimum -33337 -> 0.287 % gap.
  EXPECT_NEAR(energy_gap(-33241, -33337), 0.00287, 0.0001);
  EXPECT_DOUBLE_EQ(energy_gap(-100, -100), 0.0);
  EXPECT_DOUBLE_EQ(energy_gap(0, 0), 0.0);
}

}  // namespace
}  // namespace dabs
