// Tests for model transforms (variable fixing, sub-QUBO extraction), the
// SubQUBO hybrid comparator, warm starts, the TTS confidence formula, and
// the bit-permuted CyclicMin variant.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "baseline/exhaustive.hpp"
#include "baseline/subqubo_solver.hpp"
#include "core/campaign.hpp"
#include "core/dabs_solver.hpp"
#include "qubo/search_state.hpp"
#include "qubo/transforms.hpp"
#include "search/cyclicmin.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using testing::random_model;
using testing::random_solution;
using testing::solve_on;

TEST(FixVariable, EnergyIdentityOverAllAssignments) {
  const QuboModel m = random_model(8, 0.7, 9, 10000);
  for (const bool value : {false, true}) {
    for (VarIndex fixed = 0; fixed < 8; ++fixed) {
      const FixedModel fm = fix_variable(m, fixed, value);
      ASSERT_EQ(fm.model.size(), 7u);
      // Every reduced assignment must reproduce the full energy.
      for (std::uint64_t bits = 0; bits < (1u << 7); ++bits) {
        BitVector reduced(7), full(8);
        full.set(fixed, value);
        for (std::size_t s = 0; s < 7; ++s) {
          const bool b = (bits >> s) & 1;
          reduced.set(s, b);
          full.set(fm.mapping[s], b);
        }
        ASSERT_EQ(fm.model.energy(reduced) + fm.offset, m.energy(full))
            << "fixed=" << fixed << " value=" << value;
      }
    }
  }
}

TEST(FixVariable, RejectsDegenerateCases) {
  const QuboModel m = random_model(4, 0.5, 3, 10001);
  EXPECT_THROW((void)fix_variable(m, 4, true), std::invalid_argument);
  QuboBuilder b(1);
  b.add_linear(0, 1);
  const QuboModel one = b.build();
  EXPECT_THROW((void)fix_variable(one, 0, true), std::invalid_argument);
}

TEST(SubQubo, EnergyIdentityForAllSubsetAssignments) {
  const QuboModel m = random_model(12, 0.6, 9, 10002);
  Rng rng(1);
  const BitVector x = random_solution(12, rng);
  const std::vector<VarIndex> subset = {2, 5, 7, 11};
  const SubQubo sub = extract_subqubo(m, x, subset);
  ASSERT_EQ(sub.model.size(), 4u);
  for (std::uint64_t bits = 0; bits < 16; ++bits) {
    BitVector y(4);
    for (std::size_t s = 0; s < 4; ++s) y.set(s, (bits >> s) & 1);
    const BitVector full = apply_subsolution(x, sub, y);
    EXPECT_EQ(sub.model.energy(y) + sub.offset, m.energy(full));
  }
}

TEST(SubQubo, FullSubsetReproducesTheModel) {
  const QuboModel m = random_model(6, 0.8, 5, 10003);
  Rng rng(2);
  const BitVector x = random_solution(6, rng);
  std::vector<VarIndex> all(6);
  std::iota(all.begin(), all.end(), 0);
  const SubQubo sub = extract_subqubo(m, x, all);
  EXPECT_EQ(sub.offset, 0);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVector y = random_solution(6, rng);
    EXPECT_EQ(sub.model.energy(y), m.energy(y));
  }
}

TEST(SubQubo, RejectsBadSubsets) {
  const QuboModel m = random_model(5, 0.5, 3, 10004);
  Rng rng(3);
  const BitVector x = random_solution(5, rng);
  EXPECT_THROW((void)extract_subqubo(m, x, {}), std::invalid_argument);
  EXPECT_THROW((void)extract_subqubo(m, x, {1, 1}), std::invalid_argument);
  EXPECT_THROW((void)extract_subqubo(m, x, {7}), std::invalid_argument);
}

TEST(SubQuboSolver, MonotonicallyImprovesToGoodSolutions) {
  const QuboModel m = random_model(30, 0.5, 9, 10005);
  SubQuboParams p;
  p.subset_size = 12;
  p.iterations = 60;
  p.seed = 4;
  const SolveReport r = solve_on(SubQuboSolver(p), m);
  EXPECT_EQ(m.energy(r.best_solution), r.best_energy);
  EXPECT_LT(r.best_energy, 0);
}

TEST(SubQuboSolver, FindsOptimumWhenSubsetCoversModel) {
  const QuboModel m = random_model(14, 0.6, 9, 10006);
  const Energy truth = solve_on(ExhaustiveSolver(), m).best_energy;
  SubQuboParams p;
  p.subset_size = 14;  // one exact solve of the whole model
  p.iterations = 2;
  const SolveReport r = solve_on(SubQuboSolver(p), m);
  EXPECT_EQ(r.best_energy, truth);
}

TEST(SubQuboSolver, RejectsBadParams) {
  EXPECT_THROW(SubQuboSolver(SubQuboParams{.subset_size = 1}),
               std::invalid_argument);
  EXPECT_THROW(SubQuboSolver(SubQuboParams{.subset_size = 40}),
               std::invalid_argument);
  EXPECT_THROW(SubQuboSolver(SubQuboParams{.iterations = 0}),
               std::invalid_argument);
}

TEST(WarmStart, SeedsPoolsAndGlobalBest) {
  const QuboModel m = random_model(20, 0.5, 9, 10010);
  // A strong warm start: run greedy offline.
  SearchState s(m);
  Rng rng(5);
  s.reset_to(random_solution(20, rng));
  while (!s.is_local_minimum()) {
    const auto scan = s.scan();
    if (scan.min_delta >= 0) break;
    s.flip(scan.argmin);
  }
  const BitVector warm = s.solution();
  const Energy warm_e = s.energy();

  SolverConfig c;
  c.devices = 2;
  c.device.blocks = 1;
  c.mode = ExecutionMode::kSynchronous;
  c.warm_start = {warm};
  c.stop.max_batches = 1;  // almost no search: the result must come from
                           // the warm start if the single batch is worse
  const SolveReport r = solve_on(DabsSolver(c), m);
  EXPECT_LE(r.best_energy, warm_e);
}

TEST(WarmStart, TargetReachedImmediatelyByWarmStart) {
  const QuboModel m = random_model(16, 0.6, 9, 10011);
  const SolveReport truth = solve_on(ExhaustiveSolver(), m);
  SolverConfig c;
  c.devices = 1;
  c.device.blocks = 1;
  c.mode = ExecutionMode::kSynchronous;
  c.warm_start = {truth.best_solution};
  c.stop.target_energy = truth.best_energy;
  c.stop.max_batches = 10;
  const SolveReport r = solve_on(DabsSolver(c), m);
  EXPECT_TRUE(r.reached_target);
  EXPECT_EQ(r.best_energy, truth.best_energy);
  EXPECT_LT(r.tts_seconds, 0.1);
}

TEST(WarmStart, RejectsWrongLength) {
  const QuboModel m = random_model(10, 0.5, 5, 10012);
  SolverConfig c;
  c.devices = 1;
  c.mode = ExecutionMode::kSynchronous;
  c.warm_start = {BitVector(9)};
  c.stop.max_batches = 5;
  EXPECT_THROW((void)solve_on(DabsSolver(c), m), std::invalid_argument);
}

TEST(TtsConfidence, MatchesClosedForm) {
  // s = 0.5, t = 1s, p = 0.99: TTS = ln(0.01)/ln(0.5) ~= 6.64 trials.
  EXPECT_NEAR(tts_at_confidence(1.0, 0.5, 0.99),
              std::log(0.01) / std::log(0.5), 1e-9);
  EXPECT_DOUBLE_EQ(tts_at_confidence(2.5, 1.0), 2.5);
  EXPECT_TRUE(std::isinf(tts_at_confidence(1.0, 0.0)));
  EXPECT_THROW((void)tts_at_confidence(1.0, 0.5, 1.5),
               std::invalid_argument);
}

TEST(BitPermutedCyclicMin, RunsAndStaysConsistent) {
  const QuboModel m = random_model(40, 0.5, 9, 10013);
  SearchState s(m);
  Rng rng(6);
  s.reset_to(random_solution(40, rng));
  CyclicMinSearch cm(8, /*bit_permuted=*/true);
  EXPECT_TRUE(cm.bit_permuted());
  cm.run(s, rng, nullptr, 64);
  EXPECT_EQ(s.energy(), m.energy(s.solution()));
  std::vector<Energy> fresh;
  m.delta_all(s.solution(), fresh);
  for (VarIndex k = 0; k < 40; ++k) EXPECT_EQ(s.delta(k), fresh[k]);
}

TEST(BitPermutedCyclicMin, PermutedAndPlainDiverge) {
  const QuboModel m = random_model(30, 0.5, 9, 10014);
  SearchState a(m), b(m);
  Rng rng_seed(7);
  const BitVector start = random_solution(30, rng_seed);
  a.reset_to(start);
  b.reset_to(start);
  Rng ra(9), rb(9);
  CyclicMinSearch plain(4, false), permuted(4, true);
  plain.run(a, ra, nullptr, 20);
  permuted.run(b, rb, nullptr, 20);
  // Identical RNG streams but different bit orders: walks differ (with
  // overwhelming probability on a random model).
  EXPECT_NE(a.solution(), b.solution());
}

}  // namespace
}  // namespace dabs
