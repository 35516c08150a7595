// Tests for the QAP one-hot reduction (paper §II-B): the E(X) = C(g) - n*p
// identity on feasible vectors, penalty behaviour on infeasible ones, and
// the generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "baseline/exhaustive.hpp"
#include "problems/qap.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

namespace pr = problems;
using testing::solve_on;

pr::QapInstance tiny_qap() {
  // n = 3, symmetric flows, line distances.
  pr::QapInstance inst;
  inst.n = 3;
  inst.name = "tiny3";
  inst.flow = {0, 5, 2,   //
               5, 0, 3,   //
               2, 3, 0};
  inst.dist = {0, 1, 2,   //
               1, 0, 1,   //
               2, 1, 0};
  return inst;
}

TEST(Qap, CostOrderedDoubleSum) {
  const auto inst = tiny_qap();
  // Identity assignment: C = sum_{i != j} l(i,j) d(i,j)
  //   = 2*(5*1 + 2*2 + 3*1) = 24.
  EXPECT_EQ(inst.cost({0, 1, 2}), 24);
  // g = (1, 0, 2): facilities at locations 1,0,2.
  // pairs (0,1): l=5,d(1,0)=1 twice -> 10; (0,2): l=2,d(1,2)=1 twice -> 4;
  // (1,2): l=3,d(0,2)=2 twice -> 12; total 26.
  EXPECT_EQ(inst.cost({1, 0, 2}), 26);
}

TEST(Qap, FeasibleEnergyIdentityOverAllPermutations) {
  const auto inst = tiny_qap();
  const pr::QapQubo q = pr::qap_to_qubo(inst, 1000);
  std::vector<VarIndex> g = {0, 1, 2};
  do {
    const BitVector x = pr::encode_assignment(g);
    EXPECT_EQ(q.model.energy(x), inst.cost(g) - 3 * 1000);
  } while (std::next_permutation(g.begin(), g.end()));
}

TEST(Qap, FeasibleEnergyIdentityOnRandomInstances) {
  for (int n : {2, 4, 5}) {
    const auto inst = pr::make_uniform_qap(n, 9, 100 + n);
    const pr::QapQubo q = pr::qap_to_qubo(inst, 5000);
    std::vector<VarIndex> g(n);
    std::iota(g.begin(), g.end(), 0);
    do {
      const BitVector x = pr::encode_assignment(g);
      EXPECT_EQ(q.model.energy(x), inst.cost(g) - Energy{5000} * n);
    } while (std::next_permutation(g.begin(), g.end()));
  }
}

TEST(Qap, InfeasibleVectorsCostMoreThanFeasibleOnes) {
  // With the default (auto) penalty, the QUBO optimum must be feasible, so
  // every infeasible vector sits strictly above E = C(g*) - n*p.
  const auto inst = tiny_qap();
  const pr::QapQubo q = pr::qap_to_qubo(inst);  // auto penalty
  const Energy opt_cost = pr::qap_brute_force(inst);
  const Energy opt_energy = q.feasible_energy(opt_cost);

  const SolveReport r = solve_on(ExhaustiveSolver(9), q.model);
  EXPECT_EQ(r.best_energy, opt_energy);
  const auto g = pr::decode_assignment(r.best_solution, 3);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(inst.cost(*g), opt_cost);
}

TEST(Qap, PaperPenaltyBoundOnInfeasible) {
  // Paper: if X is not feasible, E(X) >= -(n-1) p (for dominant penalty).
  const auto inst = tiny_qap();
  const Weight p = pr::default_qap_penalty(inst);
  const pr::QapQubo q = pr::qap_to_qubo(inst, p);
  const std::size_t N = 9;
  for (std::uint64_t bits = 0; bits < (1u << N); ++bits) {
    BitVector x(N);
    for (std::size_t i = 0; i < N; ++i) x.set(i, (bits >> i) & 1);
    if (!pr::decode_assignment(x, 3).has_value()) {
      EXPECT_GE(q.model.energy(x), -Energy{p} * 2) << "bits=" << bits;
    }
  }
}

TEST(Qap, EncodeDecodeRoundTrip) {
  const std::vector<VarIndex> g = {3, 1, 4, 0, 2};
  const BitVector x = pr::encode_assignment(g);
  EXPECT_EQ(x.count(), 5u);
  const auto back = pr::decode_assignment(x, 5);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, g);
}

TEST(Qap, DecodeRejectsInfeasible) {
  // Two ones in a row.
  BitVector x(4);
  x.set(0, true);
  x.set(1, true);
  EXPECT_FALSE(pr::decode_assignment(x, 2).has_value());
  // Column reused.
  BitVector y(4);
  y.set(0, true);  // facility 0 -> location 0
  y.set(2, true);  // facility 1 -> location 0
  EXPECT_FALSE(pr::decode_assignment(y, 2).has_value());
  // Empty row.
  BitVector z(4);
  z.set(1, true);
  EXPECT_FALSE(pr::decode_assignment(z, 2).has_value());
}

TEST(Qap, BruteForceMatchesManualTiny) {
  const auto inst = tiny_qap();
  std::vector<VarIndex> best_g;
  const Energy best = pr::qap_brute_force(inst, &best_g);
  // Enumerate by hand through cost() for all 6 permutations.
  std::vector<VarIndex> g = {0, 1, 2};
  Energy expect = kInfiniteEnergy;
  do {
    expect = std::min(expect, inst.cost(g));
  } while (std::next_permutation(g.begin(), g.end()));
  EXPECT_EQ(best, expect);
  EXPECT_EQ(inst.cost(best_g), best);
}

TEST(Qap, UniformGeneratorShape) {
  const auto inst = pr::make_uniform_qap(8, 50, 11, "tai-like");
  EXPECT_EQ(inst.n, 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(inst.l(i, i), 0);
    EXPECT_EQ(inst.d(i, i), 0);
    for (std::size_t j = 0; j < 8; ++j) {
      if (i == j) continue;
      EXPECT_GE(inst.l(i, j), 1);
      EXPECT_LE(inst.l(i, j), 50);
      EXPECT_GE(inst.d(i, j), 1);
      EXPECT_LE(inst.d(i, j), 50);
    }
  }
}

TEST(Qap, GridGeneratorManhattanDistances) {
  const auto inst = pr::make_grid_qap(2, 3, 10, 12, "nug-like");
  EXPECT_EQ(inst.n, 6u);
  // Locations: 0 1 2 / 3 4 5.  d(0,5) = |0-1| + |0-2| = 3.
  EXPECT_EQ(inst.d(0, 5), 3);
  EXPECT_EQ(inst.d(1, 4), 1);
  // Symmetric flows.
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t b = 0; b < 6; ++b) {
      EXPECT_EQ(inst.l(a, b), inst.l(b, a));
      EXPECT_EQ(inst.d(a, b), inst.d(b, a));
    }
  }
}

TEST(Qap, QuboHasExpectedVariableCount) {
  const auto inst = pr::make_uniform_qap(5, 9, 13);
  const pr::QapQubo q = pr::qap_to_qubo(inst, 1000);
  EXPECT_EQ(q.model.size(), 25u);
  EXPECT_EQ(q.n, 5u);
  EXPECT_EQ(q.penalty, 1000);
  // Diagonal all -p.
  for (VarIndex v = 0; v < 25; ++v) EXPECT_EQ(q.model.diag(v), -1000);
}

TEST(Qap, DefaultPenaltyIsTheCertifiedBound) {
  // The automatic penalty is computed, not a magic constant: the min of
  // the two certificates — C(identity) + 1 (with non-negative entries the
  // feasible optimum C(g*) - n p then undercuts every infeasible vector's
  // documented floor of -(n-1) p) and the sign-agnostic interaction-
  // dominance bound 2 max|l| max|d| n + 1.
  const auto inst = pr::make_uniform_qap(6, 20, 14);
  const Weight p = pr::default_qap_penalty(inst);
  EXPECT_EQ(p, pr::min_safe_qap_penalty(inst));
  std::vector<VarIndex> id(inst.n);
  std::iota(id.begin(), id.end(), 0);
  int max_l = 0, max_d = 0;
  for (int v : inst.flow) max_l = std::max(max_l, std::abs(v));
  for (int v : inst.dist) max_d = std::max(max_d, std::abs(v));
  EXPECT_EQ(Energy{p}, std::min(inst.cost(id) + 1,
                                Energy{2} * max_l * max_d * 6 + 1));
  EXPECT_LE(Energy{p}, inst.cost(id) + 1);
}

TEST(Qap, MinSafePenaltyUsesDominanceAloneOnNegativeEntries) {
  auto inst = tiny_qap();
  inst.flow[1] = -5;  // negative entry voids the interaction floor
  inst.flow[3] = -5;
  const Weight p = pr::min_safe_qap_penalty(inst);
  int max_l = 0, max_d = 0;
  for (int v : inst.flow) max_l = std::max(max_l, std::abs(v));
  for (int v : inst.dist) max_d = std::max(max_d, std::abs(v));
  EXPECT_EQ(p, 2 * max_l * max_d * 3 + 1);
}

}  // namespace
}  // namespace dabs
