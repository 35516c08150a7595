// Tests for the TSP -> QAP -> QUBO reduction chain (paper §II-B).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/dabs_solver.hpp"
#include "problems/qap.hpp"
#include "problems/tsp.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

namespace pr = problems;
using testing::solve_on;

pr::TspInstance square_tsp() {
  // 4 cities on a unit square (scaled x10): optimal tour = perimeter 40.
  pr::TspInstance inst;
  inst.n = 4;
  inst.name = "square";
  // Order: (0,0), (0,1), (1,1), (1,0).
  const int d[16] = {0, 10, 14, 10,   //
                     10, 0, 10, 14,   //
                     14, 10, 0, 10,   //
                     10, 14, 10, 0};
  inst.dist.assign(d, d + 16);
  return inst;
}

TEST(Tsp, TourLengthClosesTheLoop) {
  const auto inst = square_tsp();
  EXPECT_EQ(inst.tour_length({0, 1, 2, 3}), 40);
  EXPECT_EQ(inst.tour_length({0, 2, 1, 3}), 14 + 10 + 14 + 10);
}

TEST(Tsp, BruteForceFindsPerimeter) {
  const auto inst = square_tsp();
  std::vector<VarIndex> tour;
  EXPECT_EQ(pr::tsp_brute_force(inst, &tour), 40);
  EXPECT_EQ(tour[0], 0u);
  EXPECT_EQ(inst.tour_length(tour), 40);
}

TEST(Tsp, QapCostEqualsTourLengthForAllAssignments) {
  const auto inst = square_tsp();
  const pr::QapInstance qap = pr::tsp_to_qap(inst);
  std::vector<VarIndex> g = {0, 1, 2, 3};
  do {
    // Assignment g: tour position i visits city g(i).
    EXPECT_EQ(qap.cost(g), inst.tour_length(g));
  } while (std::next_permutation(g.begin(), g.end()));
}

TEST(Tsp, QapOptimumEqualsTspOptimum) {
  const auto inst = pr::make_euclidean_tsp(6, 50, 3, "e6");
  const pr::QapInstance qap = pr::tsp_to_qap(inst);
  EXPECT_EQ(pr::qap_brute_force(qap), pr::tsp_brute_force(inst));
}

TEST(Tsp, EuclideanGeneratorIsSymmetricWithTriangleSlack) {
  const auto inst = pr::make_euclidean_tsp(10, 100, 5, "e10");
  for (std::size_t a = 0; a < 10; ++a) {
    EXPECT_EQ(inst.d(a, a), 0);
    for (std::size_t b = 0; b < 10; ++b) {
      EXPECT_EQ(inst.d(a, b), inst.d(b, a));
      EXPECT_GE(inst.d(a, b), 0);
    }
  }
}

TEST(Tsp, EndToEndThroughDabs) {
  const auto inst = pr::make_euclidean_tsp(5, 30, 7, "e5");
  const Energy opt = pr::tsp_brute_force(inst);
  const pr::QapQubo q = pr::qap_to_qubo(pr::tsp_to_qap(inst));

  SolverConfig c;
  c.devices = 2;
  c.device.blocks = 2;
  c.mode = ExecutionMode::kSynchronous;
  c.stop.target_energy = q.feasible_energy(opt);
  c.stop.max_batches = 6000;
  const SolveReport r = solve_on(DabsSolver(c), q.model);
  ASSERT_TRUE(r.reached_target);
  const auto g = pr::decode_assignment(r.best_solution, 5);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(inst.tour_length(*g), opt);
}

TEST(Tsp, RejectsTinyInstances) {
  pr::TspInstance inst;
  inst.n = 2;
  inst.dist = {0, 1, 1, 0};
  EXPECT_THROW((void)pr::tsp_to_qap(inst), std::invalid_argument);
}

}  // namespace
}  // namespace dabs
