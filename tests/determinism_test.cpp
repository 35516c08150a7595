// Reproducibility sweep: every main search algorithm, genetic operation,
// and the full synchronous solver must be bit-identical given the same
// seed — the property the virtual-device substrate guarantees and the
// paper's GPU implementation (per-thread Xorshift streams) aims for.
#include <gtest/gtest.h>

#include "core/dabs_solver.hpp"
#include "qubo/search_state.hpp"
#include "search/registry.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using testing::random_model;
using testing::random_solution;
using testing::solve_on;

class AlgorithmDeterminism : public ::testing::TestWithParam<MainSearch> {};

TEST_P(AlgorithmDeterminism, IdenticalSeedsIdenticalWalks) {
  const QuboModel m = random_model(36, 0.5, 9, 11000);
  Rng seed_rng(1);
  const BitVector start = random_solution(36, seed_rng);

  SearchState sa(m), sb(m);
  sa.reset_to(start);
  sb.reset_to(start);
  Rng ra(777), rb(777);
  TabuList ta(36, 8), tb(36, 8);
  auto algo_a = make_search_algorithm(GetParam());
  auto algo_b = make_search_algorithm(GetParam());
  algo_a->run(sa, ra, &ta, 120);
  algo_b->run(sb, rb, &tb, 120);
  EXPECT_EQ(sa.solution(), sb.solution());
  EXPECT_EQ(sa.energy(), sb.energy());
  EXPECT_EQ(sa.best(), sb.best());
  EXPECT_EQ(sa.best_energy(), sb.best_energy());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmDeterminism,
                         ::testing::ValuesIn(kAllMainSearches),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

class SolverDeterminism : public ::testing::TestWithParam<MainSearch> {};

TEST_P(SolverDeterminism, SingleAlgorithmConfigIsReproducible) {
  const QuboModel m = random_model(24, 0.5, 9, 11001);
  SolverConfig c;
  c.devices = 2;
  c.device.blocks = 2;
  c.mode = ExecutionMode::kSynchronous;
  c.algorithms = {GetParam()};
  c.stop.max_batches = 40;
  c.seed = 314159;
  const SolveReport a = solve_on(DabsSolver(c), m);
  const SolveReport b = solve_on(DabsSolver(c), m);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best_solution, b.best_solution);
  EXPECT_EQ(a.extras, b.extras);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SolverDeterminism,
                         ::testing::ValuesIn(kAllMainSearches),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(SolverDeterminismMisc, SynchronousReportBitIdentical64Var) {
  // Full adaptive portfolio (every algorithm, every genetic op) on a
  // 64-variable random model: two synchronous runs with the same seed must
  // agree on every field of the report, not just the best energy.
  const QuboModel m = random_model(64, 0.3, 9, 11004);
  SolverConfig c;
  c.devices = 3;
  c.device.blocks = 2;
  c.mode = ExecutionMode::kSynchronous;
  c.stop.max_batches = 120;
  c.seed = 0xD1CED1CE;
  const SolveReport a = solve_on(DabsSolver(c), m);
  const SolveReport b = solve_on(DabsSolver(c), m);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best_solution, b.best_solution);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.reached_target, b.reached_target);
  EXPECT_EQ(a.extras, b.extras);
  EXPECT_EQ(m.energy(a.best_solution), a.best_energy);
}

// Fixed-seed fingerprints of synchronous dabs solves, captured with the
// scalar per-bit Step 2 that preceded the candidate masks.  The tests
// above only compare two runs of the same build, so a change to any
// algorithm's RNG draw order or tie-breaking would pass them silently;
// these constants catch it across builds.  A deliberate trajectory
// change must update them and say so.
struct GoldenSolve {
  const char* name;
  QuboBackend backend;
  int algo;  // MainSearch value, or -1 for the full portfolio
  std::uint64_t batches;
  Energy best_energy;
  std::uint64_t solution_hash;
};

constexpr QuboBackend kD = QuboBackend::kDense;
constexpr QuboBackend kC = QuboBackend::kCsr;

constexpr GoldenSolve kGoldenSolves[] = {
    {"dense_MaxMin", kD, 0, 12, -3427, 0x51883b79baad9e33ull},
    {"dense_PositiveMin", kD, 1, 12, -3427, 0x54d77417bb02de33ull},
    {"dense_CyclicMin", kD, 2, 12, -3427, 0x19d8f7ce5c9a9e33ull},
    {"dense_RandomMin", kD, 3, 12, -3422, 0x9336829fb82b4293ull},
    {"dense_TwoNeighbor", kD, 4, 12, -3409, 0x7aeac470670e5293ull},
    {"dense_Portfolio", kD, -1, 12, -3425, 0x4c0fe446c4c38e0bull},
    {"csr_MaxMin", kC, 0, 12, -849, 0x50a59016785e6889ull},
    {"csr_PositiveMin", kC, 1, 12, -849, 0x50a59016785e6889ull},
    {"csr_CyclicMin", kC, 2, 12, -849, 0x5d24a8a17377bd89ull},
    {"csr_RandomMin", kC, 3, 12, -849, 0xa1069016785e6889ull},
    {"csr_TwoNeighbor", kC, 4, 12, -846, 0xf662d3e91b57e3ddull},
    {"csr_Portfolio", kC, -1, 12, -845, 0xbdbb127a0a1e6889ull},
};

class GoldenFixedSeed : public ::testing::TestWithParam<GoldenSolve> {};

TEST_P(GoldenFixedSeed, MatchesPinnedFingerprint) {
  const GoldenSolve& g = GetParam();
  // 200 variables: four words with an 8-bit tail; the CSR model is sparse
  // enough that the density heuristic would pick CSR anyway.
  const bool dense = g.backend == QuboBackend::kDense;
  const QuboModel m =
      random_model(200, dense ? 0.5 : 0.03, 9, 11005, g.backend);
  SolverConfig c;
  c.devices = 2;
  c.device.blocks = 2;
  c.mode = ExecutionMode::kSynchronous;
  if (g.algo >= 0) c.algorithms = {static_cast<MainSearch>(g.algo)};
  c.stop.max_batches = 12;
  c.seed = 0x601D;
  const SolveReport r = solve_on(DabsSolver(c), m);
  EXPECT_EQ(r.batches, g.batches) << g.name;
  EXPECT_EQ(r.best_energy, g.best_energy) << g.name;
  EXPECT_EQ(r.best_solution.hash(), g.solution_hash)
      << g.name << " hash 0x" << std::hex << r.best_solution.hash();
  EXPECT_EQ(m.energy(r.best_solution), r.best_energy) << g.name;
}

INSTANTIATE_TEST_SUITE_P(DenseAndCsr, GoldenFixedSeed,
                         ::testing::ValuesIn(kGoldenSolves),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(SolverDeterminismMisc, WarmStartDoesNotBreakReproducibility) {
  const QuboModel m = random_model(20, 0.5, 9, 11002);
  Rng rng(5);
  SolverConfig c;
  c.devices = 2;
  c.device.blocks = 1;
  c.mode = ExecutionMode::kSynchronous;
  c.warm_start = {random_solution(20, rng), random_solution(20, rng)};
  c.stop.max_batches = 30;
  const SolveReport a = solve_on(DabsSolver(c), m);
  const SolveReport b = solve_on(DabsSolver(c), m);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best_solution, b.best_solution);
}

TEST(SolverDeterminismMisc, DeviceAndBlockCountChangeTheWalkNotValidity) {
  const QuboModel m = random_model(20, 0.5, 9, 11003);
  for (const std::size_t devices : {1u, 2u, 3u}) {
    for (const std::uint32_t blocks : {1u, 2u}) {
      SolverConfig c;
      c.devices = devices;
      c.device.blocks = blocks;
      c.mode = ExecutionMode::kSynchronous;
      c.stop.max_batches = 30;
      const SolveReport r = solve_on(DabsSolver(c), m);
      EXPECT_EQ(m.energy(r.best_solution), r.best_energy)
          << devices << "x" << blocks;
    }
  }
}

}  // namespace
}  // namespace dabs
