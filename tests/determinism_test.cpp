// Reproducibility sweep: every main search algorithm, genetic operation,
// and the full synchronous solver must be bit-identical given the same
// seed — the property the virtual-device substrate guarantees and the
// paper's GPU implementation (per-thread Xorshift streams) aims for.
#include <gtest/gtest.h>

#include <map>

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
  for (const char* key :
       {"batch_threads", "serialized_rounds_xrossover",
        "serialized_rounds_migration", "serialized_rounds_restart"}) {
    EXPECT_EQ(a.extras.count(key), 1u) << key;
  }
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

// Fixed-seed fingerprints of multi-island synchronous solves, one case per
// kind of cross-round dependency: migration into the next pool, Xrossover
// reading the neighbor pool, a restart check after every round, and a
// target that stops the run mid-way.  Captured with the one-thread round
// loop, before a synchronous solve ran batches in parallel; the 2000-bit
// dense models make batches slow enough that a solve goes parallel.
struct IslandGolden {
  const char* name;
  std::size_t bits;
  std::size_t islands;
  std::uint64_t migration_interval;
  std::uint64_t merge_check_interval;
  bool xrossover_only;
  std::optional<Energy> target;
  std::uint64_t max_batches;
  std::uint64_t batches;
  Energy best_energy;
  std::uint64_t solution_hash;
  std::uint32_t restarts;
};

constexpr IslandGolden kIslandGoldens[] = {
    {"migrate2_merge1", 2000, 4, 2, 1, false, {}, 48, 48, -101754,
     0xb84abae60e31c548ull, 3},
    {"xrossover_only", 2000, 4, 0, 64, true, {}, 48, 48, -101918,
     0x476dc14e63145f0cull, 0},
    {"target_mid_run", 2000, 4, 2, 1, false, -101749, 200, 17, -101749,
     0x57a62856219bbe3full, 0},
    {"three_islands", 2000, 3, 3, 2, false, {}, 40, 40, -101695,
     0x32f362d790e3fffaull, 1},
    {"restarts_small_pools", 48, 4, 2, 1, false, {}, 3000, 3000, -374,
     0x9f0fa4eea6abea11ull, 392},
};

class IslandGoldenFixedSeed : public ::testing::TestWithParam<IslandGolden> {
};

TEST_P(IslandGoldenFixedSeed, MatchesPinnedFingerprint) {
  const IslandGolden& g = GetParam();
  // One model per size for every case: building 2000 dense bits takes
  // seconds under the sanitizers.
  static std::map<std::size_t, QuboModel> models;
  if (!models.contains(g.bits)) {
    models.emplace(g.bits,
                   random_model(g.bits, 0.5, 9, 27001, QuboBackend::kDense));
  }
  const QuboModel& m = models.at(g.bits);
  SolverConfig c;
  c.devices = g.islands;
  c.device.blocks = 2;
  c.mode = ExecutionMode::kSynchronous;
  c.migration_interval = g.migration_interval;
  c.migration_count = 2;
  c.merge_check_interval = g.merge_check_interval;
  if (g.xrossover_only) c.operations = {GeneticOp::kXrossover};
  if (g.bits < 100) c.pool_capacity = 4;
  c.stop.target_energy = g.target;
  c.stop.max_batches = g.max_batches;
  c.seed = 0x2701;
  const SolveReport r = solve_on(DabsSolver(c), m);
  EXPECT_EQ(r.batches, g.batches) << g.name;
  EXPECT_EQ(r.best_energy, g.best_energy) << g.name;
  EXPECT_EQ(r.best_solution.hash(), g.solution_hash)
      << g.name << " hash 0x" << std::hex << r.best_solution.hash();
  EXPECT_EQ(r.restarts, g.restarts) << g.name;
  EXPECT_EQ(r.reached_target, g.target.has_value()) << g.name;
  EXPECT_EQ(m.energy(r.best_solution), r.best_energy) << g.name;
}

INSTANTIATE_TEST_SUITE_P(Islands, IslandGoldenFixedSeed,
                         ::testing::ValuesIn(kIslandGoldens),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// The serialized-round counts follow from the trajectory alone: a round
// counts when its packet had to wait for an earlier fold than its own
// island's previous round.  With I islands that is every Xrossover round
// from round I-1 on, the round after one due to migrate, and the I-1
// rounds after each restart check.
TEST(SolverDeterminismMisc, SerializedRoundCountsFollowTheTrajectory) {
  const QuboModel m = random_model(300, 0.5, 9, 27002);
  SolverConfig c;
  c.devices = 4;
  c.device.blocks = 1;
  c.mode = ExecutionMode::kSynchronous;
  c.stop.max_batches = 48;
  c.operations = {GeneticOp::kXrossover};
  SolveReport r = solve_on(DabsSolver(c), m);
  EXPECT_EQ(r.extras.at("serialized_rounds_xrossover"), "45");
  EXPECT_EQ(r.extras.at("serialized_rounds_migration"), "0");
  EXPECT_EQ(r.extras.at("serialized_rounds_restart"), "0");

  // Each island is due to migrate at its 2nd, 4th, ... round (rounds 4-7,
  // 12-15, ...); a check after every round of the ring (3, 7, ..., 43)
  // holds back the three rounds after it.
  c.operations = {GeneticOp::kMutation};
  c.migration_interval = 2;
  c.merge_check_interval = 1;
  r = solve_on(DabsSolver(c), m);
  EXPECT_EQ(r.extras.at("serialized_rounds_xrossover"), "0");
  EXPECT_EQ(r.extras.at("serialized_rounds_migration"), "23");
  EXPECT_EQ(r.extras.at("serialized_rounds_restart"), "33");

  c.devices = 1;
  r = solve_on(DabsSolver(c), m);
  EXPECT_EQ(r.extras.at("batch_threads"), "1");
  EXPECT_EQ(r.extras.at("serialized_rounds_migration"), "0");
  EXPECT_EQ(r.extras.at("serialized_rounds_restart"), "0");
}

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
