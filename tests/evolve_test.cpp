// Tests for the diversity engine subsystem: pool diversity measurement,
// island migration, adaptive-selector convergence on a rigged reward
// stream, DiversityEngine determinism/cancellation, and the dabs solver's
// diversity surface (registry options, SolveReport extras).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <thread>

#include "core/dabs_solver.hpp"
#include "core/solver_registry.hpp"
#include "evolve/adaptive_selector.hpp"
#include "evolve/diversity.hpp"
#include "evolve/diversity_engine.hpp"
#include "evolve/island_ring.hpp"
#include "evolve/solution_pool.hpp"
#include "rng/seeder.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using testing::random_model;
using testing::random_solution;

BitVector bits_of(std::size_t n, std::uint64_t pattern) {
  BitVector v(n);
  for (std::size_t i = 0; i < n && i < 64; ++i) v.set(i, (pattern >> i) & 1);
  return v;
}

PoolEntry entry_of(const BitVector& x, Energy e,
                   MainSearch a = MainSearch::kMaxMin,
                   GeneticOp op = GeneticOp::kMutation) {
  return {x, e, a, op};
}

// ---------------------------------------------------------------------------
// PoolDiversity / measure_diversity

TEST(Diversity, EmptyAndSingletonAreZero) {
  const PoolDiversity none = measure_diversity({}, 16);
  EXPECT_EQ(none.entries, 0u);
  EXPECT_EQ(none.min_hamming, 0u);
  EXPECT_EQ(none.mean_hamming, 0.0);
  EXPECT_EQ(none.entropy, 0.0);

  const PoolDiversity one = measure_diversity({bits_of(16, 0xF)}, 16);
  EXPECT_EQ(one.entries, 1u);
  EXPECT_EQ(one.min_hamming, 0u);
  EXPECT_EQ(one.entropy, 0.0);  // every column is constant
}

TEST(Diversity, KnownPairDistances) {
  // 0000 vs 1111 vs 0011 over 4 bits: pairwise distances 4, 2, 2.
  const std::vector<BitVector> s = {bits_of(4, 0x0), bits_of(4, 0xF),
                                    bits_of(4, 0x3)};
  const PoolDiversity d = measure_diversity(s, 4);
  EXPECT_EQ(d.entries, 3u);
  EXPECT_EQ(d.min_hamming, 2u);
  EXPECT_DOUBLE_EQ(d.mean_hamming, (4.0 + 2.0 + 2.0) / 3.0);
  // Every column has one-count 2 of 3 -> identical per-bit entropy.
  EXPECT_NEAR(d.entropy, -(2.0 / 3.0) * std::log2(2.0 / 3.0) -
                             (1.0 / 3.0) * std::log2(1.0 / 3.0),
              1e-12);
}

TEST(Diversity, MaxEntropyAtBalancedColumns) {
  // Complementary pair: every column is a 50/50 split -> entropy 1.
  const PoolDiversity d =
      measure_diversity({bits_of(8, 0x00), bits_of(8, 0xFF)}, 8);
  EXPECT_DOUBLE_EQ(d.entropy, 1.0);
  EXPECT_EQ(d.min_hamming, 8u);
}

TEST(SolutionPool, DiversityIgnoresInfinitySeeds) {
  Rng rng(7);
  SolutionPool pool(8, 16);
  pool.initialize_random(rng);  // all +inf placeholders
  EXPECT_EQ(pool.diversity().entries, 0u);
  pool.insert(entry_of(bits_of(16, 0x00FF), -5));
  pool.insert(entry_of(bits_of(16, 0xFF00), -4));
  const PoolDiversity d = pool.diversity();
  EXPECT_EQ(d.entries, 2u);
  EXPECT_EQ(d.min_hamming, 16u);
}

TEST(SolutionPool, BestEntriesSnapshotsEvaluatedPrefix) {
  Rng rng(9);
  SolutionPool pool(6, 16);
  pool.initialize_random(rng);
  pool.insert(entry_of(bits_of(16, 1), -10));
  pool.insert(entry_of(bits_of(16, 2), -30));
  pool.insert(entry_of(bits_of(16, 3), -20));
  const auto top2 = pool.best_entries(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].energy, -30);
  EXPECT_EQ(top2[1].energy, -20);
  // Asking for more than the evaluated prefix stops at the +inf seeds.
  EXPECT_EQ(pool.best_entries(100).size(), 3u);
}

// ---------------------------------------------------------------------------
// Island migration

TEST(IslandRing, MigrateCopiesBestToNeighborOnly) {
  MersenneSeeder seeder(11);
  IslandRing ring(3, 8, 16, seeder);
  ring.pool(0).insert(entry_of(bits_of(16, 0xA), -50));
  ring.pool(0).insert(entry_of(bits_of(16, 0xB), -40));
  ring.pool(0).insert(entry_of(bits_of(16, 0xC), -30));

  EXPECT_EQ(ring.migrate(0, 2), 2u);
  // Neighbor (pool 1) received exactly the two best.
  EXPECT_EQ(ring.pool(1).best_energy(), -50);
  EXPECT_EQ(ring.pool(1).entry(1).energy, -40);
  // Pool 2 (not the neighbor) untouched: still all +inf seeds.
  EXPECT_EQ(ring.pool(2).diversity().entries, 0u);
  // Source keeps its entries.
  EXPECT_EQ(ring.pool(0).best_energy(), -50);
}

TEST(IslandRing, MigrateRejectsDuplicatesAndRespectsRules) {
  MersenneSeeder seeder(12);
  IslandRing ring(2, 8, 16, seeder);
  ring.pool(0).insert(entry_of(bits_of(16, 0xA), -50));
  EXPECT_EQ(ring.migrate(0, 4), 1u);  // only one evaluated entry to send
  EXPECT_EQ(ring.migrate(0, 4), 0u);  // second pass: duplicate, rejected
}

TEST(IslandRing, MigrateNoOpOnSingleIslandAndWrapsRing) {
  MersenneSeeder seeder(13);
  IslandRing solo(1, 4, 8, seeder);
  solo.pool(0).insert(entry_of(bits_of(8, 1), -5));
  EXPECT_EQ(solo.migrate(0, 3), 0u);

  IslandRing ring(3, 4, 8, seeder);
  ring.pool(2).insert(entry_of(bits_of(8, 2), -7));
  EXPECT_EQ(ring.migrate(2, 1), 1u);  // wraps to pool 0
  EXPECT_EQ(ring.pool(0).best_energy(), -7);
}

TEST(IslandRing, MigrationDeterministicAcrossIslandCounts) {
  // Same seed -> identical migration outcome, for several ring sizes.
  for (const std::size_t islands : {2u, 3u, 5u}) {
    std::vector<Energy> bests[2];
    for (int run = 0; run < 2; ++run) {
      MersenneSeeder seeder(99);
      IslandRing ring(islands, 8, 16, seeder);
      Rng fill(1234);
      for (std::size_t i = 0; i < islands; ++i) {
        for (int k = 0; k < 4; ++k) {
          ring.pool(i).insert(entry_of(random_solution(16, fill),
                                       -Energy(10 * (k + 1) + Energy(i))));
        }
      }
      for (std::size_t i = 0; i < islands; ++i) (void)ring.migrate(i, 2);
      for (std::size_t i = 0; i < islands; ++i) {
        bests[run].push_back(ring.pool(i).best_energy());
      }
    }
    EXPECT_EQ(bests[0], bests[1]) << islands << " islands";
  }
}

// ---------------------------------------------------------------------------
// Adaptive selector on a rigged reward stream

TEST(AdaptiveSelector, ConvergesOnRiggedRewardStream) {
  // Rig the rewards: only kZero results are ever "accepted" into the pool.
  // With 95 % exploitation over pool records, the selector's choices must
  // converge toward the operation that wins.
  SolutionPool pool(50, 32);
  Rng fill(5);
  for (int i = 0; i < 50; ++i) {
    pool.insert(entry_of(random_solution(32, fill), -i, MainSearch::kMaxMin,
                         GeneticOp::kZero));
  }
  AdaptiveSelector sel;  // full diversity, 5 % exploration
  Rng rng(77);
  int zero_picks = 0;
  const int kDraws = 4000;
  for (int i = 0; i < kDraws; ++i) {
    if (sel.select_operation(pool, rng) == GeneticOp::kZero) ++zero_picks;
  }
  // Exploitation always yields kZero; exploration picks it 1/8 of 5 %.
  // Expected ~95.6 %; demand well above any unrigged share.
  EXPECT_GT(zero_picks, kDraws * 9 / 10);
}

TEST(AdaptiveSelector, WinRateTracksPoolComposition) {
  // 80 % of pool records kBest, 20 % kMutation: the exploit path must
  // reproduce roughly that split (win-rate proportional selection).
  SolutionPool pool(50, 32);
  Rng fill(6);
  for (int i = 0; i < 40; ++i) {
    pool.insert(entry_of(random_solution(32, fill), -i, MainSearch::kMaxMin,
                         GeneticOp::kBest));
  }
  for (int i = 40; i < 50; ++i) {
    pool.insert(entry_of(random_solution(32, fill), -i, MainSearch::kMaxMin,
                         GeneticOp::kMutation));
  }
  AdaptiveSelector sel({MainSearch::kMaxMin},
                       {GeneticOp::kBest, GeneticOp::kMutation},
                       /*explore_prob=*/0.0);
  Rng rng(78);
  int best_picks = 0;
  const int kDraws = 5000;
  for (int i = 0; i < kDraws; ++i) {
    if (sel.select_operation(pool, rng) == GeneticOp::kBest) ++best_picks;
  }
  EXPECT_NEAR(double(best_picks) / kDraws, 0.8, 0.05);
}

// ---------------------------------------------------------------------------
// DiversityEngine

EngineConfig small_engine_config(std::size_t islands = 2) {
  EngineConfig cfg;
  cfg.islands = islands;
  cfg.pool_capacity = 10;
  return cfg;
}

TEST(DiversityEngine, ValidatesConfig) {
  EXPECT_THROW(
      { EngineConfig c; c.islands = 0; c.validate(); },
      std::invalid_argument);
  EXPECT_THROW(
      {
        EngineConfig c;
        c.migration_interval = 4;
        c.migration_count = 0;
        c.validate();
      },
      std::invalid_argument);
}

TEST(DiversityEngine, NextPacketIsDeterministic) {
  // Two engines built from the same seed must emit identical packet
  // streams when driven by identical RNGs.
  MersenneSeeder s1(42), s2(42);
  DiversityEngine e1(small_engine_config(), 24, s1);
  DiversityEngine e2(small_engine_config(), 24, s2);
  Rng r1(7), r2(7);
  for (int i = 0; i < 64; ++i) {
    const Packet p1 = e1.next_packet(i % 2, r1);
    const Packet p2 = e2.next_packet(i % 2, r2);
    EXPECT_EQ(p1.algo, p2.algo);
    EXPECT_EQ(p1.op, p2.op);
    EXPECT_TRUE(p1.solution == p2.solution);
    EXPECT_EQ(p1.pool_index, p2.pool_index);
  }
  EXPECT_EQ(e1.generated(), 64u);
}

TEST(DiversityEngine, RunStatsCountEveryPacket) {
  // Every generated packet is one batch in RunStats, attributed to
  // exactly one algorithm and one operation.
  MersenneSeeder seeder(45);
  DiversityEngine engine(small_engine_config(), 24, seeder);
  Rng rng(9);
  for (int i = 0; i < 50; ++i) (void)engine.next_packet(i % 2, rng);
  const RunStatsSnapshot snap = engine.stats();
  std::uint64_t algo_total = 0, op_total = 0;
  for (const auto v : snap.algo_executed) algo_total += v;
  for (const auto v : snap.op_executed) op_total += v;
  EXPECT_EQ(snap.batches, 50u);
  EXPECT_EQ(engine.generated(), 50u);
  EXPECT_EQ(algo_total, 50u);
  EXPECT_EQ(op_total, 50u);
}

TEST(DiversityEngine, AcceptResultCountsWins) {
  MersenneSeeder seeder(43);
  DiversityEngine engine(small_engine_config(), 16, seeder);
  Packet p;
  p.solution = bits_of(16, 0xAB);
  p.energy = -12;
  p.algo = MainSearch::kMaxMin;
  p.op = GeneticOp::kZero;
  p.pool_index = 1;
  EXPECT_TRUE(engine.accept_result(p));
  EXPECT_FALSE(engine.accept_result(p));  // duplicate rejected, no win
  EXPECT_EQ(engine.accepted(), 1u);
  std::map<std::string, std::string> extras;
  engine.fill_extras(extras);
  EXPECT_EQ(extras.at("win_op_Zero"), "1");
  EXPECT_EQ(extras.at("packets_accepted"), "1");
  EXPECT_EQ(extras.at("islands"), "2");
}

TEST(DiversityEngine, MigrationHonorsIntervalAndCount) {
  EngineConfig cfg = small_engine_config(2);
  cfg.migration_interval = 4;
  cfg.migration_count = 2;
  MersenneSeeder seeder(44);
  DiversityEngine engine(cfg, 16, seeder);
  // Give island 0 evaluated entries worth migrating.
  for (int k = 0; k < 3; ++k) {
    Packet p;
    p.solution = bits_of(16, 0x10 + k);
    p.energy = -10 - k;
    p.pool_index = 0;
    ASSERT_TRUE(engine.accept_result(p));
  }
  Rng rng(5);
  const auto never = [] { return false; };
  // Not due yet: fewer than `interval` packets generated on island 0.
  EXPECT_EQ(engine.maybe_migrate(0, never), 0u);
  for (int i = 0; i < 4; ++i) (void)engine.next_packet(0, rng);
  const std::size_t moved = engine.maybe_migrate(0, never);
  EXPECT_EQ(moved, 2u);  // migration_count best entries
  EXPECT_EQ(engine.migrations(), 2u);
  EXPECT_EQ(engine.ring().pool(1).best_energy(), -12);
  // Immediately after, the interval gates again.
  EXPECT_EQ(engine.maybe_migrate(0, never), 0u);
}

TEST(DiversityEngine, MigrationCancelledMidWay) {
  EngineConfig cfg = small_engine_config(2);
  cfg.migration_interval = 1;
  cfg.migration_count = 3;
  MersenneSeeder seeder(45);
  DiversityEngine engine(cfg, 16, seeder);
  for (int k = 0; k < 3; ++k) {
    Packet p;
    p.solution = bits_of(16, 0x20 + k);
    p.energy = -20 - k;
    p.pool_index = 0;
    ASSERT_TRUE(engine.accept_result(p));
  }
  Rng rng(6);
  (void)engine.next_packet(0, rng);
  // The cancel callback fires after the first entry is transferred.
  int polls = 0;
  const std::size_t moved =
      engine.maybe_migrate(0, [&polls] { return ++polls > 1; });
  EXPECT_EQ(moved, 1u);  // stopped mid-migration, not after the batch
  EXPECT_EQ(engine.migrations(), 1u);
}

TEST(DiversityEngine, CheckRestartOnMergedRing) {
  EngineConfig cfg = small_engine_config(2);
  MersenneSeeder seeder(46);
  DiversityEngine engine(cfg, 16, seeder);
  // Force both pools to the identical best -> merged ring.
  for (std::uint32_t i = 0; i < 2; ++i) {
    Packet p;
    p.solution = bits_of(16, 0x3C);
    p.energy = -99;
    p.pool_index = i;
    ASSERT_TRUE(engine.accept_result(p));
  }
  EXPECT_TRUE(engine.ring().merged());
  EXPECT_TRUE(engine.check_restart());
  EXPECT_EQ(engine.restarts(), 1u);
  EXPECT_FALSE(engine.ring().merged());  // pools re-randomized to +inf
  EXPECT_FALSE(engine.check_restart());  // nothing merged anymore
}

TEST(DiversityEngine, InjectSeedsThePool) {
  MersenneSeeder seeder(47);
  DiversityEngine engine(small_engine_config(), 16, seeder);
  EXPECT_TRUE(engine.inject(bits_of(16, 0x55), -31, 1));
  EXPECT_EQ(engine.ring().pool(1).best_energy(), -31);
  EXPECT_EQ(engine.best_energy(), -31);
}

// ---------------------------------------------------------------------------
// DabsSolver diversity surface (registry construction, extras, cancellation)

TEST(DabsDiversity, RegistryConstructibleWithIslandOptions) {
  const QuboModel m = random_model(40, 0.3, 8, 9001);
  auto solver = SolverRegistry::global().create(
      "dabs", SolverOptions{{"islands", "3"},
                            {"migrate", "8"},
                            {"migrants", "2"},
                            {"blocks", "2"},
                            {"pool", "20"},
                            {"seed", "7"}});
  SolveRequest req;
  req.model = &m;
  req.stop.max_batches = 200;
  const SolveReport rep = solver->solve(req);
  EXPECT_LE(rep.best_energy, 0);
  EXPECT_EQ(rep.extras.at("islands"), "3");
  EXPECT_TRUE(rep.extras.count("pool_entropy"));
  EXPECT_TRUE(rep.extras.count("pool_min_hamming"));
  EXPECT_TRUE(rep.extras.count("pool_mean_hamming"));
  EXPECT_TRUE(rep.extras.count("migrations"));
}

TEST(DabsDiversity, FixedSeedRunsAreIdentical) {
  const QuboModel m = random_model(50, 0.3, 8, 9002);
  const SolverOptions opts{{"islands", "2"}, {"blocks", "2"},
                           {"migrate", "16"}, {"seed", "1234"},
                           {"pool", "30"}};
  SolveReport reps[2];
  for (int run = 0; run < 2; ++run) {
    auto solver = SolverRegistry::global().create("dabs", opts);
    SolveRequest req;
    req.model = &m;
    req.stop.max_batches = 300;
    reps[run] = solver->solve(req);
  }
  EXPECT_EQ(reps[0].best_energy, reps[1].best_energy);
  EXPECT_TRUE(reps[0].best_solution == reps[1].best_solution);
  EXPECT_EQ(reps[0].batches, reps[1].batches);
  EXPECT_EQ(reps[0].extras.at("migrations"), reps[1].extras.at("migrations"));
  EXPECT_EQ(reps[0].extras.at("pool_entropy"),
            reps[1].extras.at("pool_entropy"));
}

TEST(DabsDiversity, CancellationInterruptsThreadedMigratingRun) {
  const QuboModel m = random_model(60, 0.3, 8, 9003);
  SolverConfig cfg;
  cfg.devices = 2;
  cfg.device.blocks = 2;
  cfg.pool_capacity = 20;
  cfg.mode = ExecutionMode::kThreaded;
  cfg.migration_interval = 2;  // migrate aggressively
  cfg.migration_count = 3;
  cfg.stop.time_limit_seconds = 30.0;  // the token must beat this
  DabsSolver solver(cfg);
  SolveRequest req;
  req.model = &m;
  std::atomic<bool> done{false};
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    req.stop_token.request_stop();
    done.store(true);
  });
  const SolveReport rep = solver.solve(req);
  canceller.join();
  EXPECT_TRUE(done.load());
  EXPECT_TRUE(rep.cancelled);
  EXPECT_LT(rep.elapsed_seconds, 29.0);
  EXPECT_LT(rep.best_energy, kInfiniteEnergy);  // real solution regardless
}

TEST(DabsDiversity, WarmStartEntersPoolAndBest) {
  const QuboModel m = random_model(30, 0.4, 8, 9004);
  Rng rng(3);
  const BitVector warm = random_solution(30, rng);
  const Energy warm_energy = m.energy(warm);
  SolverConfig cfg;
  cfg.devices = 2;
  cfg.device.blocks = 1;
  cfg.mode = ExecutionMode::kSynchronous;
  cfg.stop.max_batches = 1;
  DabsSolver solver(cfg);
  SolveRequest req;
  req.model = &m;
  req.warm_start = {warm};
  req.stop.max_batches = 1;
  const SolveReport rep = solver.solve(req);
  EXPECT_LE(rep.best_energy, warm_energy);
}

}  // namespace
}  // namespace dabs
