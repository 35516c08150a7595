// Tests for the DABS orchestration: stop conditions, statistics, restricted
// diversity, determinism, and correctness against exhaustive optima.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "baseline/abs_solver.hpp"
#include "baseline/exhaustive.hpp"
#include "core/dabs_solver.hpp"
#include "core/run_stats.hpp"
#include "problems/maxcut.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using testing::random_model;
using testing::solve_on;

SolverConfig quick_config() {
  SolverConfig c;
  c.devices = 2;
  c.device.blocks = 2;
  c.device.batch.search_flip_factor = 0.2;
  c.device.batch.batch_flip_factor = 0.5;
  c.pool_capacity = 10;
  c.mode = ExecutionMode::kSynchronous;
  c.stop.max_batches = 200;
  return c;
}

TEST(SolverConfig, ValidateRejectsUnboundedRuns) {
  // An unbounded stop is legal at configuration time (a SolveRequest may
  // supply the budget later) but a run must be bounded when it starts.
  const QuboModel m = random_model(8, 0.5, 9, 3999);
  SolverConfig c = quick_config();
  c.stop = {};
  DabsSolver solver{c};  // construction is configuration: no throw
  SolveRequest req;
  req.model = &m;
  EXPECT_THROW((void)solver.solve(req), std::invalid_argument);
  req.stop.max_batches = 10;
  EXPECT_NO_THROW((void)solver.solve(req));
}

TEST(SolverConfig, ValidateRejectsNonsense) {
  SolverConfig c = quick_config();
  c.devices = 0;
  EXPECT_THROW(DabsSolver{c}, std::invalid_argument);
  c = quick_config();
  c.algorithms.clear();
  EXPECT_THROW(DabsSolver{c}, std::invalid_argument);
  c = quick_config();
  c.explore_prob = 1.5;
  EXPECT_THROW(DabsSolver{c}, std::invalid_argument);
}

TEST(DabsSolver, FindsExhaustiveOptimumOnSmallModel) {
  const QuboModel m = random_model(18, 0.5, 9, 4000);
  const SolveReport truth = solve_on(ExhaustiveSolver(), m);

  SolverConfig c = quick_config();
  c.stop.max_batches = 400;
  c.stop.target_energy = truth.best_energy;
  const SolveReport r = solve_on(DabsSolver(c), m);
  EXPECT_TRUE(r.reached_target);
  EXPECT_EQ(r.best_energy, truth.best_energy);
  EXPECT_EQ(m.energy(r.best_solution), r.best_energy);
}

TEST(DabsSolver, MaxBatchesStopsTheRun) {
  const QuboModel m = random_model(30, 0.5, 9, 4001);
  SolverConfig c = quick_config();
  c.stop.max_batches = 50;
  const SolveReport r = solve_on(DabsSolver(c), m);
  EXPECT_GE(r.batches, 50u);
  EXPECT_LE(r.batches, 50u + c.devices);  // at most one overshoot per pool
  EXPECT_FALSE(r.reached_target);
}

TEST(DabsSolver, TargetEnergyRecordsTts) {
  const QuboModel m = random_model(16, 0.5, 9, 4002);
  SolverConfig c = quick_config();
  c.stop.max_batches = 1000;
  c.stop.target_energy = 0;  // trivially reachable (zero vector energy 0)
  const SolveReport r = solve_on(DabsSolver(c), m);
  EXPECT_TRUE(r.reached_target);
  EXPECT_GE(r.tts_seconds, 0.0);
  EXPECT_LE(r.tts_seconds, r.elapsed_seconds + 1e-9);
  EXPECT_LE(r.best_energy, 0);
}

TEST(DabsSolver, TimeLimitStopsTheRun) {
  const QuboModel m = random_model(64, 0.5, 9, 4003);
  SolverConfig c = quick_config();
  c.stop.max_batches = 0;
  c.stop.time_limit_seconds = 0.2;
  const SolveReport r = solve_on(DabsSolver(c), m);
  EXPECT_GE(r.elapsed_seconds, 0.2);
  EXPECT_LT(r.elapsed_seconds, 5.0);
}

TEST(DabsSolver, StatsCountEveryBatch) {
  const QuboModel m = random_model(24, 0.5, 9, 4004);
  SolverConfig c = quick_config();
  c.stop.max_batches = 60;
  const SolveReport r = solve_on(DabsSolver(c), m);
  // One packet per batch; evolve_test pins that RunStats records one batch
  // per generated packet, so RunStats counts exactly r.batches.
  EXPECT_EQ(r.extras.at("packets_generated"), std::to_string(r.batches));
  double algo_sum = 0, op_sum = 0;
  for (const auto& [key, value] : r.extras) {
    if (key.starts_with("freq_algo_")) algo_sum += std::stod(value);
    if (key.starts_with("freq_op_")) op_sum += std::stod(value);
  }
  EXPECT_NEAR(algo_sum, 1.0, 1e-4);
  EXPECT_NEAR(op_sum, 1.0, 1e-4);
}

/// Records the on_new_best stream: the report-side improvement trace.
struct BestRecorder : ProgressObserver {
  std::vector<ProgressEvent> events;
  void on_new_best(const ProgressEvent& event) override {
    events.push_back(event);
  }
};

TEST(DabsSolver, ImprovementTraceIsMonotone) {
  const QuboModel m = random_model(32, 0.5, 9, 4005);
  SolverConfig c = quick_config();
  c.stop.max_batches = 100;
  BestRecorder trace;
  SolveRequest req;
  req.model = &m;
  req.observer = &trace;
  const SolveReport r = DabsSolver(c).solve(req);
  ASSERT_FALSE(trace.events.empty());
  for (std::size_t i = 1; i < trace.events.size(); ++i) {
    EXPECT_LT(trace.events[i].best_energy, trace.events[i - 1].best_energy);
    EXPECT_GE(trace.events[i].elapsed_seconds,
              trace.events[i - 1].elapsed_seconds);
  }
  EXPECT_EQ(trace.events.back().best_energy, r.best_energy);
}

TEST(DabsSolver, AttributionCoversEveryImprovement) {
  const QuboModel m = random_model(20, 0.5, 9, 4006);
  SolverConfig c = quick_config();
  c.stop.max_batches = 80;
  BestRecorder trace;
  SolveRequest req;
  req.model = &m;
  req.observer = &trace;
  const SolveReport r = DabsSolver(c).solve(req);
  ASSERT_FALSE(trace.events.empty());
  EXPECT_EQ(r.extras.at("improvements"), std::to_string(trace.events.size()));
  EXPECT_TRUE(r.extras.contains("first_finder_algo"));
  EXPECT_TRUE(r.extras.contains("first_finder_op"));
}

TEST(DabsSolver, RestrictedAlgorithmSetIsHonored) {
  const QuboModel m = random_model(24, 0.5, 9, 4007);
  SolverConfig c = quick_config();
  c.algorithms = {MainSearch::kPositiveMin};
  c.stop.max_batches = 40;
  const SolveReport r = solve_on(DabsSolver(c), m);
  EXPECT_EQ(r.extras.at("freq_algo_PositiveMin"), "1");
  for (const auto& [key, value] : r.extras) {
    if (key.starts_with("freq_algo_")) {
      EXPECT_EQ(key, "freq_algo_PositiveMin");
    }
  }
}

TEST(DabsSolver, SynchronousModeIsDeterministic) {
  const QuboModel m = random_model(28, 0.5, 9, 4008);
  SolverConfig c = quick_config();
  c.stop.max_batches = 60;
  c.seed = 987;
  const SolveReport a = solve_on(DabsSolver(c), m);
  const SolveReport b = solve_on(DabsSolver(c), m);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best_solution, b.best_solution);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.extras, b.extras);
}

TEST(DabsSolver, DefaultConfigIsSynchronousAndDeterministic) {
  // A caller who builds a DabsSolver directly gets the synchronous round
  // loop, the registry's default; its batches run in parallel once they
  // add up to about a millisecond, which 1000 dense bits reach.
  EXPECT_EQ(SolverConfig{}.mode, ExecutionMode::kSynchronous);
  const QuboModel m = random_model(1000, 0.5, 9, 4013, QuboBackend::kDense);
  const auto solve = [&m] {
    SolveRequest req;
    req.model = &m;
    req.stop.max_batches = 24;
    return DabsSolver().solve(req);
  };
  const SolveReport a = solve();
  const SolveReport b = solve();
  EXPECT_EQ(a.batches, 24u);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best_solution, b.best_solution);
  EXPECT_EQ(a.flips, b.flips);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.extras, b.extras);
}

TEST(DabsSolver, CancelledParallelSolveCountsOnlyFoldedBatches) {
  // 1500 dense bits make batches slow enough that four islands run them
  // on helper threads; a token fired mid-run drops the batches in flight,
  // and neither `batches` nor `packets_generated` counts them.
  const QuboModel m = random_model(1500, 0.5, 9, 4014, QuboBackend::kDense);
  SolverConfig c = quick_config();
  c.devices = 4;
  c.device.blocks = 1;
  c.stop = {};
  SolveRequest req;
  req.model = &m;
  req.stop.time_limit_seconds = 60.0;
  std::thread canceller([&req] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    req.stop_token.request_stop();
  });
  const SolveReport r = DabsSolver(c).solve(req);
  canceller.join();
  EXPECT_TRUE(r.cancelled);
  EXPECT_LT(r.elapsed_seconds, 30.0);
  EXPECT_GT(r.batches, 0u);
  EXPECT_EQ(r.extras.at("packets_generated"), std::to_string(r.batches));
  EXPECT_EQ(m.energy(r.best_solution), r.best_energy);
}

TEST(DabsSolver, DifferentSeedsExploreDifferently) {
  const QuboModel m = random_model(28, 0.5, 9, 4009);
  SolverConfig c = quick_config();
  c.stop.max_batches = 60;
  c.seed = 1;
  const SolveReport a = solve_on(DabsSolver(c), m);
  c.seed = 2;
  const SolveReport b = solve_on(DabsSolver(c), m);
  EXPECT_TRUE(a.extras != b.extras || a.best_solution != b.best_solution);
}

TEST(DabsSolver, ThreadedModeSolvesAndStopsCleanly) {
  const QuboModel m = random_model(40, 0.5, 9, 4010);
  SolverConfig c = quick_config();
  c.mode = ExecutionMode::kThreaded;
  c.stop.max_batches = 100;
  const SolveReport r = solve_on(DabsSolver(c), m);
  EXPECT_GE(r.batches, 100u);
  EXPECT_NE(r.best_energy, kInfiniteEnergy);
  EXPECT_EQ(m.energy(r.best_solution), r.best_energy);
}

TEST(DabsSolver, ThreadedModeReachesExhaustiveOptimum) {
  const QuboModel m = random_model(14, 0.6, 9, 4011);
  const SolveReport truth = solve_on(ExhaustiveSolver(), m);
  SolverConfig c = quick_config();
  c.mode = ExecutionMode::kThreaded;
  c.stop.max_batches = 0;
  c.stop.time_limit_seconds = 10.0;
  c.stop.target_energy = truth.best_energy;
  const SolveReport r = solve_on(DabsSolver(c), m);
  EXPECT_TRUE(r.reached_target);
  EXPECT_EQ(r.best_energy, truth.best_energy);
}

TEST(DabsSolver, SingleDeviceRunWorks) {
  const QuboModel m = random_model(20, 0.5, 9, 4012);
  SolverConfig c = quick_config();
  c.devices = 1;
  c.stop.max_batches = 40;
  const SolveReport r = solve_on(DabsSolver(c), m);
  EXPECT_NE(r.best_energy, kInfiniteEnergy);
}

TEST(DabsSolver, ReportsTheFlipsOfEveryBatch) {
  // Each batch spends at least b * n = n flips (walk, greedy and main
  // search until the budget is met), so 16 synchronous K2000 batches
  // report at least 16 n, for dabs and for abs, the same for equal seeds.
  const QuboModel m = problems::maxcut_to_qubo(
      problems::make_complete_maxcut(2000, 7, "K2000"));
  SolverConfig c;
  c.mode = ExecutionMode::kSynchronous;
  c.stop.max_batches = 16;
  c.seed = 22;
  for (const bool abs : {false, true}) {
    SCOPED_TRACE(abs ? "abs" : "dabs");
    const auto run = [&] {
      return abs ? solve_on(AbsSolver(c), m) : solve_on(DabsSolver(c), m);
    };
    const SolveReport a = run();
    const SolveReport b = run();
    EXPECT_EQ(a.batches, 16u);
    EXPECT_GE(a.flips, 16u * m.size());
    EXPECT_EQ(a.flips, b.flips);
  }
}

TEST(AbsSolver, ConfigRestrictsToCyclicMinAndMutateCrossover) {
  const SolverConfig c = make_abs_config(quick_config());
  ASSERT_EQ(c.algorithms.size(), 1u);
  EXPECT_EQ(c.algorithms[0], MainSearch::kCyclicMin);
  ASSERT_EQ(c.operations.size(), 1u);
  EXPECT_EQ(c.operations[0], GeneticOp::kMutateCrossover);
  EXPECT_EQ(c.explore_prob, 0.0);
  EXPECT_FALSE(c.restart_on_merge);
}

TEST(AbsSolver, RunsAndOnlyUsesItsFeatureSet) {
  const QuboModel m = random_model(24, 0.5, 9, 4013);
  SolverConfig base = quick_config();
  base.stop.max_batches = 40;
  const SolveReport r = solve_on(AbsSolver(base), m);
  EXPECT_EQ(r.solver, "abs");
  EXPECT_EQ(r.extras.at("freq_algo_CyclicMin"), "1");
  EXPECT_EQ(r.extras.at("freq_op_MutateCrossover"), "1");
}

// The dabs/abs report contract: the exact extras key set a fixed-seed
// synchronous run emits and its attribution values (captured before the
// attribution keys moved into DiversityEngine::fill_extras), so moving a
// producer cannot silently drop, rename or recompute one.
SolverConfig contract_config() {
  SolverConfig c = quick_config();
  c.stop.max_batches = 60;
  c.seed = 2024;
  return c;
}

std::vector<std::string> keys_of(const SolveReport& r) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : r.extras) keys.push_back(key);
  return keys;
}

TEST(ReportContract, DabsExtrasKeySetAndAttribution) {
  const QuboModel m = random_model(32, 0.5, 9, 4100);
  const SolveReport r = solve_on(DabsSolver(contract_config()), m);
  const std::vector<std::string> expected = {
      "batch_threads",
      "first_finder_algo",     "first_finder_op",
      "freq_algo_CyclicMin",   "freq_algo_MaxMin",
      "freq_algo_PositiveMin", "freq_algo_RandomMin",
      "freq_algo_TwoNeighbor", "freq_op_Best",
      "freq_op_Crossover",     "freq_op_IntervalZero",
      "freq_op_Mutation",      "freq_op_One",
      "freq_op_Random",        "freq_op_Xrossover",
      "freq_op_Zero",          "improvements",
      "islands",               "migrations",
      "packets_accepted",      "packets_generated",
      "pool_entries",          "pool_entropy",
      "pool_mean_hamming",     "pool_min_hamming",
      "pool_restarts",         "serialized_rounds_migration",
      "serialized_rounds_restart", "serialized_rounds_xrossover",
      "win_algo_CyclicMin",
      "win_algo_MaxMin",       "win_algo_PositiveMin",
      "win_algo_RandomMin",    "win_algo_TwoNeighbor",
      "win_op_Best",           "win_op_Crossover",
      "win_op_IntervalZero",   "win_op_Mutation",
      "win_op_One",            "win_op_Random",
      "win_op_Xrossover",      "win_op_Zero"};
  EXPECT_EQ(keys_of(r), expected);
  EXPECT_EQ(r.solver, "dabs");
  EXPECT_EQ(r.best_energy, -195);
  EXPECT_EQ(r.batches, 60u);
  EXPECT_EQ(r.extras.at("first_finder_algo"), "PositiveMin");
  EXPECT_EQ(r.extras.at("first_finder_op"), "Best");
  EXPECT_EQ(r.extras.at("improvements"), "2");
}

TEST(ReportContract, AbsExtrasKeySetAndAttribution) {
  const QuboModel m = random_model(32, 0.5, 9, 4100);
  const SolveReport r = solve_on(AbsSolver(contract_config()), m);
  const std::vector<std::string> expected = {
      "batch_threads",
      "first_finder_algo",       "first_finder_op",
      "freq_algo_CyclicMin",     "freq_op_MutateCrossover",
      "improvements",            "islands",
      "migrations",              "packets_accepted",
      "packets_generated",       "pool_entries",
      "pool_entropy",            "pool_mean_hamming",
      "pool_min_hamming",        "pool_restarts",
      "serialized_rounds_migration", "serialized_rounds_restart",
      "serialized_rounds_xrossover",
      "win_algo_CyclicMin",      "win_op_MutateCrossover"};
  EXPECT_EQ(keys_of(r), expected);
  EXPECT_EQ(r.solver, "abs");
  EXPECT_EQ(r.best_energy, -195);
  EXPECT_EQ(r.batches, 60u);
  EXPECT_EQ(r.extras.at("first_finder_algo"), "CyclicMin");
  EXPECT_EQ(r.extras.at("first_finder_op"), "MutateCrossover");
  EXPECT_EQ(r.extras.at("improvements"), "2");
}

TEST(RunStats, SnapshotIsIndependentCopy) {
  RunStats stats;
  stats.record_batch(MainSearch::kMaxMin, GeneticOp::kZero);
  const RunStatsSnapshot snap = stats.snapshot();
  stats.record_batch(MainSearch::kMaxMin, GeneticOp::kZero);
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_EQ(stats.snapshot().batches, 2u);
}

TEST(RunStats, FractionsSumToOne) {
  RunStats stats;
  stats.record_batch(MainSearch::kMaxMin, GeneticOp::kZero);
  stats.record_batch(MainSearch::kCyclicMin, GeneticOp::kOne);
  stats.record_batch(MainSearch::kCyclicMin, GeneticOp::kOne);
  const RunStatsSnapshot snap = stats.snapshot();
  double algo_sum = 0, op_sum = 0;
  for (const MainSearch s : kAllMainSearches) algo_sum += snap.algo_fraction(s);
  for (std::size_t i = 0; i < kGeneticOpCount; ++i) {
    op_sum += snap.op_fraction(static_cast<GeneticOp>(i));
  }
  EXPECT_DOUBLE_EQ(algo_sum, 1.0);
  EXPECT_DOUBLE_EQ(op_sum, 1.0);
}

}  // namespace
}  // namespace dabs
