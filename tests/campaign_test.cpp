// Tests for the campaign runner (the tables' measurement protocol), over a
// thread-count axis, and the solution IO format.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baseline/exhaustive.hpp"
#include "core/campaign.hpp"
#include "core/dabs_solver.hpp"
#include "core/solver_registry.hpp"
#include "io/solution_io.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using testing::random_model;
using testing::solve_on;

SolverConfig campaign_config() {
  SolverConfig c;
  c.devices = 2;
  c.device.blocks = 2;
  c.mode = ExecutionMode::kSynchronous;
  c.stop.max_batches = 300;
  c.seed = 5;
  return c;
}

/// Campaign prototype: the per-trial budget and the seed every trial's
/// seed derives from.
SolveRequest campaign_proto(const QuboModel& m, std::uint64_t max_batches,
                            std::uint64_t seed) {
  SolveRequest proto;
  proto.model = &m;
  proto.stop.max_batches = max_batches;
  proto.seed = seed;
  return proto;
}

TEST(TrialRequest, DerivesDistinctSeedsAndKeepsThePrototype) {
  const QuboModel m = random_model(20, 0.5, 9, 8002);
  Rng rng(3);
  SolveRequest proto = campaign_proto(m, 300, 5);
  proto.stop.time_limit_seconds = 2.0;
  proto.warm_start = {testing::random_solution(20, rng)};
  std::vector<std::uint64_t> seeds;
  for (std::size_t t = 0; t < 4; ++t) {
    const SolveRequest req = trial_request(proto, -7, t);
    ASSERT_TRUE(req.seed.has_value());
    EXPECT_EQ(*req.seed, 5 + 0x9e3779b97f4a7c15ull * (t + 1));
    EXPECT_EQ(req.model, &m);
    EXPECT_EQ(req.stop.target_energy, -7);
    EXPECT_EQ(req.stop.max_batches, 300u);
    EXPECT_EQ(req.stop.time_limit_seconds, 2.0);
    EXPECT_EQ(req.warm_start, proto.warm_start);
    seeds.push_back(*req.seed);
  }
  for (std::size_t i = 1; i < seeds.size(); ++i) {
    EXPECT_NE(seeds[i], seeds[i - 1]);
  }
  // Without a prototype seed the solvers' default seed is the base.
  proto.seed.reset();
  EXPECT_EQ(*trial_request(proto, -7, 0).seed,
            SolverConfig{}.seed + 0x9e3779b97f4a7c15ull);
}

/// The thread-count axis: every campaign case runs serially on one worker
/// (1) and spread over workers (3).
class CampaignThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CampaignThreads, CountsSuccessesAgainstTarget) {
  const QuboModel m = random_model(14, 0.6, 9, 8000);
  const Energy truth = solve_on(ExhaustiveSolver(), m).best_energy;
  DabsSolver solver(campaign_config());
  const CampaignResult r = run_campaign(solver, campaign_proto(m, 300, 5),
                                        truth, 6, GetParam());
  EXPECT_EQ(r.runs, 6u);
  EXPECT_EQ(r.final_energies.size(), 6u);
  EXPECT_EQ(r.trial_seconds.size(), 6u);
  EXPECT_EQ(r.successes, r.tts_samples.size());
  EXPECT_GT(r.successes, 0u);  // trivial at this size
  EXPECT_EQ(r.best_energy, truth);
  EXPECT_EQ(m.energy(r.best_solution), truth);
  EXPECT_DOUBLE_EQ(r.success_rate(), double(r.successes) / 6.0);
}

TEST_P(CampaignThreads, UnreachableTargetYieldsZeroSuccesses) {
  const QuboModel m = random_model(12, 0.6, 9, 8001);
  const Energy truth = solve_on(ExhaustiveSolver(), m).best_energy;
  DabsSolver solver(campaign_config());
  const CampaignResult r = run_campaign(solver, campaign_proto(m, 300, 5),
                                        truth - 1, 3, GetParam());
  EXPECT_EQ(r.successes, 0u);
  EXPECT_EQ(r.tts.count(), 0u);
  EXPECT_DOUBLE_EQ(r.success_rate(), 0.0);
  EXPECT_EQ(r.best_energy, truth);
  EXPECT_EQ(r.tts_at(0.99), std::numeric_limits<double>::infinity());
}

TEST_P(CampaignThreads, RunsAnyRegistrySolver) {
  const QuboModel m = random_model(14, 0.6, 9, 8003);
  const Energy truth = solve_on(ExhaustiveSolver(), m).best_energy;
  SolveRequest proto = campaign_proto(m, 50000, 5);  // flips for baselines
  proto.stop.time_limit_seconds = 10.0;
  const std::vector<std::pair<std::string, SolverOptions>> solvers = {
      {"abs", {}}, {"tabu", {}}, {"sa", {{"restarts", "8"}}}};
  for (const auto& [name, opts] : solvers) {
    const std::unique_ptr<Solver> solver =
        SolverRegistry::global().create(name, opts);
    const CampaignResult r =
        run_campaign(*solver, proto, truth, 4, GetParam());
    EXPECT_EQ(r.runs, 4u) << name;
    EXPECT_GT(r.successes, 0u) << name;  // trivial at this size
    EXPECT_EQ(r.successes, r.tts_samples.size()) << name;
    EXPECT_EQ(r.best_energy, truth) << name;
  }
}

TEST_P(CampaignThreads, AggregateDoesNotDependOnThreadCount) {
  // Synchronous trials with the same derived seeds give identical
  // per-trial outcomes; reports are kept by slot, so order is preserved.
  const QuboModel m = random_model(16, 0.5, 9, 80);
  SolverConfig c = campaign_config();
  c.device.blocks = 1;
  DabsSolver solver(c);
  const SolveRequest proto = campaign_proto(m, 100, 11);
  const CampaignResult serial = run_campaign(solver, proto, -1, 6, 1);
  const CampaignResult r = run_campaign(solver, proto, -1, 6, GetParam());
  EXPECT_EQ(r.final_energies, serial.final_energies);
  EXPECT_EQ(r.successes, serial.successes);
  EXPECT_EQ(r.best_energy, serial.best_energy);
}

/// Test-only solver replaying fixed reports, keyed by the trial seed the
/// campaign derives, so each trial's outcome is known exactly.
class ScriptedSolver : public Solver {
 public:
  explicit ScriptedSolver(std::map<std::uint64_t, SolveReport> script)
      : script_(std::move(script)) {}
  std::string_view name() const noexcept override { return "scripted"; }
  SolveReport solve(const SolveRequest& request) override {
    return script_.at(request.seed.value());  // throws for unscripted trials
  }

 private:
  std::map<std::uint64_t, SolveReport> script_;
};

TEST_P(CampaignThreads, TtsAt99CountsFailedTrialTime) {
  // 10 trials: every third succeeds at 0.1 s, the rest fail after running
  // to a 1.0 s budget.  TTS(0.99) must use the mean time over *all* trials
  // (0.64 s), not over the successful ones (0.1 s).
  const QuboModel m = random_model(8, 0.5, 9, 8005);
  const SolveRequest proto = campaign_proto(m, 10, 42);
  const Energy target = -5;
  std::map<std::uint64_t, SolveReport> script;
  for (std::size_t t = 0; t < 10; ++t) {
    SolveReport rep;
    const bool success = t % 3 == 0;
    rep.best_energy = success ? target : target + 3;
    rep.reached_target = success;
    rep.tts_seconds = success ? 0.1 : 0.0;
    rep.elapsed_seconds = success ? 0.1 : 1.0;
    script.emplace(*trial_request(proto, target, t).seed, rep);
  }
  ScriptedSolver solver(script);
  const CampaignResult r = run_campaign(solver, proto, target, 10, GetParam());
  ASSERT_EQ(r.successes, 4u);
  EXPECT_DOUBLE_EQ(r.mean_trial_seconds(), (4 * 0.1 + 6 * 1.0) / 10);
  EXPECT_DOUBLE_EQ(r.tts.mean(), 0.1);
  EXPECT_DOUBLE_EQ(r.tts_at(0.99),
                   0.64 * std::log(1.0 - 0.99) / std::log(1.0 - 0.4));
  EXPECT_DOUBLE_EQ(r.tts_at(0.99), tts_at_confidence(0.64, 0.4, 0.99));

  // A trial that throws surfaces from the runner at every thread count.
  EXPECT_THROW((void)run_campaign(solver, proto, target, 11, GetParam()),
               std::out_of_range);
}

INSTANTIATE_TEST_SUITE_P(SerialAndThreaded, CampaignThreads,
                         ::testing::Values(std::size_t{1}, std::size_t{3}),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST(Campaign, ZeroThreadsRunSerially) {
  const QuboModel m = random_model(10, 0.5, 5, 81);
  SolverConfig c = campaign_config();
  c.devices = 1;
  c.device.blocks = 1;
  DabsSolver solver(c);
  const CampaignResult r =
      run_campaign(solver, campaign_proto(m, 20, 5), -1, 2, 0);
  EXPECT_EQ(r.runs, 2u);
}

TEST(SolutionIo, RoundTripThroughStream) {
  Rng rng(1);
  const BitVector x = testing::random_solution(77, rng);
  std::stringstream buf;
  io::write_solution(buf, x, -1234);
  const io::StoredSolution s = io::read_solution(buf);
  EXPECT_EQ(s.solution, x);
  EXPECT_EQ(s.energy, -1234);
}

TEST(SolutionIo, FileRoundTrip) {
  Rng rng(2);
  const BitVector x = testing::random_solution(33, rng);
  const std::string path = ::testing::TempDir() + "/dabs_solution_test.sol";
  io::write_solution_file(path, x, 42);
  const io::StoredSolution s = io::read_solution_file(path);
  EXPECT_EQ(s.solution, x);
  EXPECT_EQ(s.energy, 42);
}

TEST(SolutionIo, RejectsMalformedInput) {
  std::istringstream bad_header("nope 3 1\n010\n");
  EXPECT_THROW((void)io::read_solution(bad_header), std::invalid_argument);
  std::istringstream short_bits("solution 4 0\n010\n");
  EXPECT_THROW((void)io::read_solution(short_bits), std::invalid_argument);
  std::istringstream bad_bits("solution 3 0\n01x\n");
  EXPECT_THROW((void)io::read_solution(bad_bits), std::invalid_argument);
}

}  // namespace
}  // namespace dabs
