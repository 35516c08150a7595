// Tests for the unified solving surface: the SolverRegistry round-trip
// (every registered name constructs and solves through Solver::solve with
// sane report fields), option handling, observer callbacks and warm
// starts.  Campaigns over registry solvers are covered in campaign_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "baseline/exhaustive.hpp"
#include "core/solve_report.hpp"
#include "core/solver.hpp"
#include "core/solver_registry.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using testing::random_model;
using testing::solve_on;

const std::vector<std::string> kAllSolvers = {
    "dabs", "abs", "sa", "tabu", "greedy-restart", "subqubo", "exhaustive"};

TEST(SolverRegistry, ListsAllSevenSolvers) {
  const std::vector<SolverInfo> infos = SolverRegistry::global().list();
  std::vector<std::string> names;
  for (const SolverInfo& info : infos) {
    names.push_back(info.name);
    EXPECT_FALSE(info.description.empty()) << info.name;
  }
  for (const std::string& expected : kAllSolvers) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing solver: " << expected;
    EXPECT_TRUE(SolverRegistry::global().contains(expected));
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(SolverRegistry, RoundTripEveryRegisteredSolver) {
  const QuboModel m = random_model(12, 0.6, 9, 6000);
  for (const std::string& name : kAllSolvers) {
    const std::unique_ptr<Solver> solver =
        SolverRegistry::global().create(name);
    ASSERT_NE(solver, nullptr) << name;
    EXPECT_EQ(solver->name(), name);

    SolveRequest req;
    req.model = &m;
    req.stop.time_limit_seconds = 10.0;
    req.stop.max_batches = 60;
    req.seed = 7;
    const SolveReport r = solver->solve(req);

    EXPECT_EQ(r.solver, name);
    EXPECT_EQ(r.best_solution.size(), m.size()) << name;
    EXPECT_EQ(m.energy(r.best_solution), r.best_energy) << name;
    EXPECT_GE(r.elapsed_seconds, 0.0) << name;
    EXPECT_LT(r.elapsed_seconds, 10.0) << name;
    EXPECT_FALSE(r.cancelled) << name;
    EXPECT_FALSE(r.reached_target) << name;  // no target was set
    EXPECT_GT(r.flips + r.batches, 0u) << name;
  }
}

TEST(SolverRegistry, UnknownNameAndOptionsThrow) {
  // A removed solver is an unknown name.
  for (const char* name : {"no-such-solver", "path-relinking"}) {
    EXPECT_THROW((void)SolverRegistry::global().create(name),
                 std::invalid_argument)
        << name;
  }
  EXPECT_THROW((void)SolverRegistry::global().create(
                   "tabu", {{"tenrue", "8"}}),  // misspelled key
               std::invalid_argument);
  // Exhaustive enumerates on the calling thread: no worker count.
  EXPECT_THROW((void)SolverRegistry::global().create(
                   "exhaustive", {{"threads", "2"}}),
               std::invalid_argument);
  EXPECT_THROW((void)SolverRegistry::global().create(
                   "tabu", {{"tenure", "eight"}}),  // malformed value
               std::invalid_argument);
  EXPECT_THROW((void)SolverRegistry::global().create(
                   "dabs", {{"threads", "maybe"}}),
               std::invalid_argument);
  // Options narrowed to 32 bits are range-checked: a cast would wrap
  // blocks=2^32 + 2 to 2 blocks.
  const std::pair<const char*, SolverOptions> too_large[] = {
      {"dabs", {{"replicas", "4294967296"}}},
      {"tabu", {{"tenure", "4294967304"}}},
  };
  for (const auto& [name, options] : too_large) {
    EXPECT_THROW((void)SolverRegistry::global().create(name, options),
                 std::invalid_argument)
        << name << ' ' << options.values().begin()->first;
  }
  try {
    (void)SolverRegistry::global().create("dabs", {{"blocks", "4294967298"}});
    ADD_FAILURE() << "blocks=4294967298 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "solver option 'blocks': 4294967298 exceeds the bound "
                 "4294967295");
  }
}

TEST(SolverRegistry, WorkBudgetBoundsExhaustiveEnumeration) {
  // 2^20 Gray-code steps, but a work budget of 20k: the run must stop
  // within one 8192-step polling stride of the budget, not enumerate all.
  const QuboModel m = random_model(20, 0.5, 9, 6007);
  const std::unique_ptr<Solver> solver =
      SolverRegistry::global().create("exhaustive");
  SolveRequest req;
  req.model = &m;
  req.stop.max_batches = 20000;
  const SolveReport r = solver->solve(req);
  EXPECT_LT(r.flips, 20000u + 8192u);
  EXPECT_EQ(m.energy(r.best_solution), r.best_energy);
}

TEST(SolverRegistry, OptionsReachTheSolver) {
  const QuboModel m = random_model(10, 0.6, 9, 6001);
  // An exhaustive solver capped below the model size must refuse it.
  const std::unique_ptr<Solver> capped =
      SolverRegistry::global().create("exhaustive", {{"max-bits", "8"}});
  SolveRequest req;
  req.model = &m;
  EXPECT_THROW((void)capped->solve(req), std::invalid_argument);
}

TEST(SolverRegistry, ReplicasOptionRunsTheBulkEngine) {
  // replicas=R flows through to the bulk device path (implying threaded
  // mode) and still produces a consistent bounded run.
  const QuboModel m = random_model(60, 0.5, 9, 6005);
  const std::unique_ptr<Solver> solver = SolverRegistry::global().create(
      "dabs", {{"replicas", "8"}, {"devices", "1"}, {"blocks", "2"},
               {"seed", "9"}});
  SolveRequest req;
  req.model = &m;
  req.stop.max_batches = 200;
  req.stop.time_limit_seconds = 30.0;
  const SolveReport r = solver->solve(req);
  EXPECT_EQ(m.energy(r.best_solution), r.best_energy);
  EXPECT_GT(r.batches, 0u);
  // replicas > 1 with threads explicitly off must be rejected.
  EXPECT_THROW((void)SolverRegistry::global()
                   .create("dabs", {{"replicas", "8"}, {"threads", "false"}})
                   ->solve(req),
               std::invalid_argument);
}

TEST(SolverRegistry, TargetStopsBaselinesAndRecordsTts) {
  const QuboModel m = random_model(14, 0.6, 9, 6002);
  const Energy truth = solve_on(ExhaustiveSolver(), m).best_energy;
  for (const char* name : {"sa", "tabu", "greedy-restart"}) {
    const std::unique_ptr<Solver> solver =
        SolverRegistry::global().create(name);
    SolveRequest req;
    req.model = &m;
    req.stop.time_limit_seconds = 30.0;
    req.stop.target_energy = truth;
    req.seed = 11;
    const SolveReport r = solver->solve(req);
    EXPECT_TRUE(r.reached_target) << name;
    EXPECT_EQ(r.best_energy, truth) << name;
    EXPECT_GE(r.tts_seconds, 0.0) << name;
    EXPECT_LE(r.tts_seconds, r.elapsed_seconds + 1e-9) << name;
  }
}

TEST(SolverRegistry, WarmStartSeedsEverySolverWithTheOptimum) {
  const QuboModel m = random_model(12, 0.6, 9, 6003);
  const SolveReport truth = solve_on(ExhaustiveSolver(), m);
  for (const std::string& name : kAllSolvers) {
    if (name == "exhaustive") continue;  // exact: ignores warm starts
    const std::unique_ptr<Solver> solver =
        SolverRegistry::global().create(name);
    SolveRequest req;
    req.model = &m;
    req.stop.time_limit_seconds = 10.0;
    req.stop.max_batches = 5;  // almost no search: the warm start must carry
    req.warm_start = {truth.best_solution};
    req.seed = 3;
    const SolveReport r = solver->solve(req);
    EXPECT_EQ(r.best_energy, truth.best_energy) << name;
  }
}

TEST(SolverRegistry, ObserverSeesImprovementsAndRequestIsDeterministic) {
  const QuboModel m = random_model(24, 0.5, 9, 6004);

  struct Recorder : ProgressObserver {
    std::vector<Energy> bests;
    void on_new_best(const ProgressEvent& event) override {
      bests.push_back(event.best_energy);
    }
  } recorder;

  const std::unique_ptr<Solver> solver = SolverRegistry::global().create("sa");
  SolveRequest req;
  req.model = &m;
  req.stop.time_limit_seconds = 10.0;
  req.stop.max_batches = 4000;
  req.seed = 9;
  req.observer = &recorder;
  const SolveReport a = solver->solve(req);
  ASSERT_FALSE(recorder.bests.empty());
  // Strictly improving sequence, ending at the reported best.
  for (std::size_t i = 1; i < recorder.bests.size(); ++i) {
    EXPECT_LT(recorder.bests[i], recorder.bests[i - 1]);
  }
  EXPECT_EQ(recorder.bests.back(), a.best_energy);

  req.observer = nullptr;
  const SolveReport b = solver->solve(req);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best_solution, b.best_solution);
  EXPECT_EQ(a.flips, b.flips);
}

}  // namespace
}  // namespace dabs
