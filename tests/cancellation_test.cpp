// Cooperative-cancellation tests: a StopToken fired from another thread
// must halt DabsSolver (both execution modes) and every baseline mid-run
// within a bounded grace period, with the report flagging the
// cancellation.  This is the threaded path the sanitizer CI job exercises.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "core/solve_report.hpp"
#include "core/solver.hpp"
#include "core/solver_registry.hpp"
#include "test_helpers.hpp"
#include "util/timer.hpp"

namespace dabs {
namespace {

using testing::random_model;

// Generous: the point is "seconds, not the 30 s budget", even on a loaded
// CI runner.
constexpr double kGraceSeconds = 15.0;

/// Fires `token` after `delay_ms` from a helper thread while `solver` runs
/// an (effectively) unbounded request; returns the report.
SolveReport cancel_mid_run(Solver& solver, const QuboModel& model,
                           int delay_ms) {
  SolveRequest req;
  req.model = &model;
  req.stop.time_limit_seconds = 30.0;  // backstop only; token should win
  req.seed = 17;
  StopToken token = req.stop_token;
  std::thread firer([token, delay_ms] {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    token.request_stop();
  });
  const SolveReport report = solver.solve(req);
  firer.join();
  return report;
}

TEST(Cancellation, TokenHaltsEveryBaselineMidRun) {
  // Big enough that every baseline is still busy when the token fires;
  // params pushed far beyond the wall-clock budget.
  const QuboModel m = random_model(200, 0.5, 9, 12000);
  const std::pair<const char*, SolverOptions> cases[] = {
      {"sa", {{"sweeps", "100000000"}, {"restarts", "100000000"}}},
      {"tabu", {{"iterations", "1000000000"}}},
      {"greedy-restart", {{"restarts", "1000000000"}}},
      {"subqubo", {{"iterations", "100000000"}, {"restarts", "100000000"}}},
  };
  for (const auto& [name, options] : cases) {
    const std::unique_ptr<Solver> solver =
        SolverRegistry::global().create(name, options);
    Stopwatch wall;
    const SolveReport report = cancel_mid_run(*solver, m, 50);
    EXPECT_TRUE(report.cancelled) << name;
    EXPECT_LT(wall.elapsed_seconds(), kGraceSeconds) << name;
    EXPECT_EQ(report.solver, name);
    // A cancelled run still reports its best-so-far consistently.
    EXPECT_EQ(m.energy(report.best_solution), report.best_energy) << name;
  }
}

TEST(Cancellation, TokenHaltsExhaustiveEnumeration) {
  // 2^24 Gray-code steps: far more than 10 ms of enumeration.
  const QuboModel m = random_model(24, 0.5, 9, 12001);
  const std::unique_ptr<Solver> solver =
      SolverRegistry::global().create("exhaustive");
  Stopwatch wall;
  const SolveReport report = cancel_mid_run(*solver, m, 10);
  EXPECT_LT(wall.elapsed_seconds(), kGraceSeconds);
  EXPECT_TRUE(report.cancelled);
  EXPECT_LT(report.flips, (std::uint64_t{1} << 24) - 1);  // partial sweep
  EXPECT_EQ(m.energy(report.best_solution), report.best_energy);
}

TEST(Cancellation, TokenHaltsDabsInBothExecutionModes) {
  const QuboModel m = random_model(200, 0.5, 9, 12002);
  for (const bool threaded : {false, true}) {
    const std::unique_ptr<Solver> solver = SolverRegistry::global().create(
        "dabs", {{"threads", threaded ? "true" : "false"}});
    Stopwatch wall;
    const SolveReport report = cancel_mid_run(*solver, m, 50);
    EXPECT_TRUE(report.cancelled) << "threaded=" << threaded;
    EXPECT_LT(wall.elapsed_seconds(), kGraceSeconds)
        << "threaded=" << threaded;
    EXPECT_EQ(m.energy(report.best_solution), report.best_energy);
  }
}

TEST(Cancellation, PreFiredTokenReturnsImmediately) {
  const QuboModel m = random_model(64, 0.5, 9, 12003);
  for (const char* name : {"dabs", "sa", "tabu", "greedy-restart"}) {
    const std::unique_ptr<Solver> solver =
        SolverRegistry::global().create(name);
    SolveRequest req;
    req.model = &m;
    req.stop.time_limit_seconds = 30.0;
    req.stop_token.request_stop();
    Stopwatch wall;
    const SolveReport report = solver->solve(req);
    EXPECT_TRUE(report.cancelled) << name;
    EXPECT_LT(wall.elapsed_seconds(), kGraceSeconds) << name;
    if (std::string(name) != "dabs") {
      // Restart-style baselines complete their first descent/sweep, so
      // even a pre-fired token yields a usable solution.
      EXPECT_EQ(report.best_solution.size(), m.size()) << name;
      EXPECT_EQ(m.energy(report.best_solution), report.best_energy) << name;
    }
  }
}

}  // namespace
}  // namespace dabs
