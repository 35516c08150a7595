// Tests for the batch solve service: scheduling, waiting, cancellation,
// event logs, fault tolerance (retry/backoff, deadlines, admission
// control, journal + resume, interrupts), and the JSONL batch front end.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/json_reader.hpp"
#include "io/qubo_text.hpp"
#include "service/batch_runner.hpp"
#include "service/job_journal.hpp"
#include "service/solver_service.hpp"
#include "test_helpers.hpp"
#include "util/failpoint.hpp"

namespace dabs {
namespace {

using service::BatchJob;
using service::JobId;
using service::JobSnapshot;
using service::JobSpec;
using service::JobState;
using service::SolverService;

/// Partial Config without tripping -Wmissing-field-initializers.
SolverService::Config service_config(unsigned threads,
                                     std::size_t max_events_per_job = 64) {
  SolverService::Config config;
  config.threads = threads;
  config.max_events_per_job = max_events_per_job;
  return config;
}

std::shared_ptr<const QuboModel> shared_model(std::uint64_t seed,
                                              std::size_t n = 48) {
  return std::make_shared<const QuboModel>(
      testing::random_model(n, 0.3, 9, seed));
}

/// Work-budget-only spec: deterministic stop, no wall clock involved.
JobSpec budget_spec(std::shared_ptr<const QuboModel> model,
                    const std::string& solver, std::uint64_t budget,
                    std::uint64_t seed) {
  JobSpec spec;
  spec.model = std::move(model);
  spec.solver = solver;
  spec.stop.max_batches = budget;
  spec.seed = seed;
  return spec;
}

TEST(SolverService, RunsOneJobToCompletion) {
  SolverService svc;
  const JobId id = svc.submit(budget_spec(shared_model(1), "sa", 2000, 7));
  const JobSnapshot snap = svc.wait(id);
  EXPECT_EQ(snap.state, JobState::kDone);
  EXPECT_EQ(snap.report.solver, "sa");
  EXPECT_EQ(snap.report.best_solution.size(), 48u);
  EXPECT_LT(snap.report.best_energy, kInfiniteEnergy);
  EXPECT_FALSE(snap.report.cancelled);
  // Service provenance lands in the extras.
  EXPECT_EQ(snap.report.extras.at("job_id"), std::to_string(id));
  EXPECT_EQ(svc.stats().outstanding, 0u);
}

// Acceptance: a fixed-seed job through the service is bit-identical to the
// same SolveRequest run directly on a registry solver.
TEST(SolverService, ServiceRunMatchesDirectRunBitExactly) {
  const auto model = shared_model(3);
  for (const char* name : {"sa", "tabu", "greedy-restart"}) {
    SolverOptions options;
    const auto solver = SolverRegistry::global().create(name, options);
    SolveRequest req;
    req.model = model.get();
    req.stop.max_batches = 3000;
    req.seed = 12345;
    const SolveReport direct = solver->solve(req);

    SolverService svc;
    const JobId id = svc.submit(budget_spec(model, name, 3000, 12345));
    const SolveReport via_service = svc.wait(id).report;

    EXPECT_EQ(via_service.best_solution, direct.best_solution) << name;
    EXPECT_EQ(via_service.best_energy, direct.best_energy) << name;
    EXPECT_EQ(via_service.flips, direct.flips) << name;
    EXPECT_EQ(via_service.batches, direct.batches) << name;
    EXPECT_EQ(via_service.restarts, direct.restarts) << name;
    EXPECT_EQ(via_service.cancelled, direct.cancelled) << name;
  }
}

TEST(SolverService, SubmitValidatesSpec) {
  SolverService svc;
  JobSpec no_model;
  no_model.solver = "sa";
  EXPECT_THROW(svc.submit(std::move(no_model)), std::invalid_argument);

  EXPECT_THROW(svc.submit(budget_spec(shared_model(1), "nope", 10, 1)),
               std::invalid_argument);

  JobSpec bad_options = budget_spec(shared_model(1), "sa", 10, 1);
  bad_options.options.set("typo-key", "1");
  EXPECT_THROW(svc.submit(std::move(bad_options)), std::invalid_argument);

  EXPECT_THROW(svc.state(999), std::out_of_range);
  EXPECT_THROW(svc.snapshot(999), std::out_of_range);
  EXPECT_THROW(svc.wait(999), std::out_of_range);
  EXPECT_FALSE(svc.cancel(999));
}

TEST(SolverService, HigherPriorityRunsFirst) {
  SolverService svc(service_config(1));
  const auto model = shared_model(5);

  // Blocker keeps the single worker busy (or holds the queue head) while
  // the two probe jobs line up behind it.
  JobSpec blocker = budget_spec(model, "sa", 0, 1);
  blocker.stop.max_batches = 0;
  blocker.stop.time_limit_seconds = 30.0;  // cancelled below
  blocker.options.set("restarts", "1000000000");
  const JobId blocker_id = svc.submit(std::move(blocker));

  JobSpec low = budget_spec(model, "sa", 200, 2);
  low.priority = 0;
  const JobId low_id = svc.submit(std::move(low));

  JobSpec high = budget_spec(model, "sa", 200, 3);
  high.priority = 5;
  const JobId high_id = svc.submit(std::move(high));

  EXPECT_TRUE(svc.cancel(blocker_id));
  svc.wait_all();

  // Whatever the blocker did, the high-priority probe must have been
  // popped before the low-priority one.
  EXPECT_LT(svc.snapshot(high_id).started_seconds,
            svc.snapshot(low_id).started_seconds);
}

TEST(SolverService, ExtremePrioritiesScheduleAndCancelCleanly) {
  // INT_MIN priority is reachable from JSONL input; ordering and the
  // queued-cancel erase path must handle the full int range without UB
  // (this runs under UBSan in CI).
  SolverService svc(service_config(1));
  const auto model = shared_model(8);
  JobSpec lowest = budget_spec(model, "sa", 100, 1);
  lowest.priority = std::numeric_limits<int>::min();
  JobSpec highest = budget_spec(model, "sa", 100, 2);
  highest.priority = std::numeric_limits<int>::max();
  const JobId low_id = svc.submit(std::move(lowest));
  const JobId high_id = svc.submit(std::move(highest));
  EXPECT_TRUE(svc.cancel(low_id) || svc.state(low_id) != JobState::kQueued);
  svc.wait_all();
  EXPECT_EQ(svc.wait(high_id).state, JobState::kDone);
  EXPECT_TRUE(is_terminal(svc.state(low_id)));
}

// Satellite acceptance: N queued jobs, cancel half mid-flight, the rest
// complete and every report stays well-formed (run under ASan+UBSan in CI).
TEST(SolverService, CancellationUnderLoad) {
  constexpr std::size_t kJobs = 16;
  const auto model = shared_model(9);
  SolverService svc(service_config(2));

  std::vector<JobId> cancel_ids;
  std::vector<JobId> run_ids;
  for (std::size_t i = 0; i < kJobs; ++i) {
    if (i % 2 == 0) {
      // Unbounded-ish: only the StopToken can end these quickly.
      JobSpec spec = budget_spec(model, "tabu", 0, i);
      spec.stop.time_limit_seconds = 30.0;
      spec.options.set("iterations", "1000000000000");
      cancel_ids.push_back(svc.submit(std::move(spec)));
    } else {
      run_ids.push_back(
          svc.submit(budget_spec(model, i % 4 == 1 ? "sa" : "greedy-restart",
                                 1500, i)));
    }
  }

  for (const JobId id : cancel_ids) EXPECT_TRUE(svc.cancel(id));
  svc.wait_all();

  for (const JobId id : cancel_ids) {
    const JobSnapshot snap = svc.snapshot(id);
    EXPECT_EQ(snap.state, JobState::kCancelled) << "job " << id;
    EXPECT_TRUE(snap.report.cancelled);
  }
  for (const JobId id : run_ids) {
    const JobSnapshot snap = svc.snapshot(id);
    EXPECT_EQ(snap.state, JobState::kDone) << "job " << id;
    EXPECT_EQ(snap.report.best_solution.size(), model->size());
    EXPECT_LT(snap.report.best_energy, kInfiniteEnergy);
    EXPECT_FALSE(snap.report.cancelled);
  }
}

// Every terminal path — the worker, a canceller or the watchdog for a
// queued job, the submitter for a shed one, the destructor — runs the hook
// exactly once, before any reader can see the terminal state, and what the
// hook writes lands in the report.
TEST(SolverService, TransitionHookRunsOncePerJobBeforeTerminalIsVisible) {
  const auto model = shared_model(2);
  std::mutex mu;
  std::map<JobId, int> hooked;
  SolverService* self = nullptr;
  SolverService::Config config = service_config(1);
  config.max_queue_depth = 2;
  config.on_transition = [&](JobSnapshot& snap) {
    if (!is_terminal(snap.state)) return;
    EXPECT_FALSE(is_terminal(self->state(snap.id)));
    snap.report.extras["hooked"] = "yes";
    std::lock_guard lock(mu);
    ++hooked[snap.id];
  };
  std::vector<JobId> ids;
  {
    SolverService svc(config);
    self = &svc;
    // The blocker runs until the destructor cancels it on its worker.
    JobSpec blocker = budget_spec(model, "sa", 0, 1);
    blocker.stop.time_limit_seconds = 30.0;
    blocker.options.set("restarts", "1000000000");
    ids.push_back(svc.submit(std::move(blocker)));
    while (svc.state(ids[0]) == JobState::kQueued) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    JobSpec late = budget_spec(model, "sa", 100, 2);
    late.deadline_seconds = 0.05;
    ids.push_back(svc.submit(std::move(late)));
    ids.push_back(svc.submit(budget_spec(model, "sa", 100, 3)));
    ids.push_back(svc.submit(budget_spec(model, "sa", 100, 4)));  // shed
    EXPECT_EQ(svc.snapshot(ids[3]).report.extras.at("hooked"), "yes");
    EXPECT_EQ(svc.wait(ids[1]).report.extras.at("hooked"), "yes");
    EXPECT_TRUE(svc.cancel(ids[2]));
    EXPECT_EQ(svc.snapshot(ids[2]).report.extras.at("hooked"), "yes");
    ids.push_back(svc.submit(budget_spec(model, "sa", 100, 5)));  // queued
  }
  ASSERT_EQ(hooked.size(), ids.size());
  for (const auto& [id, calls] : hooked) EXPECT_EQ(calls, 1) << "job " << id;
}

TEST(SolverService, EventLogIsBoundedAndChronological) {
  SolverService svc(service_config(1, 4));
  JobSpec spec = budget_spec(shared_model(4), "greedy-restart", 4000, 11);
  spec.tick_seconds = 1e-4;
  spec.tag = "evented";
  const JobId id = svc.submit(std::move(spec));
  const JobSnapshot snap = svc.wait(id);

  EXPECT_EQ(snap.state, JobState::kDone);
  EXPECT_LE(snap.events.size(), 4u);
  EXPECT_FALSE(snap.events.empty());  // greedy descent always improves once
  for (std::size_t i = 1; i < snap.events.size(); ++i) {
    EXPECT_LE(snap.events[i - 1].elapsed_seconds,
              snap.events[i].elapsed_seconds);
  }
  EXPECT_EQ(snap.report.extras.at("tag"), "evented");
}

TEST(SolverService, SpecExtrasMergeIntoReport) {
  SolverService svc;
  JobSpec spec = budget_spec(shared_model(6), "sa", 500, 3);
  spec.extras["origin"] = "unit-test";
  const JobId id = svc.submit(std::move(spec));
  const JobSnapshot snap = svc.wait(id);
  EXPECT_EQ(snap.report.extras.at("origin"), "unit-test");
}

TEST(SolverService, PoolMetricsSettleAtZero) {
  SolverService svc;
  for (int i = 0; i < 6; ++i) {
    (void)svc.submit(budget_spec(shared_model(1), "sa", 300, i));
  }
  svc.wait_all();
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.outstanding, 0u);
  // The six equal models interned by the caller would have shared one
  // cache entry; here they bypassed the cache, so it stays empty.
  EXPECT_EQ(svc.cache().stats().entries, 0u);
}

// ---- Retry / backoff -----------------------------------------------------

TEST(SolverService, RetryBackoffDoublesCapsAndJitters) {
  // Deterministic for a fixed (salt, failures); monotone doubling under
  // the cap; jitter stays within [0.5, 1.0]x of the nominal value.
  const double first = service::retry_backoff(0.1, 10.0, 1, 42);
  EXPECT_EQ(first, service::retry_backoff(0.1, 10.0, 1, 42));
  EXPECT_GE(first, 0.05);
  EXPECT_LE(first, 0.1);
  const double fourth = service::retry_backoff(0.1, 10.0, 4, 42);
  EXPECT_GE(fourth, 0.4);   // 0.1 * 2^3 * 0.5
  EXPECT_LE(fourth, 0.8);
  const double capped = service::retry_backoff(0.1, 0.3, 10, 42);
  EXPECT_LE(capped, 0.3);
  EXPECT_GE(capped, 0.15);
  // Distinct salts decorrelate distinct jobs' schedules.
  EXPECT_NE(service::retry_backoff(0.1, 10.0, 3, 1),
            service::retry_backoff(0.1, 10.0, 3, 2));
}

/// Clears failpoint state on scope exit so a failing assertion cannot leak
/// an armed point into the next test.
struct FailpointGuard {
  ~FailpointGuard() { fail::clear(); }
};

TEST(SolverService, RetryableFaultRecoversWithinAttemptBudget) {
  if (!fail::compiled_in()) GTEST_SKIP() << "DABS_FAILPOINTS=OFF";
  FailpointGuard guard;
  fail::configure("service.worker", "first:2,oom");  // fail, fail, pass
  SolverService svc;
  JobSpec spec = budget_spec(shared_model(3), "sa", 300, 5);
  spec.max_attempts = 3;
  spec.retry_backoff_seconds = 0.01;
  const JobId id = svc.submit(std::move(spec));
  const JobSnapshot snap = svc.wait(id);
  EXPECT_EQ(snap.state, JobState::kDone);
  EXPECT_EQ(snap.report.extras.at("attempts"), "3");
  EXPECT_EQ(snap.report.extras.at("disposition"), "retried");
  EXPECT_EQ(fail::hits("service.worker"), 3u);
}

TEST(SolverService, RetryExhaustionFails) {
  if (!fail::compiled_in()) GTEST_SKIP() << "DABS_FAILPOINTS=OFF";
  FailpointGuard guard;
  fail::configure("service.worker", "always,retryable");
  SolverService svc;
  JobSpec spec = budget_spec(shared_model(3), "sa", 300, 5);
  spec.max_attempts = 2;
  spec.retry_backoff_seconds = 0.01;
  const JobId id = svc.submit(std::move(spec));
  const JobSnapshot snap = svc.wait(id);
  EXPECT_EQ(snap.state, JobState::kFailed);
  EXPECT_TRUE(fail::is_retryable_message(snap.error));
  EXPECT_EQ(snap.report.extras.at("attempts"), "2");
  EXPECT_EQ(snap.report.extras.at("disposition"), "failed");
}

TEST(SolverService, NonRetryableFaultFailsOnFirstAttempt) {
  if (!fail::compiled_in()) GTEST_SKIP() << "DABS_FAILPOINTS=OFF";
  FailpointGuard guard;
  fail::configure("service.worker", "always");  // plain fault: no retry
  SolverService svc;
  JobSpec spec = budget_spec(shared_model(3), "sa", 300, 5);
  spec.max_attempts = 5;
  const JobId id = svc.submit(std::move(spec));
  const JobSnapshot snap = svc.wait(id);
  EXPECT_EQ(snap.state, JobState::kFailed);
  EXPECT_EQ(snap.report.extras.at("attempts"), "1");
  EXPECT_EQ(fail::hits("service.worker"), 1u);
}

TEST(SolverService, QueuePushFailpointSurfacesAtSubmit) {
  if (!fail::compiled_in()) GTEST_SKIP() << "DABS_FAILPOINTS=OFF";
  FailpointGuard guard;
  fail::configure("service.queue_push", "nth:2");
  SolverService svc;
  const JobId ok = svc.submit(budget_spec(shared_model(3), "sa", 200, 1));
  EXPECT_THROW(svc.submit(budget_spec(shared_model(3), "sa", 200, 2)),
               fail::InjectedFault);
  EXPECT_EQ(svc.wait(ok).state, JobState::kDone);
  EXPECT_EQ(svc.stats().outstanding, 0u);  // the failed submit left no ghost
}

TEST(SolverService, CancelInterruptsRetryBackoff) {
  if (!fail::compiled_in()) GTEST_SKIP() << "DABS_FAILPOINTS=OFF";
  FailpointGuard guard;
  fail::configure("service.worker", "always,retryable");
  SolverService svc;
  JobSpec spec = budget_spec(shared_model(3), "sa", 300, 5);
  spec.max_attempts = 100;
  spec.retry_backoff_seconds = 30.0;  // only cancellation can end this soon
  spec.retry_backoff_max_seconds = 30.0;
  const JobId id = svc.submit(std::move(spec));
  // Give the first attempt time to fail and enter its backoff sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(svc.cancel(id));
  ASSERT_TRUE(svc.wait_all_for(10.0)) << "cancel did not interrupt the backoff";
  EXPECT_EQ(svc.state(id), JobState::kCancelled);
}

// ---- Deadlines -----------------------------------------------------------

TEST(SolverService, DeadlineCancelsRunningJob) {
  SolverService svc(service_config(1));
  JobSpec spec = budget_spec(shared_model(2), "tabu", 0, 1);
  spec.stop.time_limit_seconds = 30.0;
  spec.options.set("iterations", "1000000000000");
  spec.deadline_seconds = 0.15;
  const JobId id = svc.submit(std::move(spec));
  const JobSnapshot snap = svc.wait(id);
  EXPECT_EQ(snap.state, JobState::kCancelled);
  EXPECT_TRUE(snap.report.cancelled);
  EXPECT_EQ(snap.report.extras.at("deadline_exceeded"), "true");
  EXPECT_EQ(snap.report.extras.at("disposition"), "deadline");
}

TEST(SolverService, DeadlineRetiresQueuedJob) {
  SolverService svc(service_config(1));
  const auto model = shared_model(2);
  // The blocker owns the single worker; the probe's deadline expires while
  // it is still queued, so the watchdog retires it without it ever running.
  JobSpec blocker = budget_spec(model, "sa", 0, 1);
  blocker.stop.time_limit_seconds = 30.0;
  blocker.options.set("restarts", "1000000000");
  const JobId blocker_id = svc.submit(std::move(blocker));
  JobSpec probe = budget_spec(model, "sa", 200, 2);
  probe.deadline_seconds = 0.1;
  const JobId probe_id = svc.submit(std::move(probe));

  const JobSnapshot snap = svc.wait(probe_id);
  EXPECT_EQ(snap.state, JobState::kCancelled);
  EXPECT_EQ(snap.report.extras.at("deadline_exceeded"), "true");
  EXPECT_TRUE(snap.report.best_solution.empty());  // never ran

  EXPECT_TRUE(svc.cancel(blocker_id));
  svc.wait_all();
}

TEST(SolverService, DeadlineDoesNotTouchJobsThatFinishInTime) {
  SolverService svc;
  JobSpec spec = budget_spec(shared_model(2), "sa", 200, 1);
  spec.deadline_seconds = 30.0;
  const JobId id = svc.submit(std::move(spec));
  const JobSnapshot snap = svc.wait(id);
  EXPECT_EQ(snap.state, JobState::kDone);
  EXPECT_EQ(snap.report.extras.count("deadline_exceeded"), 0u);
}

// ---- Admission control ---------------------------------------------------

TEST(SolverService, AdmissionControlShedsOverCapacitySubmits) {
  SolverService::Config config;
  config.threads = 1;
  config.max_queue_depth = 1;
  SolverService svc(std::move(config));
  const auto model = shared_model(2);

  JobSpec blocker = budget_spec(model, "sa", 0, 1);
  blocker.stop.time_limit_seconds = 30.0;
  blocker.options.set("restarts", "1000000000");
  const JobId blocker_id = svc.submit(std::move(blocker));
  // Wait until the worker owns the blocker so the queue is observably
  // empty — makes the admission decisions below deterministic.
  while (svc.state(blocker_id) == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const JobId queued_id = svc.submit(budget_spec(model, "sa", 200, 2));
  EXPECT_EQ(svc.state(queued_id), JobState::kQueued);
  const JobId shed_id = svc.submit(budget_spec(model, "sa", 200, 3));
  // Shed immediately: terminal at submit, with the reason recorded.
  const JobSnapshot shed = svc.snapshot(shed_id);
  EXPECT_EQ(shed.state, JobState::kRejected);
  EXPECT_NE(shed.error.find("queue"), std::string::npos);
  EXPECT_EQ(shed.report.extras.at("disposition"), "rejected");

  EXPECT_TRUE(svc.cancel(blocker_id));
  svc.wait_all();
  EXPECT_EQ(svc.stats().rejected, 1u);
  EXPECT_EQ(svc.wait(queued_id).state, JobState::kDone);
}

// ---- JSONL front end -----------------------------------------------------

TEST(BatchRunner, ParsesFullJobLine) {
  const BatchJob job = service::parse_batch_job(
      R"({"model": "m.txt", "format": "qubo", "solver": "tabu",
          "options": {"tenure": 8, "seed": "9"}, "time_limit": 1.5,
          "max_batches": 100, "target": -42, "seed": 7, "priority": 2,
          "tag": "hot", "tick": 0.25})");
  EXPECT_EQ(job.model_path, "m.txt");
  EXPECT_EQ(job.format, "qubo");
  EXPECT_EQ(job.spec.solver, "tabu");
  EXPECT_EQ(job.spec.options.get("tenure", ""), "8");
  EXPECT_EQ(job.spec.options.get("seed", ""), "9");
  EXPECT_DOUBLE_EQ(job.spec.stop.time_limit_seconds, 1.5);
  EXPECT_EQ(job.spec.stop.max_batches, 100u);
  ASSERT_TRUE(job.spec.stop.target_energy.has_value());
  EXPECT_EQ(*job.spec.stop.target_energy, -42);
  ASSERT_TRUE(job.spec.seed.has_value());
  EXPECT_EQ(*job.spec.seed, 7u);
  EXPECT_EQ(job.spec.priority, 2);
  EXPECT_EQ(job.spec.tag, "hot");
  EXPECT_DOUBLE_EQ(job.spec.tick_seconds, 0.25);
}

TEST(BatchRunner, ParsesProblemJobLine) {
  const BatchJob job = service::parse_batch_job(
      R"({"problem": "qap", "params": {"kind": "uniform", "n": 4, "seed": 7},
          "solver": "sa", "max_batches": 50})");
  EXPECT_EQ(job.problem, "qap");
  EXPECT_TRUE(job.model_path.empty());
  EXPECT_EQ(job.params.get("kind", ""), "uniform");
  EXPECT_EQ(job.params.get("n", ""), "4");
  EXPECT_EQ(job.params.get("seed", ""), "7");
  EXPECT_EQ(job.spec.solver, "sa");
  EXPECT_EQ(job.spec.stop.max_batches, 50u);
}

TEST(BatchRunner, RejectsBadJobLines) {
  EXPECT_THROW(service::parse_batch_job("[]"), std::invalid_argument);
  EXPECT_THROW(service::parse_batch_job("{}"), std::invalid_argument);
  EXPECT_THROW(service::parse_batch_job(R"({"model": ""})"),
               std::invalid_argument);
  EXPECT_THROW(service::parse_batch_job(R"({"model": "m", "wat": 1})"),
               std::invalid_argument);
  EXPECT_THROW(service::parse_batch_job(R"({"model": "m", "seed": -1})"),
               std::invalid_argument);
  EXPECT_THROW(
      service::parse_batch_job(R"({"model": "m", "time_limit": -2})"),
      std::invalid_argument);
  EXPECT_THROW(
      service::parse_batch_job(R"({"model": "m", "priority": 4294967296})"),
      std::invalid_argument);
  EXPECT_THROW(service::parse_batch_job(R"({"model": "m", "format": "x"})"),
               std::invalid_argument);
  EXPECT_THROW(
      service::parse_batch_job(R"({"model": "m", "options": {"k": []}})"),
      std::invalid_argument);
  // The model/problem split: exactly one, with its matching companions.
  EXPECT_THROW(service::parse_batch_job(R"({"problem": ""})"),
               std::invalid_argument);
  EXPECT_THROW(
      service::parse_batch_job(R"({"model": "m", "problem": "qap"})"),
      std::invalid_argument);
  EXPECT_THROW(
      service::parse_batch_job(R"({"problem": "qap", "format": "qubo"})"),
      std::invalid_argument);
  EXPECT_THROW(
      service::parse_batch_job(R"({"model": "m", "params": {"n": 4}})"),
      std::invalid_argument);
}

TEST(BatchRunner, TimeGovernedBudgetsLiftBaselineDefaults) {
  StopCondition stop;
  stop.time_limit_seconds = 1.0;
  SolverOptions opts;
  service::apply_time_governed_budgets("sa", stop, opts);
  EXPECT_EQ(opts.get("restarts", ""), "1000000000");

  // Explicit values win.
  SolverOptions explicit_opts;
  explicit_opts.set("restarts", "5");
  service::apply_time_governed_budgets("sa", stop, explicit_opts);
  EXPECT_EQ(explicit_opts.get("restarts", ""), "5");

  // Unbounded runs keep the solver's own defaults.
  SolverOptions untouched;
  service::apply_time_governed_budgets("sa", StopCondition{}, untouched);
  EXPECT_FALSE(untouched.has("restarts"));

  // A target alone is not a bound: lifting on it would turn a
  // terminating run into an unbounded one.
  StopCondition target_only;
  target_only.target_energy = -999999;
  SolverOptions target_opts;
  service::apply_time_governed_budgets("sa", target_only, target_opts);
  EXPECT_FALSE(target_opts.has("restarts"));

  // A work budget counts as a bound.
  StopCondition work_only;
  work_only.max_batches = 100;
  SolverOptions work_opts;
  service::apply_time_governed_budgets("sa", work_only, work_opts);
  EXPECT_TRUE(work_opts.has("restarts"));
}

TEST(BatchRunner, EndToEndStreamsOneReportPerLine) {
  const std::string dir = ::testing::TempDir();
  const std::string path_a = dir + "/batch_a.txt";
  const std::string path_b = dir + "/batch_b.txt";
  const std::string path_c = dir + "/batch_c.txt";  // same content as a
  io::write_qubo_file(path_a, testing::random_model(24, 0.4, 5, 21));
  io::write_qubo_file(path_b, testing::random_model(24, 0.4, 5, 22));
  io::write_qubo_file(path_c, testing::random_model(24, 0.4, 5, 21));

  std::ostringstream jobs;
  jobs << "# header comment, then a blank line\n\n";
  const char* solvers[] = {"sa", "tabu", "greedy-restart"};
  for (int k = 0; k < 9; ++k) {
    const std::string& path = (k % 3 == 0) ? path_a : (k % 3 == 1 ? path_b
                                                                  : path_c);
    jobs << R"({"model": ")" << path << R"(", "solver": ")" << solvers[k % 3]
         << R"(", "max_batches": 400, "seed": )" << k << R"(, "tag": "j)" << k
         << "\"}\n";
  }
  // Target-only job: unreachable target, no explicit budget — must be
  // bounded by default_time_limit instead of hanging the batch.
  jobs << R"({"model": ")" << path_a
       << R"(", "solver": "sa", "target": -999999999, "seed": 99})" << "\n";
  jobs << "this is not json\n";
  jobs << R"({"model": ")" << path_a << R"(", "solver": "no-such"})" << "\n";
  jobs << R"({"model": ")" << dir << R"(/missing.txt"})" << "\n";

  std::istringstream in(jobs.str());
  std::ostringstream out;
  std::ostringstream err;
  service::BatchOptions options;
  options.threads = 4;
  options.default_time_limit = 0.2;
  const int exit_code = service::run_batch(in, out, err, options);
  EXPECT_EQ(exit_code, 1);  // the three bad lines

  std::istringstream lines(out.str());
  std::string line;
  int done = 0;
  int invalid = 0;
  int failed = 0;
  int cache_hits = 0;
  std::set<std::uint64_t> job_ids;
  while (std::getline(lines, line)) {
    const io::JsonValue v = io::parse_json(line);  // every line parses
    const std::string status = v.find("status")->as_string();
    if (status == "done") {
      ++done;
      EXPECT_TRUE(job_ids.insert(static_cast<std::uint64_t>(
                                     v.find("job_id")->as_int()))
                      .second);
      const io::JsonValue* report = v.find("report");
      ASSERT_NE(report, nullptr);
      EXPECT_LT(report->find("best_energy")->as_double(), 1e18);
      const io::JsonValue* extras = report->find("extras");
      ASSERT_NE(extras, nullptr);
      if (extras->find("model_cache")->as_string() == "hit") ++cache_hits;
    } else if (status == "failed") {
      ++failed;  // the unreadable model file: environment, not schema
      EXPECT_NE(v.find("error"), nullptr);
    } else {
      ++invalid;
      EXPECT_EQ(status, "invalid");
      EXPECT_NE(v.find("error"), nullptr);
    }
  }
  EXPECT_EQ(done, 10);    // includes the target-only job, time-bounded
  EXPECT_EQ(invalid, 2);  // non-JSON line, unknown solver
  EXPECT_EQ(failed, 1);   // missing model file
  // Repeated paths hit by key; path_c additionally dedupes by content
  // against path_a, so at most two distinct models were parsed.
  EXPECT_GE(cache_hits, 6);
  EXPECT_NE(err.str().find("model cache"), std::string::npos);
}

TEST(BatchRunner, ProblemJobsDecodeVerifyAndShareCache) {
  // Two identical problem specs (cache key dedupe), one MaxCut job, one
  // unknown problem, one typo'd param; the legacy "format" path rides in
  // the same batch.
  std::ostringstream jobs;
  jobs << R"({"problem": "qap", "params": {"kind": "uniform", "n": 4,)"
       << R"( "seed": 171}, "solver": "sa", "max_batches": 30000,)"
       << R"( "seed": 1, "tag": "qap-a"})" << "\n"
       << R"({"problem": "qap", "params": {"kind": "uniform", "n": 4,)"
       << R"( "seed": 171}, "solver": "tabu", "max_batches": 20000,)"
       << R"( "seed": 2, "tag": "qap-b"})" << "\n"
       << R"({"problem": "maxcut", "params": {"n": 24, "m": 60},)"
       << R"( "solver": "greedy-restart", "max_batches": 20000, "seed": 3})"
       << "\n"
       << R"({"problem": "no-such-problem"})" << "\n"
       << R"({"problem": "qap", "params": {"wat": 1}})" << "\n"
       << R"({"problem": "gset:/no/such/file.txt"})" << "\n";

  std::istringstream in(jobs.str());
  std::ostringstream out;
  std::ostringstream err;
  service::BatchOptions options;
  options.threads = 2;
  const int exit_code = service::run_batch(in, out, err, options);
  EXPECT_EQ(exit_code, 1);  // the two invalid problem lines

  std::istringstream lines(out.str());
  std::string line;
  int done = 0;
  int invalid = 0;
  int load_failed = 0;
  int cache_hits = 0;
  int verified = 0;
  while (std::getline(lines, line)) {
    const io::JsonValue v = io::parse_json(line);
    const std::string status = v.find("status")->as_string();
    if (status == "failed") {
      // The unreadable gset file: environment, not schema — retryable
      // even though it arrived as a problem spec.
      ++load_failed;
      continue;
    }
    if (status != "done") {
      ++invalid;
      EXPECT_EQ(status, "invalid");
      continue;
    }
    ++done;
    const io::JsonValue* extras = v.find("report")->find("extras");
    ASSERT_NE(extras, nullptr);
    // Satellite contract: problem-keyed jobs stream their decoded domain
    // objective and feasibility verdict.
    ASSERT_NE(extras->find("objective"), nullptr);
    ASSERT_NE(extras->find("feasible"), nullptr);
    EXPECT_EQ(extras->find("feasible")->as_string(), "true");
    if (extras->find("verified")->as_string() == "true") ++verified;
    if (extras->find("model_cache")->as_string() == "hit") ++cache_hits;
    const std::string objective_name =
        extras->find("objective_name")->as_string();
    if (objective_name == "assignment_cost") {
      // Both QAP jobs solved the 4-facility instance to its optimum (the
      // budget dwarfs the 16-variable space): fixed decoded cost 440.
      EXPECT_EQ(extras->find("objective")->as_string(), "440");
      EXPECT_EQ(extras->find("assignment")->as_string(), "2 1 3 0");
    } else {
      EXPECT_EQ(objective_name, "cut");
    }
  }
  EXPECT_EQ(done, 3);
  EXPECT_EQ(invalid, 2);
  EXPECT_EQ(load_failed, 1);
  EXPECT_EQ(verified, 3);
  EXPECT_EQ(cache_hits, 1);  // the duplicated qap spec shares one model
}

// ---- Batch fault tolerance -----------------------------------------------

namespace {

/// Problem-keyed jobs (no files on disk) keep these tests hermetic.
std::string small_batch_jobs(int count) {
  std::ostringstream jobs;
  for (int i = 0; i < count; ++i) {
    jobs << R"({"problem": "maxcut", "params": {"n": 16, "m": 40, "seed": )"
         << 100 + i << R"(}, "solver": "sa", "max_batches": 200, "seed": )"
         << i << R"(, "tag": "ft)" << i << "\"}\n";
  }
  return jobs.str();
}

std::string fresh_journal_path(const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

}  // namespace

TEST(BatchRunner, FingerprintsAreStableAndOrderInsensitive) {
  const BatchJob a = service::parse_batch_job(
      R"({"problem": "maxcut", "params": {"n": 16, "m": 40}, "seed": 1,
          "solver": "sa", "max_batches": 100})");
  const BatchJob b = service::parse_batch_job(
      R"({"max_batches": 100, "solver": "sa", "seed": 1,
          "params": {"m": 40, "n": 16}, "problem": "maxcut"})");
  EXPECT_EQ(service::job_fingerprint(a), service::job_fingerprint(b));
  EXPECT_EQ(service::job_fingerprint(a).size(), 16u);

  // Any identity field flips the digest.
  BatchJob c = service::parse_batch_job(
      R"({"problem": "maxcut", "params": {"n": 16, "m": 40}, "seed": 2,
          "solver": "sa", "max_batches": 100})");
  EXPECT_NE(service::job_fingerprint(a), service::job_fingerprint(c));
}

TEST(BatchRunner, JournalRecordsLifecycleAndResumeSkipsFinishedJobs) {
  const std::string journal = fresh_journal_path("batch_resume.jsonl");
  const std::string jobs = small_batch_jobs(4);

  service::BatchOptions options;
  options.threads = 2;
  options.journal_path = journal;
  {
    std::istringstream in(jobs);
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(service::run_batch(in, out, err, options), 0);
    std::istringstream lines(out.str());
    std::string line;
    int reports = 0;
    while (std::getline(lines, line)) {
      ++reports;
      const io::JsonValue v = io::parse_json(line);
      EXPECT_EQ(v.find("status")->as_string(), "done");
      ASSERT_NE(v.find("fingerprint"), nullptr);
    }
    EXPECT_EQ(reports, 4);
    EXPECT_NE(err.str().find("journal: "), std::string::npos);
  }
  // The journal saw every transition and every job ended terminal.
  const service::JobJournal::Replay replay =
      service::JobJournal::replay(journal);
  EXPECT_EQ(replay.skipped, 0u);
  EXPECT_EQ(replay.last_event.size(), 4u);
  for (const auto& [fp, event] : replay.last_event) {
    EXPECT_EQ(event, service::JournalEvent::kDone) << fp;
  }

  // Resume against the same jobs file: everything already terminal, so
  // nothing re-runs and nothing is emitted twice.
  options.resume = true;
  std::istringstream in(jobs);
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(service::run_batch(in, out, err, options), 0);
  EXPECT_EQ(out.str(), "");
  EXPECT_NE(err.str().find("resumed: 4 already terminal"),
            std::string::npos);
}

TEST(BatchRunner, ResumeRerunsJobsWithoutTerminalRecords) {
  // A journal that shows two submitted jobs but only one finished — the
  // shape a kill -9 mid-batch leaves.  Resume re-runs exactly the other.
  const std::string journal = fresh_journal_path("batch_partial.jsonl");
  const std::string jobs = small_batch_jobs(2);

  // First pass: learn both fingerprints by running the full batch.
  service::BatchOptions options;
  options.threads = 2;
  options.journal_path = journal;
  std::vector<std::string> fingerprints;
  {
    std::istringstream in(jobs);
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(service::run_batch(in, out, err, options), 0);
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
      fingerprints.push_back(
          io::parse_json(line).find("fingerprint")->as_string());
    }
  }
  ASSERT_EQ(fingerprints.size(), 2u);

  // Forge the crash journal: job 0 finished, job 1 only started.
  std::remove(journal.c_str());
  {
    service::JobJournal forge(journal);
    service::JournalRecord r;
    r.fingerprint = fingerprints[0];
    forge.append(r);
    r.event = service::JournalEvent::kDone;
    forge.append(r);
    r.event = service::JournalEvent::kSubmitted;
    r.fingerprint = fingerprints[1];
    forge.append(r);
    r.event = service::JournalEvent::kStarted;
    forge.append(r);
  }

  options.resume = true;
  std::istringstream in(jobs);
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(service::run_batch(in, out, err, options), 0);
  std::istringstream lines(out.str());
  std::string line;
  int reports = 0;
  while (std::getline(lines, line)) {
    ++reports;
    EXPECT_EQ(io::parse_json(line).find("fingerprint")->as_string(),
              fingerprints[1]);
  }
  EXPECT_EQ(reports, 1);
}

TEST(BatchRunner, JournalAppendFailureDegradesGracefully) {
  if (!fail::compiled_in()) GTEST_SKIP() << "DABS_FAILPOINTS=OFF";
  FailpointGuard guard;
  fail::configure("journal.append", "always");
  service::BatchOptions options;
  options.threads = 2;
  options.journal_path = fresh_journal_path("batch_degraded.jsonl");
  std::istringstream in(small_batch_jobs(2));
  std::ostringstream out;
  std::ostringstream err;
  // Durability is gone but the batch itself still completes cleanly.
  EXPECT_EQ(service::run_batch(in, out, err, options), 0);
  std::istringstream lines(out.str());
  std::string line;
  int done = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(io::parse_json(line).find("status")->as_string(), "done");
    ++done;
  }
  EXPECT_EQ(done, 2);
  EXPECT_NE(err.str().find("journal append failed"), std::string::npos);
  EXPECT_NE(err.str().find("0 records"), std::string::npos);
}

TEST(BatchRunner, ModelLoadRetriesThroughInjectedFaults) {
  if (!fail::compiled_in()) GTEST_SKIP() << "DABS_FAILPOINTS=OFF";
  FailpointGuard guard;
  fail::configure("batch.model_load", "first:2,retryable");
  service::BatchOptions options;
  options.threads = 1;
  options.retry_backoff_seconds = 0.01;
  std::istringstream in(small_batch_jobs(1));
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(service::run_batch(in, out, err, options), 0);
  const io::JsonValue v = io::parse_json(out.str());
  EXPECT_EQ(v.find("status")->as_string(), "done");
  EXPECT_EQ(fail::hits("batch.model_load"), 3u);
  EXPECT_NE(err.str().find("retries: 2 attempted, 1 recovered"),
            std::string::npos);
}

TEST(BatchRunner, ModelLoadRetryExhaustionFailsTheLine) {
  if (!fail::compiled_in()) GTEST_SKIP() << "DABS_FAILPOINTS=OFF";
  FailpointGuard guard;
  fail::configure("batch.model_load", "always,oom");
  service::BatchOptions options;
  options.threads = 1;
  options.max_attempts = 2;
  options.retry_backoff_seconds = 0.01;
  std::istringstream in(small_batch_jobs(1));
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(service::run_batch(in, out, err, options), 1);
  const io::JsonValue v = io::parse_json(out.str());
  EXPECT_EQ(v.find("status")->as_string(), "failed");
  EXPECT_EQ(v.find("attempts")->as_int(), 2);
  EXPECT_EQ(fail::hits("batch.model_load"), 2u);
}

TEST(BatchRunner, DeadlineJobLineCancelsViaWatchdog) {
  std::ostringstream jobs;
  jobs << R"({"problem": "maxcut", "params": {"n": 16, "m": 40},)"
       << R"( "solver": "tabu", "time_limit": 30, "deadline": 0.15})"
       << "\n";
  std::istringstream in(jobs.str());
  std::ostringstream out;
  std::ostringstream err;
  service::BatchOptions options;
  options.threads = 1;
  EXPECT_EQ(service::run_batch(in, out, err, options), 1);
  const io::JsonValue v = io::parse_json(out.str());
  EXPECT_EQ(v.find("status")->as_string(), "cancelled");
  const io::JsonValue* extras = v.find("report")->find("extras");
  ASSERT_NE(extras, nullptr);
  EXPECT_EQ(extras->find("deadline_exceeded")->as_string(), "true");
}

TEST(BatchRunner, QueueLimitShedsAndReportsRejections) {
  // One slow job owns the single worker; with the queue capped at one,
  // at least two of the three followers must be shed.
  std::ostringstream jobs;
  jobs << R"({"problem": "maxcut", "params": {"n": 16, "m": 40},)"
       << R"( "solver": "sa", "time_limit": 0.4, "tag": "slow"})" << "\n"
       << small_batch_jobs(3);
  std::istringstream in(jobs.str());
  std::ostringstream out;
  std::ostringstream err;
  service::BatchOptions options;
  options.threads = 1;
  options.max_queue_depth = 1;
  EXPECT_EQ(service::run_batch(in, out, err, options), 1);
  std::istringstream lines(out.str());
  std::string line;
  int done = 0;
  int rejected = 0;
  while (std::getline(lines, line)) {
    const io::JsonValue v = io::parse_json(line);
    const std::string status = v.find("status")->as_string();
    if (status == "rejected") {
      ++rejected;
      EXPECT_NE(v.find("error"), nullptr);
    } else {
      EXPECT_EQ(status, "done");
      ++done;
    }
  }
  EXPECT_EQ(done + rejected, 4);
  EXPECT_GE(rejected, 2);
  EXPECT_NE(err.str().find(std::to_string(rejected) + " rejected"),
            std::string::npos);
}

TEST(BatchRunner, InterruptFlagStopsIntakeCancelsAndReturns130) {
  // Long jobs, interrupt raised shortly after the batch starts: every
  // submitted job still gets exactly one (cancelled) report line and the
  // exit code is 130, the shell convention for killed-by-SIGINT.
  std::ostringstream jobs;
  for (int i = 0; i < 3; ++i) {
    jobs << R"({"problem": "maxcut", "params": {"n": 16, "m": 40},)"
         << R"( "solver": "tabu", "time_limit": 30, "seed": )" << i << "}\n";
  }
  std::atomic<bool> interrupt{false};
  std::thread trigger([&interrupt] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    interrupt.store(true);
  });
  std::istringstream in(jobs.str());
  std::ostringstream out;
  std::ostringstream err;
  service::BatchOptions options;
  options.threads = 2;
  options.interrupt = &interrupt;
  const int exit_code = service::run_batch(in, out, err, options);
  trigger.join();
  EXPECT_EQ(exit_code, 130);
  std::istringstream lines(out.str());
  std::string line;
  int cancelled = 0;
  while (std::getline(lines, line)) {
    const io::JsonValue v = io::parse_json(line);
    if (v.find("status")->as_string() == "cancelled") ++cancelled;
  }
  EXPECT_GE(cancelled, 1);
  EXPECT_NE(err.str().find("interrupted"), std::string::npos);
}

TEST(BatchRunner, PreRaisedInterruptRunsNothing) {
  std::atomic<bool> interrupt{true};
  std::istringstream in(small_batch_jobs(3));
  std::ostringstream out;
  std::ostringstream err;
  service::BatchOptions options;
  options.interrupt = &interrupt;
  EXPECT_EQ(service::run_batch(in, out, err, options), 130);
  EXPECT_EQ(out.str(), "");
}

// ---------------------------------------------------------------------------
// ServiceStats: the one-call consistent snapshot /v1/stats reads.

TEST(SolverService, StatsSnapshotStartsAtZero) {
  SolverService svc(service_config(1));
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.outstanding, 0u);
  EXPECT_EQ(stats.retained, 0u);
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.done, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.cache.entries, 0u);
  EXPECT_EQ(stats.cache.bytes, 0u);
}

TEST(SolverService, StatsSnapshotTracksLifecycleConsistently) {
  SolverService svc(service_config(1));
  const auto model = shared_model(9);
  const JobId a = svc.submit(budget_spec(model, "sa", 500, 1));
  const JobId b = svc.submit(budget_spec(model, "sa", 500, 2));
  (void)svc.wait(a);
  (void)svc.wait(b);

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.done, 2u);
  EXPECT_EQ(stats.outstanding, 0u);
  EXPECT_EQ(stats.retained, 2u);  // finished records stay readable
  // The snapshot is internally consistent: every submit is accounted for
  // exactly once across the terminal counters and the in-flight gauges.
  EXPECT_EQ(stats.submitted,
            stats.done + stats.failed + stats.cancelled + stats.rejected +
                stats.outstanding);
}

TEST(SolverService, StatsSnapshotCountsRejectedAndCancelled) {
  SolverService::Config config = service_config(1);
  config.max_queue_depth = 1;
  SolverService svc(config);
  const auto model = shared_model(10);

  JobSpec blocker = budget_spec(model, "sa", 0, 1);  // runs until cancelled
  const JobId blocker_id = svc.submit(std::move(blocker));
  // Fill the one queue slot, then shed.
  std::vector<JobId> queued;
  int rejected = 0;
  for (int i = 0; i < 4; ++i) {
    const JobId id = svc.submit(budget_spec(model, "sa", 100, 10 + i));
    if (svc.snapshot(id).state == JobState::kRejected) {
      ++rejected;
    } else {
      queued.push_back(id);
    }
  }
  EXPECT_GE(rejected, 1);

  EXPECT_TRUE(svc.cancel(blocker_id));
  (void)svc.wait(blocker_id);
  for (const JobId id : queued) (void)svc.wait(id);

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.rejected, static_cast<std::uint64_t>(rejected));
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.outstanding, 0u);
  EXPECT_EQ(stats.submitted,
            stats.done + stats.failed + stats.cancelled + stats.rejected +
                stats.outstanding);
}

// ---------------------------------------------------------------------------
// events_since: the incremental event reads behind the streaming endpoint.

TEST(SolverService, EventsSinceAdvancesCursorWithoutRereads) {
  // The ring holds every tick of the run even on a slow (sanitizer) build,
  // so no event is dropped and the cursor math is exact.
  SolverService svc(service_config(1, 1 << 12));
  JobSpec spec = budget_spec(shared_model(4), "greedy-restart", 4000, 11);
  spec.tick_seconds = 1e-4;
  const JobId id = svc.submit(std::move(spec));
  (void)svc.wait(id);

  std::uint64_t cursor = 0;
  const service::JobEventBatch first = svc.events_since(id, cursor);
  EXPECT_EQ(first.state, JobState::kDone);
  EXPECT_FALSE(first.gap);
  ASSERT_FALSE(first.events.empty());
  EXPECT_EQ(cursor, first.events.size());

  // Nothing new after the job is terminal: the cursor holds, no rereads.
  std::uint64_t cursor2 = cursor;
  const service::JobEventBatch second = svc.events_since(id, cursor2);
  EXPECT_TRUE(second.events.empty());
  EXPECT_EQ(cursor2, cursor);
  EXPECT_EQ(second.state, JobState::kDone);

  // Split reads see the same events as one big read.
  std::uint64_t split_cursor = 0;
  const service::JobEventBatch page1 = svc.events_since(id, split_cursor);
  EXPECT_EQ(page1.events.size(), first.events.size());
  EXPECT_EQ(page1.events.front().best_energy,
            first.events.front().best_energy);
}

TEST(SolverService, EventsSinceReportsGapAfterRingDrop) {
  // Ring of 4: a chatty job overflows it, so a cursor parked at 0 finds
  // its events gone and must be told (gap), resuming at the oldest kept.
  SolverService svc(service_config(1, 4));
  JobSpec spec = budget_spec(shared_model(4), "greedy-restart", 20000, 11);
  spec.tick_seconds = 1e-5;  // plenty of tick events
  const JobId id = svc.submit(std::move(spec));
  const JobSnapshot snap = svc.wait(id);
  ASSERT_GT(snap.events_dropped, 0u) << "job was not chatty enough";

  std::uint64_t cursor = 0;
  const service::JobEventBatch batch = svc.events_since(id, cursor);
  EXPECT_TRUE(batch.gap);
  EXPECT_EQ(batch.events.size(), 4u);  // the retained ring
  EXPECT_EQ(cursor, snap.events_dropped + 4u);  // past everything produced

  // A cursor inside the retained window is honored without a gap.
  std::uint64_t tail_cursor = snap.events_dropped + 2;
  const service::JobEventBatch tail = svc.events_since(id, tail_cursor);
  EXPECT_FALSE(tail.gap);
  EXPECT_EQ(tail.events.size(), 2u);
  EXPECT_EQ(tail_cursor, cursor);

  // A cursor past the end clamps instead of reading garbage.
  std::uint64_t over_cursor = cursor + 50;
  const service::JobEventBatch over = svc.events_since(id, over_cursor);
  EXPECT_TRUE(over.events.empty());
  EXPECT_EQ(over_cursor, cursor);
}

TEST(SolverService, EventsSinceUnknownJobThrows) {
  SolverService svc(service_config(1));
  std::uint64_t cursor = 0;
  EXPECT_THROW(svc.events_since(JobId{777}, cursor), std::out_of_range);
}

}  // namespace
}  // namespace dabs
