// Asynchronous batch-solve service over the unified Solver API — the layer
// that turns one-shot solve() calls into a concurrent, cancellable,
// deduplicating job pipeline (PR 3 named it as its natural next step; the
// job lifecycle in job_ledger.hpp, and the JSONL and HTTP front ends over
// it, sit on top of this).
//
//   SolverService svc({.threads = 4});
//   JobSpec spec;
//   spec.model = svc.cache().intern(build_model());
//   spec.solver = "tabu";
//   spec.stop.time_limit_seconds = 1.0;
//   JobId id = svc.submit(std::move(spec));
//   JobSnapshot done = svc.wait(id);     // done.report is a SolveReport
//
// Scheduling: jobs queue in (priority desc, submission order) and run on a
// shared ThreadPool.  Cancellation: cancel() fires the job's StopToken
// (PR 3's cooperative protocol) when running and retires the job
// immediately when still queued.  Observability: a service-owned
// ProgressObserver feeds a bounded per-job event log (new-best and tick
// events) readable from any thread via snapshot().
//
// Robustness (the fault-tolerance slice):
//
//   - Retry: a job whose solve() throws a retryable error (std::bad_alloc,
//     or any exception whose message carries fail::kRetryablePrefix) is
//     re-run up to JobSpec::max_attempts times with bounded exponential
//     backoff + deterministic jitter; the attempt count and final
//     disposition land in the report extras.
//   - Deadlines: JobSpec::deadline_seconds arms a watchdog that fires the
//     job's StopToken when the wall clock (measured from submit) runs out —
//     a queued job retires immediately, a running one unwinds
//     cooperatively; the report extras carry "deadline_exceeded".
//   - Admission control: Config::max_queue_depth sheds load instead of
//     growing the queue unboundedly — an over-capacity submit returns a
//     job that is immediately terminal in the new kRejected state.
//   - Observation hook: Config::on_started fires (on the worker thread,
//     outside the service lock) when a worker picks a job up — the batch
//     runner journals the transition.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/solve_report.hpp"
#include "core/solver.hpp"
#include "core/solver_registry.hpp"
#include "obs/trace.hpp"
#include "service/model_cache.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace dabs::service {

using JobId = std::uint64_t;

enum class JobState : std::uint8_t {
  kQueued,     // submitted, waiting for a worker
  kRunning,    // a worker is inside Solver::solve
  kDone,       // solve returned normally (report valid)
  kCancelled,  // cancelled before or during the run (report valid)
  kFailed,     // solve threw and retries are exhausted (error holds it)
  kRejected,   // shed by admission control at submit (error holds why)
};

const char* to_string(JobState state) noexcept;
inline bool is_terminal(JobState state) noexcept {
  return state == JobState::kDone || state == JobState::kCancelled ||
         state == JobState::kFailed || state == JobState::kRejected;
}

/// One entry of the bounded per-job event log.
struct JobEvent {
  enum class Kind : std::uint8_t { kNewBest, kTick };
  Kind kind = Kind::kNewBest;
  double elapsed_seconds = 0.0;
  Energy best_energy = kInfiniteEnergy;
  std::uint64_t work = 0;
};

/// Everything one job needs, fully specified at submit time.
struct JobSpec {
  /// Shared problem instance — route it through ModelCache so duplicate
  /// submissions share one model.  Must be non-null.
  std::shared_ptr<const QuboModel> model;

  /// Registry name ("dabs", "sa", ...; see SolverRegistry::global()).
  std::string solver = "dabs";
  /// Solver-specific string options, forwarded to the registry factory.
  SolverOptions options;

  StopCondition stop;
  std::optional<std::uint64_t> seed;

  /// Higher runs first; ties run in submission order.
  int priority = 0;

  /// Caller's label, echoed into the report extras ("tag") and snapshots.
  std::string tag;

  /// Granularity of kTick entries in the event log (0 = new-best only).
  double tick_seconds = 0.0;

  /// Wall-clock deadline in seconds, measured from submit (0 = none).  The
  /// watchdog fires the job's StopToken when it expires; the job ends
  /// kCancelled with "deadline_exceeded" in its extras.
  double deadline_seconds = 0.0;

  /// Total solve() attempts allowed for retryable failures (>= 1).  Only
  /// std::bad_alloc and fail::kRetryablePrefix-marked errors retry;
  /// anything else fails on the first throw.
  std::uint32_t max_attempts = 1;
  /// Initial retry backoff; doubles per failed attempt (with deterministic
  /// jitter in [0.5, 1.0]x), capped at retry_backoff_max_seconds.
  double retry_backoff_seconds = 0.05;
  double retry_backoff_max_seconds = 2.0;

  /// Merged into the final report's extras (caller-owned annotations, e.g.
  /// the batch front end records the model-cache outcome here).
  std::map<std::string, std::string> extras;
};

/// Point-in-time copy of a job's externally visible state.
struct JobSnapshot {
  JobId id = 0;
  JobState state = JobState::kQueued;
  std::string tag;
  int priority = 0;
  /// Valid for kDone and kCancelled (a cancelled-while-running job reports
  /// its best-so-far; a cancelled-while-queued job reports an empty run).
  SolveReport report;
  /// What solve() threw (kFailed) or why admission shed the job
  /// (kRejected).
  std::string error;
  /// Chronological bounded event log (oldest first).
  std::vector<JobEvent> events;
  /// Events discarded once the log was full (oldest are dropped).
  std::uint64_t events_dropped = 0;
  /// Lifecycle timestamps in seconds on the owning service's monotonic
  /// epoch (the trace-span source; surfaced as queue/run/total durations
  /// in the report extras).  Negative = never reached that state.
  double submitted_seconds = -1.0;
  double started_seconds = -1.0;   // worker picked the job up
  double finished_seconds = -1.0;  // reached a terminal state
};

/// Maps one (ideally terminal) snapshot onto the obs trace model: queued /
/// run spans from the lifecycle timestamps, tick instants from the event
/// log.  Callers override job_id afterwards when they expose composed ids
/// (the sharded server's global ids).
obs::JobTrace job_trace(const JobSnapshot& snapshot);

/// Incremental slice of one job's event log for streaming consumers (the
/// HTTP events endpoint).  Produced by SolverService::events_since().
struct JobEventBatch {
  /// Events at sequence >= the passed cursor, oldest first.
  std::vector<JobEvent> events;
  /// Job state at the time of the read — stream producers finish once the
  /// state is terminal and the log is drained.
  JobState state = JobState::kQueued;
  /// True when the cursor had fallen behind the bounded ring: events in
  /// [cursor, oldest retained) were dropped and cannot be recovered; the
  /// batch resumes at the oldest retained event.
  bool gap = false;
};

/// One consistent point-in-time view of the service and its model cache,
/// taken under a single lock acquisition so the numbers agree with each
/// other (the /v1/stats endpoint and operator tooling read this).
struct ServiceStats {
  std::size_t queue_depth = 0;  // submitted, not yet picked up
  std::size_t active = 0;       // inside Solver::solve right now
  std::size_t outstanding = 0;  // queue_depth + active
  std::size_t retained = 0;     // job records held (not yet release()d)
  std::uint64_t submitted = 0;  // lifetime submits (rejected ones included)
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t rejected = 0;
  ModelCache::Stats cache;
};

/// Bounded exponential backoff with deterministic jitter: for the
/// `failures`-th consecutive failure (1-based), min(cap, initial *
/// 2^(failures-1)) scaled by a jitter factor in [0.5, 1.0] drawn from a
/// salt-seeded xorshift — deterministic for a fixed (salt, failures), so
/// tests and replays see stable schedules while distinct jobs decorrelate.
double retry_backoff(double initial_seconds, double cap_seconds,
                     std::uint32_t failures, std::uint64_t salt);

class SolverService {
 public:
  struct Config {
    /// Worker threads solving jobs.
    std::size_t threads = 2;
    /// Per-job event-log bound; the newest events win.
    std::size_t max_events_per_job = 64;
    /// Byte budget of the owned ModelCache.
    std::size_t cache_bytes = ModelCache::kDefaultMaxBytes;
    /// Admission bound: submits past this queue depth are shed as
    /// kRejected instead of queued (0 = unbounded).
    std::size_t max_queue_depth = 0;
    /// Fired on the worker thread, outside the service lock, when the
    /// worker picks the job up (once per job, before the first attempt).
    /// Keep it fast; must not call back into the service.
    std::function<void(JobId, const JobSpec&)> on_started;
  };

  SolverService();
  explicit SolverService(Config config);
  /// Cancels everything still queued or running and joins the workers.
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Validates the spec (non-null model, known solver, buildable options —
  /// throws std::invalid_argument otherwise) and enqueues the job.  When
  /// admission control sheds it, the returned job is already terminal in
  /// state kRejected (it still flows through the completion stream so
  /// batch consumers see exactly one outcome per submit).
  JobId submit(JobSpec spec);

  /// Current state; throws std::out_of_range for an unknown id.
  JobState state(JobId id) const;

  /// Full snapshot (report/events copied); throws for an unknown id.
  JobSnapshot snapshot(JobId id) const;

  /// Blocks until the job reaches a terminal state, then snapshots it.
  /// Throws std::out_of_range for an id that was never submitted, and for
  /// one whose record a concurrent release() dropped mid-wait.
  JobSnapshot wait(JobId id);

  /// wait() with a timeout: nullopt when the job is still not terminal
  /// after `seconds`.  Same std::out_of_range contract as wait().
  std::optional<JobSnapshot> wait_for(JobId id, double seconds);

  /// wait() with an absolute deadline; same contract as wait_for().
  std::optional<JobSnapshot> wait_until(
      JobId id, std::chrono::steady_clock::time_point deadline);

  /// Blocks until every submitted job is terminal.
  void wait_all();

  /// Completion stream for out-of-order consumers: blocks until some job
  /// finishes that no previous wait_any_finished() call returned, and
  /// returns its id.  Returns nullopt when no submitted job remains
  /// unclaimed.  Each finished job is delivered exactly once across all
  /// callers.
  std::optional<JobId> wait_any_finished();

  /// wait_any_finished() with a timeout: nullopt when nothing finished
  /// within `seconds` (callers distinguish "timed out" from "none left"
  /// via outstanding()/their own bookkeeping).
  std::optional<JobId> wait_any_finished_for(double seconds);

  /// Non-blocking wait_any_finished(): a finished unclaimed job id if one
  /// is ready right now, nullopt otherwise.
  std::optional<JobId> try_any_finished();

  /// Drops a terminal job's record (report, events, solution) so long
  /// batches do not accumulate every finished job for the service's
  /// lifetime.  Also forfeits the job's pending completion-stream
  /// delivery if it was never claimed.  Returns false when the id is
  /// unknown or the job has not finished; after release the id is
  /// unknown to state()/snapshot()/wait().
  bool release(JobId id);

  /// Cancels a job: a queued job retires immediately (kCancelled), a
  /// running job gets its StopToken fired and winds down cooperatively
  /// (a retry backoff in progress is interrupted).  Returns false when
  /// the job is unknown or already terminal.
  bool cancel(JobId id);

  /// Fires every non-terminal job's cancellation.
  void cancel_all();

  /// Jobs submitted but not yet picked up by a worker.
  std::size_t queue_depth() const;
  /// Jobs currently inside Solver::solve.
  std::size_t active_count() const;
  /// Jobs not yet terminal (queued + running).
  std::size_t outstanding() const;

  /// Every gauge and lifetime counter in one locked read (plus the model
  /// cache's own stats) — a mutually consistent snapshot, unlike calling
  /// the individual accessors back to back.
  ServiceStats stats() const;

  /// Events appended to `id`'s log at sequence >= `cursor`, advancing
  /// `cursor` past what is returned.  Sequences count every event ever
  /// appended to the job (0-based); when the bounded ring has already
  /// dropped part of the requested range the batch is flagged `gap` and
  /// resumes at the oldest retained event.  Throws std::out_of_range for
  /// an unknown id.
  JobEventBatch events_since(JobId id, std::uint64_t& cursor) const;

  /// The service-owned model cache (thread-safe; share freely).
  ModelCache& cache() noexcept { return cache_; }

 private:
  struct Job;
  class EventLogObserver;

  void run_one();
  void watchdog_loop();
  void ensure_watchdog_locked();
  void update_gauges_locked();
  void finalize_locked(Job& job, JobState state);
  JobSnapshot snapshot_locked(JobId id) const;
  static SolveRequest request_for(const Job& job,
                                  ProgressObserver* observer);

  /// (priority desc, id asc) run order.  Compares priorities directly —
  /// negating would overflow on INT_MIN, which is reachable from JSONL
  /// input.
  struct PendingKey {
    int priority;
    JobId id;
    bool operator<(const PendingKey& other) const noexcept {
      return priority != other.priority ? priority > other.priority
                                        : id < other.id;
    }
  };

  const Config config_;
  ModelCache cache_;
  /// Monotonic zero point for every job lifecycle timestamp.
  Stopwatch epoch_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable cv_watchdog_;
  std::map<JobId, std::unique_ptr<Job>> jobs_;
  std::map<PendingKey, JobId> pending_;
  std::deque<JobId> finished_;  // terminal, not yet claimed by wait_any
  /// Armed per-job deadlines (absolute), consumed by the watchdog; entries
  /// for already-terminal jobs are skipped when they come due.
  std::multimap<std::chrono::steady_clock::time_point, JobId> deadlines_;
  JobId next_id_ = 1;
  std::size_t running_ = 0;
  std::size_t unclaimed_ = 0;  // submitted minus wait_any deliveries
  /// Lifetime counters behind stats(): bumped at submit / finalize.
  std::uint64_t stat_submitted_ = 0;
  std::uint64_t stat_done_ = 0;
  std::uint64_t stat_failed_ = 0;
  std::uint64_t stat_cancelled_ = 0;
  std::uint64_t stat_rejected_ = 0;
  bool shutting_down_ = false;
  /// Lazily started on the first deadline submit; joined in the dtor.
  std::thread watchdog_;

  /// Declared last: its destructor drains queued drain-tasks, which touch
  /// everything above.
  ThreadPool pool_;
};

}  // namespace dabs::service
