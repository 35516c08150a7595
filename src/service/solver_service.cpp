#include "service/solver_service.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "rng/xorshift.hpp"
#include "util/failpoint.hpp"

namespace dabs::service {
namespace {

/// Registry handles, resolved once.  All updates are relaxed atomics; the
/// solver progress counters are fed from the ProgressObserver boundary
/// (EventLogObserver), never from inside the flip kernels.
struct ServiceMetrics {
  obs::Counter* submitted = nullptr;
  obs::Counter* terminal_done = nullptr;
  obs::Counter* terminal_failed = nullptr;
  obs::Counter* terminal_cancelled = nullptr;
  obs::Counter* terminal_rejected = nullptr;
  obs::Counter* retries = nullptr;
  obs::Counter* deadline_hits = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Gauge* active = nullptr;
  obs::Histogram* job_seconds_done = nullptr;
  obs::Histogram* job_seconds_failed = nullptr;
  obs::Histogram* job_seconds_cancelled = nullptr;
  obs::Histogram* job_seconds_rejected = nullptr;
  obs::Histogram* queue_wait = nullptr;
  obs::Histogram* first_event = nullptr;
  obs::Counter* progress_work = nullptr;
  obs::Counter* progress_new_best = nullptr;
  obs::Counter* progress_ticks = nullptr;
};

ServiceMetrics& service_metrics() {
  static ServiceMetrics metrics = [] {
    auto& reg = obs::MetricsRegistry::global();
    const auto& latency = obs::Histogram::default_latency_bounds();
    ServiceMetrics m;
    m.submitted =
        &reg.counter("dabs_service_jobs_submitted_total",
                     "Lifetime job submissions, rejected ones included.");
    const char* terminal_help =
        "Jobs reaching a terminal state, by disposition.";
    m.terminal_done = &reg.counter("dabs_service_jobs_terminal_total",
                                   terminal_help, {{"disposition", "done"}});
    m.terminal_failed = &reg.counter("dabs_service_jobs_terminal_total",
                                     terminal_help, {{"disposition", "failed"}});
    m.terminal_cancelled =
        &reg.counter("dabs_service_jobs_terminal_total", terminal_help,
                     {{"disposition", "cancelled"}});
    m.terminal_rejected =
        &reg.counter("dabs_service_jobs_terminal_total", terminal_help,
                     {{"disposition", "rejected"}});
    m.retries = &reg.counter("dabs_service_retries_total",
                             "Retry backoffs entered after retryable "
                             "solve() failures.");
    m.deadline_hits =
        &reg.counter("dabs_service_deadline_hits_total",
                     "Watchdog deadline expirations that fired a job's "
                     "StopToken or retired it in queue.");
    m.queue_depth = &reg.gauge("dabs_service_queue_depth",
                               "Jobs submitted and not yet picked up.");
    m.active = &reg.gauge("dabs_service_active_jobs",
                          "Jobs inside Solver::solve right now.");
    const char* job_seconds_help =
        "Submit-to-terminal latency by disposition.";
    m.job_seconds_done =
        &reg.histogram("dabs_service_job_seconds", job_seconds_help, latency,
                       {{"disposition", "done"}});
    m.job_seconds_failed =
        &reg.histogram("dabs_service_job_seconds", job_seconds_help, latency,
                       {{"disposition", "failed"}});
    m.job_seconds_cancelled =
        &reg.histogram("dabs_service_job_seconds", job_seconds_help, latency,
                       {{"disposition", "cancelled"}});
    m.job_seconds_rejected =
        &reg.histogram("dabs_service_job_seconds", job_seconds_help, latency,
                       {{"disposition", "rejected"}});
    m.queue_wait =
        &reg.histogram("dabs_service_queue_wait_seconds",
                       "Submit-to-pickup wait for jobs that ran.", latency);
    m.first_event = &reg.histogram(
        "dabs_service_submit_to_first_event_seconds",
        "Submit to first progress event (the submit->first-tick latency "
        "behind the HTTP event stream).",
        latency);
    m.progress_work =
        &reg.counter("dabs_solver_progress_work_total",
                     "Aggregate solver work units (flips) as sampled at "
                     "the ProgressObserver boundary.");
    const char* events_help = "Progress events observed, by kind.";
    m.progress_new_best =
        &reg.counter("dabs_solver_progress_events_total", events_help,
                     {{"kind", "new_best"}});
    m.progress_ticks = &reg.counter("dabs_solver_progress_events_total",
                                    events_help, {{"kind", "tick"}});
    return m;
  }();
  return metrics;
}

obs::Histogram* job_seconds_for(const ServiceMetrics& m, JobState state) {
  switch (state) {
    case JobState::kDone: return m.job_seconds_done;
    case JobState::kFailed: return m.job_seconds_failed;
    case JobState::kCancelled: return m.job_seconds_cancelled;
    case JobState::kRejected: return m.job_seconds_rejected;
    case JobState::kQueued:
    case JobState::kRunning: break;
  }
  return nullptr;
}

std::string format_seconds(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kFailed:
      return "failed";
    case JobState::kRejected:
      return "rejected";
  }
  return "?";
}

double retry_backoff(double initial_seconds, double cap_seconds,
                     std::uint32_t failures, std::uint64_t salt) {
  if (initial_seconds <= 0.0 || failures == 0) return 0.0;
  double backoff = initial_seconds;
  for (std::uint32_t i = 1; i < failures && backoff < cap_seconds; ++i) {
    backoff *= 2.0;
  }
  if (cap_seconds > 0.0) backoff = std::min(backoff, cap_seconds);
  // Deterministic jitter in [0.5, 1.0]x: the golden-ratio multiply spreads
  // consecutive (salt, failures) pairs across the xorshift state space.
  Rng rng(salt * 0x9e3779b97f4a7c15ull + failures);
  return backoff * (0.5 + 0.5 * rng.next_unit());
}

/// Internal per-job record.  Guarded by SolverService::mu_ except for
/// `solver` and `token`, which the owning worker uses outside the lock
/// (solver is never touched elsewhere once running; StopToken is
/// thread-safe by design).
struct SolverService::Job {
  JobId id = 0;
  JobSpec spec;
  std::unique_ptr<Solver> solver;
  StopToken token;
  JobState state = JobState::kQueued;
  SolveReport report;
  std::string error;
  /// solve() invocations performed (0 = never picked up).
  std::uint32_t attempts = 0;
  /// Set by the watchdog when this job's deadline came due.
  bool deadline_exceeded = false;
  /// Terminal state decided and the hook running; `state` still shows the
  /// pre-terminal state until finish() publishes.
  bool finishing = false;
  // Bounded ring: newest events overwrite the oldest once full.
  std::vector<JobEvent> events;
  std::size_t ring_next = 0;
  std::uint64_t events_dropped = 0;
  /// Lifecycle timestamps on the service epoch (see JobSnapshot).
  double submitted_seconds = -1.0;
  double started_seconds = -1.0;
  double finished_seconds = -1.0;
  /// First progress event already counted into the submit->first-event
  /// latency histogram.
  bool first_event_recorded = false;
};

/// The service-owned ProgressObserver: forwards a running job's new-best /
/// tick callbacks into its bounded event log.  Lives on the worker's stack
/// for the duration of one solve() call.
class SolverService::EventLogObserver final : public ProgressObserver {
 public:
  EventLogObserver(SolverService& service, Job& job)
      : service_(service), job_(job) {}

  void on_new_best(const ProgressEvent& event) override {
    note_progress(event, /*new_best=*/true);
    append({JobEvent::Kind::kNewBest, event.elapsed_seconds,
            event.best_energy, event.work});
  }
  void on_tick(const ProgressEvent& event) override {
    note_progress(event, /*new_best=*/false);
    append({JobEvent::Kind::kTick, event.elapsed_seconds, event.best_energy,
            event.work});
  }

 private:
  /// Aggregate solver-throughput metrics, sampled here at the observer
  /// boundary (a handful of relaxed counter adds per event) so the flip
  /// kernels stay untouched.
  void note_progress(const ProgressEvent& event, bool new_best) {
    ServiceMetrics& m = service_metrics();
    (new_best ? m.progress_new_best : m.progress_ticks)->inc();
    if (event.work > last_work_) {
      m.progress_work->inc(event.work - last_work_);
      last_work_ = event.work;
    }
  }

  void append(const JobEvent& event) {
    const std::size_t cap = service_.config_.max_events_per_job;
    std::lock_guard lock(service_.mu_);
    if (!job_.first_event_recorded && job_.submitted_seconds >= 0.0) {
      job_.first_event_recorded = true;
      service_metrics().first_event->observe(
          service_.epoch_.elapsed_seconds() - job_.submitted_seconds);
    }
    if (cap == 0) return;
    if (job_.events.size() < cap) {
      job_.events.push_back(event);
    } else {
      job_.events[job_.ring_next] = event;
      job_.ring_next = (job_.ring_next + 1) % cap;
      ++job_.events_dropped;
    }
  }

  SolverService& service_;
  Job& job_;
  std::uint64_t last_work_ = 0;  // cumulative work at the last event
};

SolverService::SolverService() : SolverService(Config{}) {}

SolverService::SolverService(Config config)
    : config_(std::move(config)),
      cache_(config_.cache_bytes),
      pool_(config_.threads) {}

SolverService::~SolverService() {
  {
    std::lock_guard lock(mu_);
    shutting_down_ = true;
  }
  cancel_all();
  // Wake retry-backoff sleepers and the watchdog so both observe the
  // shutdown flag.
  cv_.notify_all();
  cv_watchdog_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  // Queued drain tasks still run (finding nothing pending); running jobs
  // unwind within one iteration of their solver loop.
  pool_.wait_idle();
}

JobId SolverService::submit(JobSpec spec) {
  if (!spec.model) {
    throw std::invalid_argument("JobSpec carries no model");
  }
  if (spec.max_attempts == 0) {
    throw std::invalid_argument("JobSpec::max_attempts must be >= 1");
  }
  // Build the solver up front so unknown names / bad options fail at
  // submit time with the registry's message, not inside a worker.
  std::unique_ptr<Solver> solver =
      SolverRegistry::global().create(spec.solver, spec.options);

  JobId id = 0;
  {
    std::unique_lock lock(mu_);
    if (shutting_down_) {
      throw std::runtime_error("SolverService is shutting down");
    }
    // Injected queue-push failure: the shape of an allocator/queue fault
    // between validation and enqueue (caller sees the submit throw).
    fail::point("service.queue_push");
    // Admission control: past the configured depth the job is shed, not
    // queued — it becomes a terminal kRejected record, so callers see one
    // outcome per submit (and can journal + retry it on a later run).
    const bool rejected = config_.max_queue_depth > 0 &&
                          pending_.size() >= config_.max_queue_depth;
    id = next_id_++;
    ++stat_submitted_;
    ++unfinished_;
    service_metrics().submitted->inc();
    auto job = std::make_unique<Job>();
    job->id = id;
    job->spec = std::move(spec);
    // Caller annotations are readable from submit on (the fingerprint a
    // front end puts here names a queued job too).
    job->report.extras = job->spec.extras;
    job->solver = std::move(solver);
    job->submitted_seconds = epoch_.elapsed_seconds();
    if (rejected) {
      job->error = "rejected: queue depth " +
                   std::to_string(pending_.size()) + " at the configured " +
                   "admission bound " +
                   std::to_string(config_.max_queue_depth);
      Job& record = *job;
      jobs_.emplace(id, std::move(job));
      finish(record, JobState::kRejected, lock);
      return id;
    }
    pending_.emplace(PendingKey{job->spec.priority, id}, id);
    if (job->spec.deadline_seconds > 0.0) {
      deadlines_.emplace(
          std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(job->spec.deadline_seconds)),
          id);
      ensure_watchdog_locked();
      cv_watchdog_.notify_one();
    }
    jobs_.emplace(id, std::move(job));
    update_gauges_locked();
  }
  // One drain task per submission: each pops whichever pending job is
  // highest-priority at the time it runs, so a plain FIFO pool yields
  // priority order without a bespoke scheduler.
  pool_.submit([this] { run_one(); });
  return id;
}

void SolverService::run_one() {
  Job* job = nullptr;
  JobSnapshot started;
  {
    std::lock_guard lock(mu_);
    if (pending_.empty()) return;  // its job was cancelled while queued
    const auto it = pending_.begin();
    job = jobs_.at(it->second).get();
    pending_.erase(it);
    job->state = JobState::kRunning;
    ++running_;
    job->started_seconds = epoch_.elapsed_seconds();
    if (job->submitted_seconds >= 0.0) {
      service_metrics().queue_wait->observe(job->started_seconds -
                                            job->submitted_seconds);
    }
    update_gauges_locked();
    if (config_.on_transition) started = snapshot_of(*job);
  }
  if (config_.on_transition) config_.on_transition(started);

  EventLogObserver observer(*this, *job);
  const std::uint32_t max_attempts = job->spec.max_attempts;
  SolveReport report;
  std::string error;
  bool failed = false;
  bool interrupted_in_backoff = false;
  std::uint32_t attempt = 0;
  for (;;) {
    ++attempt;
    failed = false;
    bool retryable = false;
    error.clear();
    try {
      // Injected worker fault: drives the retry/backoff path in tests
      // ("first:2,oom" fails twice then succeeds, etc.).
      fail::point("service.worker");
      report = job->solver->solve(request_for(*job, &observer));
    } catch (const std::bad_alloc&) {
      failed = true;
      retryable = true;
      error = "std::bad_alloc";
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
      retryable = fail::is_retryable_message(error);
    } catch (...) {
      failed = true;
      error = "unknown exception";
    }
    if (!failed || !retryable || attempt >= max_attempts) break;
    // Bounded exponential backoff before the next attempt.  The sleeping
    // worker stays responsive: cancel(), a deadline firing, and service
    // shutdown all interrupt the wait (cancel/watchdog notify cv_).
    service_metrics().retries->inc();
    const double backoff = retry_backoff(job->spec.retry_backoff_seconds,
                                         job->spec.retry_backoff_max_seconds,
                                         attempt, job->id);
    std::unique_lock lock(mu_);
    interrupted_in_backoff =
        cv_.wait_for(lock, std::chrono::duration<double>(backoff),
                     [this, job] {
                       return shutting_down_ || job->token.stop_requested();
                     });
    if (interrupted_in_backoff) break;
  }

  std::unique_lock lock(mu_);
  job->attempts = attempt;
  if (interrupted_in_backoff) {
    // Cancelled (or shut down) while waiting to retry: the failed
    // attempt's partial state is meaningless — report an empty cancelled
    // run, keeping the last error for forensics.
    job->error = std::move(error);
    job->report = SolveReport{};
    job->report.cancelled = true;
    finish(*job, JobState::kCancelled, lock);
  } else if (failed) {
    job->error = std::move(error);
    finish(*job, JobState::kFailed, lock);
  } else {
    const JobState state =
        report.cancelled ? JobState::kCancelled : JobState::kDone;
    job->report = std::move(report);
    finish(*job, state, lock);
  }
}

void SolverService::ensure_watchdog_locked() {
  if (watchdog_.joinable() || shutting_down_) return;
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

void SolverService::watchdog_loop() {
  std::unique_lock lock(mu_);
  while (!shutting_down_) {
    if (deadlines_.empty()) {
      cv_watchdog_.wait(lock, [this] {
        return shutting_down_ || !deadlines_.empty();
      });
      continue;
    }
    const auto next = deadlines_.begin()->first;
    if (cv_watchdog_.wait_for(lock, next - std::chrono::steady_clock::now(),
                              [this] { return shutting_down_; })) {
      break;
    }
    // Either the earliest deadline came due or an earlier one was armed;
    // fire everything at or before now.
    const auto now = std::chrono::steady_clock::now();
    while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
      const JobId id = deadlines_.begin()->second;
      deadlines_.erase(deadlines_.begin());
      const auto it = jobs_.find(id);
      if (it == jobs_.end() || it->second->finishing ||
          is_terminal(it->second->state)) {
        continue;
      }
      Job& job = *it->second;
      job.deadline_exceeded = true;
      service_metrics().deadline_hits->inc();
      if (job.state == JobState::kQueued) {
        // Never ran and never will: retire in place (finish() drops and
        // retakes the lock; the loop re-reads deadlines_ afterwards).
        pending_.erase(PendingKey{job.spec.priority, job.id});
        job.report.cancelled = true;
        finish(job, JobState::kCancelled, lock);
      } else {
        // Running (or backing off between retries): stop cooperatively.
        job.token.request_stop();
        cv_.notify_all();
      }
    }
  }
}

SolveRequest SolverService::request_for(const Job& job,
                                        ProgressObserver* observer) {
  SolveRequest req;
  req.model = job.spec.model.get();
  req.stop = job.spec.stop;
  req.seed = job.spec.seed;
  req.stop_token = job.token;
  req.observer = observer;
  req.tick_seconds = job.spec.tick_seconds;
  return req;
}

void SolverService::update_gauges_locked() {
  ServiceMetrics& m = service_metrics();
  m.queue_depth->set(static_cast<std::int64_t>(pending_.size()));
  m.active->set(static_cast<std::int64_t>(running_));
}

void SolverService::finish(Job& job, JobState state,
                           std::unique_lock<std::mutex>& lock) {
  job.finishing = true;
  job.finished_seconds = epoch_.elapsed_seconds();
  annotate_locked(job, state);
  if (config_.on_transition) {
    JobSnapshot snap = snapshot_of(job);
    snap.state = state;
    lock.unlock();
    try {
      config_.on_transition(snap);
    } catch (const std::exception& e) {
      // A throwing hook must not strand the job short of terminal (every
      // waiter would hang); its annotations are what it managed to write.
      obs::log(obs::LogLevel::kWarn, "service", "on_transition threw",
               {{"job_id", job.id}, {"error", e.what()}});
    }
    lock.lock();
    job.report = std::move(snap.report);
  }
  if (job.state == JobState::kRunning) --running_;
  job.state = state;
  // The record outlives the run: drop what only the run needed (the model
  // may be large, and the cache decides how long it lives).
  job.solver.reset();
  job.spec.model.reset();
  --unfinished_;
  ServiceMetrics& metrics = service_metrics();
  switch (state) {
    case JobState::kDone:
      ++stat_done_;
      metrics.terminal_done->inc();
      break;
    case JobState::kFailed:
      ++stat_failed_;
      metrics.terminal_failed->inc();
      break;
    case JobState::kCancelled:
      ++stat_cancelled_;
      metrics.terminal_cancelled->inc();
      break;
    case JobState::kRejected:
      ++stat_rejected_;
      metrics.terminal_rejected->inc();
      break;
    case JobState::kQueued:
    case JobState::kRunning:
      break;
  }
  if (obs::Histogram* h = job_seconds_for(metrics, state);
      h != nullptr && job.submitted_seconds >= 0.0) {
    h->observe(job.finished_seconds - job.submitted_seconds);
  }
  update_gauges_locked();
  retired_.push_back(job.id);
  while (retired_.size() > kRetainedJobs) {
    jobs_.erase(retired_.front());
    retired_.pop_front();
  }
  cv_.notify_all();
}

void SolverService::annotate_locked(Job& job, JobState state) {
  if (job.report.solver.empty()) job.report.solver = job.spec.solver;
  // Caller annotations win over same-named solver extras: the caller set
  // them deliberately per job.
  for (const auto& [k, v] : job.spec.extras) job.report.extras[k] = v;
  job.report.extras["job_id"] = std::to_string(job.id);
  if (!job.spec.tag.empty()) job.report.extras["tag"] = job.spec.tag;
  // Robustness provenance: how many solve() attempts ran and how the job
  // ultimately ended, so operators can see retries and degradation in the
  // streamed reports, not just final failure.
  job.report.extras["attempts"] = std::to_string(job.attempts);
  switch (state) {
    case JobState::kDone:
      job.report.extras["disposition"] =
          job.attempts > 1 ? "retried" : "completed";
      break;
    case JobState::kFailed:
      job.report.extras["disposition"] = "failed";
      break;
    case JobState::kCancelled:
      job.report.extras["disposition"] =
          job.deadline_exceeded ? "deadline" : "cancelled";
      break;
    case JobState::kRejected:
      job.report.extras["disposition"] = "rejected";
      break;
    case JobState::kQueued:
    case JobState::kRunning:
      break;  // only terminal states are annotated
  }
  if (job.deadline_exceeded) job.report.extras["deadline_exceeded"] = "true";
  if (!job.error.empty() && state != JobState::kFailed &&
      state != JobState::kRejected) {
    job.report.extras["last_error"] = job.error;
  }
  // Span durations for GET /v1/jobs/{id} / batch reports: how long the job
  // sat in queue, how long it ran, and the end-to-end total.
  if (job.submitted_seconds >= 0.0) {
    job.report.extras["total_seconds"] =
        format_seconds(job.finished_seconds - job.submitted_seconds);
    if (job.started_seconds >= 0.0) {
      job.report.extras["queue_seconds"] =
          format_seconds(job.started_seconds - job.submitted_seconds);
      job.report.extras["run_seconds"] =
          format_seconds(job.finished_seconds - job.started_seconds);
    }
  }
}

JobState SolverService::state(JobId id) const {
  std::lock_guard lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("unknown job id");
  return it->second->state;
}

JobSnapshot SolverService::snapshot(JobId id) const {
  std::lock_guard lock(mu_);
  return snapshot_locked(id);
}

JobSnapshot SolverService::snapshot_locked(JobId id) const {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("unknown job id");
  return snapshot_of(*it->second);
}

JobSnapshot SolverService::snapshot_of(const Job& job) {
  JobSnapshot snap;
  snap.id = job.id;
  snap.state = job.state;
  snap.tag = job.spec.tag;
  snap.priority = job.spec.priority;
  snap.report = job.report;
  snap.error = job.error;
  snap.events_dropped = job.events_dropped;
  snap.submitted_seconds = job.submitted_seconds;
  snap.started_seconds = job.started_seconds;
  snap.finished_seconds = job.finished_seconds;
  // Un-rotate the ring so events come out oldest-first.
  snap.events.reserve(job.events.size());
  for (std::size_t i = 0; i < job.events.size(); ++i) {
    snap.events.push_back(
        job.events[(job.ring_next + i) % job.events.size()]);
  }
  return snap;
}

JobSnapshot SolverService::wait(JobId id) {
  std::unique_lock lock(mu_);
  if (jobs_.find(id) == jobs_.end()) {
    throw std::out_of_range("unknown job id");
  }
  // Re-find per evaluation: retention may drop the record meanwhile.
  cv_.wait(lock, [this, id] {
    const auto it = jobs_.find(id);
    return it == jobs_.end() || is_terminal(it->second->state);
  });
  return snapshot_locked(id);  // throws if the record was dropped
}

void SolverService::wait_all() {
  std::unique_lock lock(mu_);
  cv_.wait(lock, [this] { return unfinished_ == 0; });
}

bool SolverService::wait_all_for(double seconds) {
  std::unique_lock lock(mu_);
  return cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                      [this] { return unfinished_ == 0; });
}

bool SolverService::cancel(JobId id) {
  std::unique_lock lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second->finishing) return false;
  Job& job = *it->second;
  switch (job.state) {
    case JobState::kQueued:
      // Never ran: retire immediately with an empty cancelled report.
      pending_.erase(PendingKey{job.spec.priority, job.id});
      job.report.cancelled = true;
      finish(job, JobState::kCancelled, lock);
      return true;
    case JobState::kRunning:
      job.token.request_stop();
      // Wake a worker sleeping in retry backoff for this job.
      cv_.notify_all();
      return true;
    case JobState::kDone:
    case JobState::kCancelled:
    case JobState::kFailed:
    case JobState::kRejected:
      return false;
  }
  return false;
}

void SolverService::cancel_all() {
  std::vector<JobId> ids;
  {
    std::lock_guard lock(mu_);
    for (const auto& [id, job] : jobs_) {
      if (!is_terminal(job->state)) ids.push_back(id);
    }
  }
  for (const JobId id : ids) cancel(id);
}

ServiceStats SolverService::stats() const {
  ServiceStats out;
  {
    std::lock_guard lock(mu_);
    out.queue_depth = pending_.size();
    out.active = running_;
    out.outstanding = unfinished_;
    out.retained = jobs_.size();
    out.submitted = stat_submitted_;
    out.done = stat_done_;
    out.failed = stat_failed_;
    out.cancelled = stat_cancelled_;
    out.rejected = stat_rejected_;
  }
  // The cache has its own lock and never calls back into the service, but
  // taking its stats outside mu_ keeps the ordering trivially acyclic.
  out.cache = cache_.stats();
  return out;
}

JobEventBatch SolverService::events_since(JobId id,
                                          std::uint64_t& cursor) const {
  std::lock_guard lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("unknown job id");
  const Job& job = *it->second;
  JobEventBatch batch;
  batch.state = job.state;
  const std::uint64_t first = job.events_dropped;  // oldest retained seq
  const std::uint64_t total = first + job.events.size();
  if (cursor < first) {
    batch.gap = true;
    cursor = first;
  }
  if (cursor > total) cursor = total;  // caller-supplied cursors can overshoot
  if (!job.events.empty()) {
    batch.events.reserve(static_cast<std::size_t>(total - cursor));
    for (std::uint64_t seq = cursor; seq < total; ++seq) {
      batch.events.push_back(
          job.events[(job.ring_next + (seq - first)) % job.events.size()]);
    }
  }
  cursor = total;
  return batch;
}

obs::JobTrace job_trace(const JobSnapshot& snapshot) {
  obs::JobTrace trace;
  trace.job_id = snapshot.id;
  trace.tag = snapshot.tag;
  trace.solver = snapshot.report.solver;
  trace.state = to_string(snapshot.state);
  trace.submitted_seconds = snapshot.submitted_seconds;
  trace.started_seconds = snapshot.started_seconds;
  trace.finished_seconds = snapshot.finished_seconds;
  trace.ticks.reserve(snapshot.events.size());
  for (const JobEvent& event : snapshot.events) {
    trace.ticks.push_back(obs::JobTrace::Tick{
        event.kind == JobEvent::Kind::kNewBest ? "new_best" : "tick",
        event.elapsed_seconds, static_cast<double>(event.best_energy),
        event.work});
  }
  return trace;
}

}  // namespace dabs::service
