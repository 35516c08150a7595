// The solve-API backend behind SolveServer's HTTP routes.  Two
// implementations exist: JobApi (this file) runs jobs on an in-process
// SolverService, and ShardBackend (shard_router.hpp) forwards the same
// operations to forked worker processes over the shard RPC.  Splitting
// the HTTP routing from the job handling keeps the endpoints byte-for-
// byte identical across the one-process and sharded topologies.
//
// Request/report JSON is the JSONL batch schema (batch_runner.hpp): a
// POST /v1/jobs body is exactly one batch job line, and a finished job's
// report carries the same decode/verify extras the batch runner streams.
//
// Job ids are global across a shard group: a worker owning shard k of N
// publishes `local_id * N + k`, so any id maps back to its shard with a
// modulo — the front end never rewrites response bodies.
//
// Durability mirrors the batch runner: with a journal armed, every accept
// writes a `submitted` record whose detail field holds the raw request
// body, and the reaper writes the terminal record when the job finishes.
// `resume()`-style recovery happens in the constructor: fingerprints whose
// last journal record is non-terminal are re-submitted from that stored
// body under their original fingerprint.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/trace.hpp"
#include "service/batch_runner.hpp"
#include "service/job_journal.hpp"
#include "service/solver_service.hpp"

namespace dabs::net {

/// HTTP-ish outcome of one backend operation: a status code plus a JSON
/// object body.  Backends never throw for request-level problems — bad
/// input is a 4xx reply, broken environment a 5xx.
struct ApiReply {
  int status = 200;
  std::string body;
};

/// The operation surface SolveServer routes onto.  `id` parameters are
/// global job ids (see the header comment).
class JobBackend {
 public:
  virtual ~JobBackend() = default;

  /// POST /v1/jobs: body is one batch-schema job object.
  /// 202 accepted / 400 schema / 429 shed / 5xx environment.
  virtual ApiReply submit(const std::string& body) = 0;

  /// GET /v1/jobs/{id}: state + report (terminal jobs include the
  /// decode/verify extras).  404 unknown.
  virtual ApiReply status(std::uint64_t id) = 0;

  /// One page of the job's event log from *cursor, advancing it.  Sets
  /// *count to the number of events in the page and *done when the job is
  /// terminal and the log is drained (the stream may end).
  virtual ApiReply events(std::uint64_t id, std::uint64_t* cursor,
                          bool* done, std::size_t* count) = 0;

  /// DELETE /v1/jobs/{id}: 202 cancelling, 409 already terminal, 404.
  virtual ApiReply cancel(std::uint64_t id) = 0;

  /// GET /v1/stats: service gauges/counters + cache stats as JSON.
  virtual ApiReply stats() = 0;

  /// GET /v1/metrics: Prometheus text exposition of the process-wide
  /// metrics registry.  The sharded backend aggregates every worker's
  /// registry into one exposition with per-shard labels.
  virtual ApiReply metrics() = 0;

  /// Shard topology behind this backend (1 = unsharded), for /v1/healthz.
  virtual std::size_t shards() const { return 1; }
};

/// The shard-routing key of a parsed job: the problem spec + params (or
/// "<format>#<path>" for file jobs).  Deliberately the *spec*, not the
/// canonical resolved model key — routing must not require running a
/// generator — and stable across processes so every front end and worker
/// agrees on ownership.
std::string routing_key(const service::BatchJob& job);

/// In-process JobBackend: SolverService + ModelCache + optional journal,
/// plus a reaper thread that journals terminal records, runs the
/// decode/verify annotation once per finished job, and bounds retention.
///
/// Thread-safety: all five operations and the reaper serialize on one
/// internal mutex (operations are queue-sized, not solve-sized — the
/// solving itself happens on the service's worker pool).
class JobApi final : public JobBackend {
 public:
  struct Config {
    std::size_t threads = 2;
    std::size_t cache_bytes = service::ModelCache::kDefaultMaxBytes;
    /// Admission bound forwarded to SolverService (0 = unbounded);
    /// over-capacity submits come back 429.
    std::size_t max_queue_depth = 0;
    /// Applied when a job sets neither time_limit nor max_batches.
    double default_time_limit = 5.0;
    std::size_t max_events_per_job = 256;
    /// Default solve() attempts for retryable failures.
    std::uint32_t max_attempts = 3;
    /// Journal path (empty = no journal, no resume).
    std::string journal_path;
    /// Replay the journal and re-submit non-terminal jobs from their
    /// stored request bodies.  Requires journal_path.
    bool resume = false;
    /// Finished jobs kept queryable after the reaper releases them from
    /// the service (oldest evicted beyond this many).
    std::size_t retention_jobs = 1024;
    /// Global-id encoding (defaults: the unsharded topology).
    std::size_t shard_idx = 0;
    std::size_t shards = 1;
    /// When non-empty, every job the reaper collects is recorded as trace
    /// spans and dumped as Chrome trace-event JSON here at shutdown
    /// (`dabs_cli serve --trace`).  Shard workers write
    /// "<path>.shard<k>" like the journal.
    std::string trace_path;
  };

  explicit JobApi(Config config);
  ~JobApi() override;

  JobApi(const JobApi&) = delete;
  JobApi& operator=(const JobApi&) = delete;

  ApiReply submit(const std::string& body) override;
  ApiReply status(std::uint64_t id) override;
  ApiReply events(std::uint64_t id, std::uint64_t* cursor, bool* done,
                  std::size_t* count) override;
  ApiReply cancel(std::uint64_t id) override;
  ApiReply stats() override;
  ApiReply metrics() override;
  std::size_t shards() const override { return config_.shards; }

  /// This process's registry as a JSON snapshot — the payload of the
  /// shard "metrics" RPC, which the parent merges under per-shard labels.
  static std::string metrics_snapshot_json();

  /// Jobs re-submitted from the journal by the constructor (--resume).
  std::size_t resumed() const noexcept { return resumed_; }
  /// Journal-append failures so far (the API keeps serving without
  /// durability; /v1/stats surfaces the count).
  std::uint64_t journal_errors() const noexcept {
    return journal_errors_.load(std::memory_order_relaxed);
  }

 private:
  /// What status/events need after the service record is released, and
  /// what the decode/verify pass needs while the job is in flight.
  struct Pending {
    std::shared_ptr<const dabs::Problem> problem;
    std::shared_ptr<const dabs::QuboModel> model;
    std::string fingerprint;
  };

  ApiReply submit_internal(const std::string& body,
                           const std::string& forced_fingerprint);
  void reaper_loop();
  /// Annotates (decode/verify), journals, releases and retains one
  /// finished job; a no-op if it was already retired.  Caller holds mu_.
  void retire_locked(service::JobId local);
  void journal_append(const service::JournalRecord& record);
  /// Renders one job's status JSON from a snapshot (global id).
  std::string render_status(std::uint64_t global_id,
                            const service::JobSnapshot& snap,
                            const std::string& fingerprint) const;

  std::uint64_t to_global(service::JobId local) const {
    return local * config_.shards + config_.shard_idx;
  }

  const Config config_;
  std::unique_ptr<service::JobJournal> journal_;
  service::SolverService service_;

  mutable std::mutex mu_;
  /// In-flight jobs by local id; moved to finished_ by the reaper.
  std::map<service::JobId, Pending> pending_;
  /// Terminal jobs after release: the annotated final snapshot, retained
  /// for status/events until evicted (finish order).
  struct Finished {
    service::JobSnapshot snap;
    std::string fingerprint;
  };
  std::map<service::JobId, Finished> finished_;
  std::deque<service::JobId> finish_order_;
  /// "#N" disambiguation for duplicate submissions, seeded from the
  /// journal on resume so numbering continues across restarts.
  std::map<std::string, std::uint64_t> fingerprint_occurrences_;
  /// Atomic, not mu_-guarded: journal_append runs both under mu_ (submit)
  /// and without it (the service's on_started hook on worker threads).
  std::atomic<std::uint64_t> journal_errors_{0};
  std::size_t resumed_ = 0;
  /// Populated by the reaper when Config::trace_path is set; dumped by the
  /// destructor.
  obs::TraceCollector trace_;

  std::atomic<bool> stop_reaper_{false};
  std::thread reaper_;
};

}  // namespace dabs::net
