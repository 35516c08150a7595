// The solve-API backend behind SolveServer's HTTP routes.  Two
// implementations exist: JobApi (this file) runs jobs on an in-process
// SolverService, and ShardBackend (shard_router.hpp) forwards the same
// operations to forked worker processes over the shard RPC.  Splitting
// the HTTP routing from the job handling keeps the endpoints byte-for-
// byte identical across the one-process and sharded topologies.
//
// Request/report JSON is the job schema (service/job_ledger.hpp): a POST
// /v1/jobs body is exactly one batch job line, and every job runs the same
// JobLedger lifecycle as a batch job — same fingerprint, same journal
// records, same report extras.
//
// Job ids are global across a shard group: a worker owning shard k of N
// publishes `local_id * N + k`, so any id maps back to its shard with a
// modulo — the front end never rewrites response bodies.
//
// Durability: with a journal armed, every accept's `submitted` record
// holds the raw request body in its detail field, and the reaper retires
// finished jobs through the ledger.  `resume()`-style recovery happens in
// the constructor: fingerprints whose last journal record is non-terminal
// are re-submitted from that stored body under their original
// fingerprint.  A journal that cannot be opened refuses the start.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "service/job_ledger.hpp"

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

/// In-process JobBackend: a JobLedger (SolverService + ModelCache +
/// optional journal) plus a reaper thread that retires finished jobs
/// through it and bounds retention.
///
/// Thread-safety: all five operations and the reaper serialize on one
/// internal mutex (operations are queue-sized, not solve-sized — the
/// solving itself happens on the service's worker pool).
class JobApi final : public JobBackend {
 public:
  struct Config : service::JobConfig {
    Config() {
      threads = 2;
      max_events_per_job = 256;
    }
    /// Finished jobs kept queryable after the reaper releases them from
    /// the service (oldest evicted beyond this many).
    std::size_t retention_jobs = 1024;
    /// Global-id encoding (defaults: the unsharded topology).  Shard
    /// workers write their journal and trace to "<path>.shard<k>".
    std::size_t shard_idx = 0;
    std::size_t shards = 1;
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

 private:
  ApiReply submit_internal(const std::string& body,
                           const std::string& forced_fingerprint);
  void reaper_loop();
  /// Retires one finished job through the ledger and retains its final
  /// snapshot; a no-op if it was already retired.  Caller holds mu_.
  void retire_locked(service::JobId local);
  /// Renders one job's status JSON from a snapshot (global id).
  std::string render_status(std::uint64_t global_id,
                            const service::JobSnapshot& snap,
                            const std::string& fingerprint) const;

  std::uint64_t to_global(service::JobId local) const {
    return local * config_.shards + config_.shard_idx;
  }

  const Config config_;
  /// Intake, retire and the maps below serialize on mu_ (the ledger's
  /// journal is also written from the service's worker threads).
  service::JobLedger ledger_;

  mutable std::mutex mu_;
  /// Terminal jobs after release: the annotated final snapshot, retained
  /// for status/events until evicted (finish order).
  std::map<service::JobId, service::JobLedger::Retired> finished_;
  std::deque<service::JobId> finish_order_;
  std::size_t resumed_ = 0;

  std::atomic<bool> stop_reaper_{false};
  std::thread reaper_;
};

}  // namespace dabs::net
