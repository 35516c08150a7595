// The solve API behind SolveServer's HTTP routes: JobApi runs jobs on an
// in-process SolverService.  The HTTP routing (solve_server.hpp) stays
// separate from the job handling, so the operations are testable without
// a socket.
//
// Request/report JSON is the job schema (service/job_ledger.hpp): a POST
// /v1/jobs body is exactly one batch job line, and every job runs the same
// JobLedger lifecycle as a batch job — same fingerprint, same journal
// records, same report extras.  A job id is the SolverService's id.
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

/// HTTP-ish outcome of one operation: a status code plus a JSON object
/// body.  Operations never throw for request-level problems — bad input is
/// a 4xx reply, broken environment a 5xx.
struct ApiReply {
  int status = 200;
  std::string body;
};

/// A JobLedger (SolverService + ModelCache + optional journal) plus a
/// reaper thread that retires finished jobs through it and bounds
/// retention.
///
/// Thread-safety: the job operations and the reaper serialize on one
/// internal mutex (operations are queue-sized, not solve-sized — the
/// solving itself happens on the service's worker pool).
class JobApi {
 public:
  struct Config : service::JobConfig {
    Config() {
      threads = 2;
      max_events_per_job = 256;
    }
    /// Finished jobs kept queryable after the reaper releases them from
    /// the service (oldest evicted beyond this many).
    std::size_t retention_jobs = 1024;
  };

  explicit JobApi(Config config);
  ~JobApi();

  JobApi(const JobApi&) = delete;
  JobApi& operator=(const JobApi&) = delete;

  /// POST /v1/jobs: body is one batch-schema job object.
  /// 202 accepted / 400 schema / 429 shed / 5xx environment.
  ApiReply submit(const std::string& body);

  /// GET /v1/jobs/{id}: state + report (terminal jobs include the
  /// decode/verify extras).  404 unknown.
  ApiReply status(service::JobId id);

  /// One page of the job's event log from *cursor, advancing it.  Sets
  /// *count to the number of events in the page and *done when the job is
  /// terminal and the log is drained (the stream may end).
  ApiReply events(service::JobId id, std::uint64_t* cursor, bool* done,
                  std::size_t* count);

  /// DELETE /v1/jobs/{id}: 202 cancelling, 409 already terminal, 404.
  ApiReply cancel(service::JobId id);

  /// GET /v1/stats: service gauges/counters + cache stats as JSON.
  ApiReply stats();

  /// GET /v1/metrics: Prometheus text exposition of the process-wide
  /// metrics registry.
  ApiReply metrics();

  /// Jobs re-submitted from the journal by the constructor (--resume).
  std::size_t resumed() const noexcept { return resumed_; }

 private:
  ApiReply submit_internal(const std::string& body,
                           const std::string& forced_fingerprint);
  void reaper_loop();
  /// Retires one finished job through the ledger and retains its final
  /// snapshot; a no-op if it was already retired.  Caller holds mu_.
  void retire_locked(service::JobId id);
  /// Renders one job's status JSON from a snapshot.
  std::string render_status(service::JobId id,
                            const service::JobSnapshot& snap,
                            const std::string& fingerprint) const;

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
