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
// Every job retires on the thread that ends it (the ledger's hook on the
// service), before it is visibly terminal, so a status read is a plain
// read of the service: a terminal job already carries its decode/verify
// extras and its journal record.  Finished jobs stay readable until
// SolverService::kRetainedJobs newer ones have finished, then are 404.
//
// Durability: with a journal armed, every accept's `submitted` record
// holds the raw request body in its detail field.  `resume()`-style
// recovery happens in the constructor: fingerprints whose last journal
// record is non-terminal are re-submitted from that stored body under
// their original fingerprint.  A journal that cannot be opened refuses
// the start.  Destroying the JobApi cancels what is still queued or
// running; each such job journals one `cancelled` record, which --resume
// re-runs.
#pragma once

#include <cstdint>
#include <string>

#include "service/job_ledger.hpp"

namespace dabs::net {

/// HTTP-ish outcome of one operation: a status code plus a JSON object
/// body.  Operations never throw for request-level problems — bad input is
/// a 4xx reply, broken environment a 5xx.
struct ApiReply {
  int status = 200;
  std::string body;
};

/// HTTP-shaped operations over a JobLedger (SolverService + ModelCache +
/// optional journal).  Thread-safe: it keeps no job state of its own.
class JobApi {
 public:
  struct Config : service::JobConfig {
    Config() {
      threads = 2;
      max_events_per_job = 256;
    }
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

  const Config config_;
  service::JobLedger ledger_;
  /// Set by the constructor only.
  std::size_t resumed_ = 0;
};

}  // namespace dabs::net
