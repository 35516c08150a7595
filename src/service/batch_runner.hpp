// JSONL framing over the job lifecycle in job_ledger.hpp: read one job
// object per line (the schema is in job_ledger.hpp), run them
// concurrently, stream one report object per line as jobs finish (out of
// order — each output line carries its job id, input line and
// fingerprint).  Blank lines and lines starting with '#' are skipped.
//
// What the batch adds to the ledger:
//
//   - Resume: with `resume`, jobs whose fingerprint already reached
//     done/failed in the journal are skipped — kill -9 mid-batch, re-run
//     with --resume, and the union of streamed reports is exactly the job
//     set.  A journal that cannot be opened only warns: the batch runs
//     without durability.
//   - Model loads that fail retryably (unreadable files, injected faults)
//     retry up to max_attempts times with bounded exponential backoff.
//   - `interrupt` (wired to SIGINT/SIGTERM by the CLI) stops intake,
//     cancels outstanding jobs, flushes the journal and the reports
//     already earned, prints the summary, and returns 130.  A consumer
//     that hangs up stops intake the same way.
#pragma once

#include <atomic>
#include <iosfwd>

#include "service/job_ledger.hpp"

namespace dabs::service {

struct BatchOptions : JobConfig {
  /// Optional cooperative-interrupt flag: when it flips true (e.g. from a
  /// SIGINT handler), the runner stops intake, cancels outstanding jobs,
  /// flushes journal + earned reports, and returns 130.
  const std::atomic<bool>* interrupt = nullptr;
};

/// Runs every job in `jobs_in` on a fresh JobLedger and streams one JSON
/// object per line into `out` as jobs complete; diagnostics go to `err`.
/// Returns 0 when every line parsed and every job finished normally, 130
/// when options.interrupt fired, 1 otherwise (malformed lines and
/// failed/rejected jobs still produce an output line each, so callers can
/// join inputs to outcomes).
int run_batch(std::istream& jobs_in, std::ostream& out, std::ostream& err,
              const BatchOptions& options = {});

}  // namespace dabs::service
