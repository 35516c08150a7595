// The job schema both front ends accept, and the one job lifecycle behind
// them.  The JSONL batch runner (batch_runner.hpp) and the HTTP JobApi
// (net/job_api.hpp) frame jobs differently — lines in and out on one
// side, HTTP replies on the other — but every job either accepts runs the
// same JobLedger steps, so both give a job the same fingerprint, the same
// journal records and the same report extras:
//
//   fingerprint()  stable job identity; the N-th duplicate gets "#N"
//   admit()        write-ahead `submitted` record, then the registry
//                  Problem (shared per spec) for problem jobs
//   load()         the model through the service's ModelCache
//   submit()       spec defaults + extras, enqueue on the SolverService
//   fail()         terminal `failed` record for a job that never ran
//   (retire)       decode + verify, publish, terminal record, job trace —
//                  run by the service's on_transition hook on whichever
//                  thread ends the job, before the job is visibly terminal
//
// The `started` record comes from the same hook on the worker that picks
// the job up.  Every call is thread-safe: the ledger's maps share one
// mutex, never held across a model load, a solve or a journal write.
//
// Job schema (one JSON object; exactly one of "model" / "problem"):
//
//   {"model": "k2000.txt",        // problem file, parsed once per path
//    "format": "qubo",            // qubo | gset | qaplib (with "model")
//    "problem": "tsp",            // OR: any ProblemRegistry spec, e.g.
//                                 //     "qap", "g39", "gset:G22.txt"
//    "params": {"n": 8},          // problem params (with "problem")
//    "solver": "tabu",            // any registry name (default dabs)
//    "options": {"tenure": 8},    // solver options (string/number/bool)
//    "time_limit": 2.5,           // StopCondition seconds
//    "max_batches": 1000,         // StopCondition work budget
//    "target": -33337,            // StopCondition target energy
//    "deadline": 10,              // wall-clock deadline from submit (sec);
//                                 // the watchdog cancels overruns
//    "attempts": 3,               // solve() attempts for retryable errors
//                                 // (default: JobConfig::max_attempts)
//    "seed": 7, "priority": 2, "tag": "hot", "tick": 0.5}
//
// Every model flows through the service's ModelCache — file jobs keyed by
// "<format>#<path>", problem jobs by "problem#<canonical key>" — so
// repeated specs skip the encode and equal-content instances share
// storage; each report's extras record the outcome ("model_cache":
// hit|miss, "model_cache_hits": running total) plus "model" and
// "fingerprint".  Problem jobs are decoded and verified when they finish:
// their extras carry "objective", "objective_name", "feasible" and
// "verified" (the energy is re-evaluated against the cached model, not
// trusted from the solver).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/trace.hpp"
#include "problems/problem_registry.hpp"
#include "service/job_journal.hpp"
#include "service/model_cache.hpp"
#include "service/solver_service.hpp"

namespace dabs::service {

/// One parsed job, model not yet loaded.  Exactly one of `model_path`
/// (+ `format`) and `problem` (+ `params`) is set.
struct BatchJob {
  std::string model_path;
  std::string format = "qubo";
  /// ProblemRegistry spec ("qap", "gset:G22.txt", ...); empty for file
  /// jobs.
  std::string problem;
  /// Problem params (the "params" object), forwarded to the registry.
  SolverOptions params;
  /// True when the job set "attempts" itself (otherwise
  /// JobConfig::max_attempts applies).
  bool explicit_attempts = false;
  JobSpec spec;  // spec.model stays null until the ledger loads it
};

/// Parses one job object; throws std::invalid_argument with a readable
/// message on schema violations.
BatchJob parse_batch_job(const std::string& json_line);

/// Stable fingerprint of a job definition: 16 hex chars of FNV-1a over
/// every field that identifies the job (model/problem spec + params +
/// solver + options + stop condition + seed + priority + tag + deadline +
/// attempts).  Identical jobs collide by construction — JobLedger::
/// fingerprint() disambiguates them with a "#<occurrence>" suffix, which
/// is what the journal stores and the report extras echo.
std::string job_fingerprint(const BatchJob& job);

/// The job's model spec: the problem spec + params, or "<format>#<path>"
/// for file jobs.  Deliberately the *spec*, not the canonical resolved
/// model key: computing it runs no generator, so admit() can find the
/// Problem that in-flight jobs with the same spec already share before
/// creating one.
std::string spec_key(const BatchJob& job);

/// The bounded-run policy the single-run CLI applies, shared with service
/// jobs: when a wall-clock or work budget governs the run, lift the
/// baselines' small default iteration budgets so the StopCondition decides
/// when to stop.  A target alone does not lift (it may never be reached).
/// Explicitly set options always win.
void apply_time_governed_budgets(const std::string& solver,
                                 const StopCondition& stop,
                                 SolverOptions& options);

/// The settings both front ends share; `dabs_cli batch` and `dabs_cli
/// serve` fill it from the same flags.  BatchOptions and JobApi::Config
/// extend it (JobApi::Config starts from its own threads and events
/// defaults).
struct JobConfig {
  /// Solver worker threads (the CLI's --jobs).
  std::size_t threads = 4;
  std::size_t cache_bytes = ModelCache::kDefaultMaxBytes;
  /// Applied when a job sets neither time_limit nor max_batches, so every
  /// job is bounded (a target alone may never be reached).
  double default_time_limit = 5.0;
  /// Per-job event-log bound.
  std::size_t max_events_per_job = 64;
  /// Write-ahead journal path (empty = no journal).
  std::string journal_path;
  /// Replay the journal at start (see each front end).  Requires
  /// journal_path.
  bool resume = false;
  /// Default solve()/load attempts for retryable failures (>= 1); a job's
  /// "attempts" overrides it.
  std::uint32_t max_attempts = 3;
  /// Retry backoff shape (see retry_backoff() in solver_service.hpp).
  double retry_backoff_seconds = 0.05;
  double retry_backoff_max_seconds = 2.0;
  /// Admission bound forwarded to SolverService (0 = unbounded).
  std::size_t max_queue_depth = 0;
  /// When non-empty, every retired job's lifecycle (queued / run spans,
  /// progress instants) is collected for a Chrome trace-event JSON dump
  /// at this path (`--trace`).
  std::string trace_path;
};

class JobLedger {
 public:
  /// A job between its `submitted` record and its terminal record.
  struct Entry {
    std::string fingerprint;
    /// Batch input line (0 for HTTP jobs); journaled as provenance.
    std::uint64_t line = 0;
    std::string tag;
    std::string spec_key;
    /// Problem jobs only: decode/verify happens when the job retires.
    std::shared_ptr<const Problem> problem;
    std::shared_ptr<const QuboModel> model;
    bool cache_hit = false;
  };

  /// A finished job: its annotated final snapshot and ledger identity.
  struct Retired {
    const JobSnapshot& snap;
    const std::string& fingerprint;
    std::uint64_t line = 0;
    /// solve() attempts made (the report's "attempts" extra; 0 when the
    /// job never started).
    std::uint32_t attempts = 0;
  };
  /// Called once per finished job, on the thread that ends it, before the
  /// terminal record: a crash between the two re-runs the job on resume
  /// instead of losing its report (reports are at-least-once, terminal
  /// records exactly-once).
  using Publish = std::function<void(const Retired&)>;

  /// Starts the SolverService and opens the journal.  A journal that
  /// cannot be opened leaves journaled() false and journal_error() set;
  /// each front end decides whether to run without it.
  explicit JobLedger(const JobConfig& config, Publish publish = {});
  ~JobLedger();

  JobLedger(const JobLedger&) = delete;
  JobLedger& operator=(const JobLedger&) = delete;

  SolverService& service() noexcept { return service_; }

  bool journaled() const noexcept { return journal_ != nullptr; }
  /// The first journal failure (open or append); empty when none.
  std::string journal_error() const;
  /// Records appended / journal failures so far (a failed open counts as
  /// one; append failures also count in dabs_journal_append_errors_total).
  std::uint64_t journal_records() const noexcept;
  std::uint64_t journal_errors() const noexcept {
    return journal_errors_.load(std::memory_order_relaxed);
  }

  /// The job's fingerprint; the N-th call with an identical definition
  /// gets "<base>#N" (deterministic for a fixed job sequence, which is
  /// what batch --resume relies on).
  std::string fingerprint(const BatchJob& job);
  /// Continues "#N" numbering past every fingerprint in `replay`, so a
  /// restarted server never reuses a journaled fingerprint.
  void seed_occurrences(const JobJournal::Replay& replay);

  /// Writes the `submitted` record (`line` and `body` are provenance: the
  /// batch input line, or the HTTP request body that serve --resume
  /// rebuilds the job from), then resolves a problem job's registry
  /// Problem.  A bad spec is the caller's input to fix: journals `failed`
  /// and rethrows.
  Entry admit(const BatchJob& job, std::string fingerprint,
              std::uint64_t line, const std::string& body);
  /// Loads entry.model through the ModelCache (sets entry.cache_hit).
  /// Throws what the load threw; the caller decides on retry and fail().
  void load(Entry& entry, const BatchJob& job);
  /// Terminal `failed` record for a job that never reached the service.
  void fail(const Entry& entry, const std::string& detail,
            std::uint32_t attempt = 0);
  /// Fills the spec defaults (time limit, budgets, attempts, backoff) and
  /// extras, then enqueues the job.  From here on the job retires itself
  /// (see Publish).  Unknown solver / bad options: journals `failed` and
  /// rethrows.
  JobId submit(Entry entry, BatchJob job);

  /// Retired jobs' trace spans (empty unless JobConfig::trace_path).
  const obs::TraceCollector& trace() const noexcept { return trace_; }

 private:
  /// The service's on_transition hook: `started` on pickup; on the
  /// terminal transition decode + verify (problem jobs), publish_, the
  /// terminal record and the job trace.
  void on_transition(JobSnapshot& snap);
  void append(const JournalRecord& record);
  void record(const Entry& entry, JournalEvent event,
              const std::string& detail, std::uint32_t attempt);

  const JobConfig config_;
  const Publish publish_;
  /// Guards journal_error_ (appends fail on worker threads too).
  mutable std::mutex journal_mu_;
  std::string journal_error_;
  std::atomic<std::uint64_t> journal_errors_{0};

  // Everything the hook touches is declared before service_: the service
  // destructor cancels what is left, and those jobs retire through the
  // hook before service_ is gone.
  std::unique_ptr<JobJournal> journal_;
  /// Guards in_flight_, problems_by_spec_ and occurrences_.
  std::mutex mu_;
  /// Submitted jobs not yet retired, by fingerprint (unique per process;
  /// known before the service assigns an id, so a job that finishes
  /// inside submit() still finds its entry).
  std::map<std::string, Entry> in_flight_;
  /// Spec-level Problem sharing: identical "problem"+"params" jobs share
  /// one instance (one generator run / file read), weakly held so a spec
  /// whose jobs all finished frees its instance data — only the
  /// LRU-bounded ModelCache keeps big state across jobs.
  std::map<std::string, std::weak_ptr<const Problem>> problems_by_spec_;
  std::map<std::string, std::uint64_t> occurrences_;
  obs::TraceCollector trace_;
  SolverService service_;
};

}  // namespace dabs::service
