#include "service/job_ledger.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <utility>

#include "io/json_reader.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "problems/problem.hpp"
#include "util/failpoint.hpp"

namespace dabs::service {

namespace {

/// Converts one "options" member to the string form SolverOptions parses.
std::string option_to_string(const std::string& key,
                             const io::JsonValue& value) {
  switch (value.kind()) {
    case io::JsonValue::Kind::kString:
      return value.as_string();
    case io::JsonValue::Kind::kBool:
      return value.as_bool() ? "true" : "false";
    case io::JsonValue::Kind::kNumber: {
      try {
        return std::to_string(value.as_int());
      } catch (const std::invalid_argument&) {
        // Non-integral: shortest round-trippable decimal.
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", value.as_double());
        return buf;
      }
    }
    default:
      throw std::invalid_argument("option '" + key +
                                  "' must be a string, number, or boolean");
  }
}

std::int64_t require_nonnegative(const char* key, std::int64_t v) {
  if (v < 0) {
    throw std::invalid_argument(std::string("'") + key +
                                "' must be non-negative");
  }
  return v;
}

obs::Counter& journal_error_counter() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "dabs_journal_append_errors_total",
      "Journal appends that failed (the server keeps serving without "
      "durability).");
  return counter;
}

}  // namespace

BatchJob parse_batch_job(const std::string& json_line) {
  const io::JsonValue root = io::parse_json(json_line);
  if (!root.is_object()) {
    throw std::invalid_argument("job line must be a JSON object");
  }

  BatchJob job;
  bool have_model = false;
  bool have_format = false;
  bool have_problem = false;
  bool have_params = false;
  for (const auto& [key, value] : root.as_object()) {
    if (key == "model") {
      job.model_path = value.as_string();
      have_model = true;
    } else if (key == "format") {
      job.format = value.as_string();
      have_format = true;
    } else if (key == "problem") {
      job.problem = value.as_string();
      have_problem = true;
    } else if (key == "params") {
      for (const auto& [param_key, param_value] : value.as_object()) {
        job.params.set(param_key,
                       option_to_string(param_key, param_value));
      }
      have_params = true;
    } else if (key == "solver") {
      job.spec.solver = value.as_string();
    } else if (key == "options") {
      for (const auto& [opt_key, opt_value] : value.as_object()) {
        job.spec.options.set(opt_key, option_to_string(opt_key, opt_value));
      }
    } else if (key == "time_limit") {
      job.spec.stop.time_limit_seconds = value.as_double();
      if (job.spec.stop.time_limit_seconds < 0) {
        throw std::invalid_argument("'time_limit' must be non-negative");
      }
    } else if (key == "max_batches") {
      job.spec.stop.max_batches = static_cast<std::uint64_t>(
          require_nonnegative("max_batches", value.as_int()));
    } else if (key == "target") {
      job.spec.stop.target_energy = value.as_int();
    } else if (key == "deadline") {
      job.spec.deadline_seconds = value.as_double();
      if (job.spec.deadline_seconds <= 0) {
        throw std::invalid_argument("'deadline' must be positive");
      }
    } else if (key == "attempts") {
      const std::int64_t a = value.as_int();
      if (a < 1 || a > 100) {
        throw std::invalid_argument("'attempts' must be in [1, 100]");
      }
      job.spec.max_attempts = static_cast<std::uint32_t>(a);
      job.explicit_attempts = true;
    } else if (key == "seed") {
      job.spec.seed = static_cast<std::uint64_t>(
          require_nonnegative("seed", value.as_int()));
    } else if (key == "priority") {
      const std::int64_t p = value.as_int();
      if (p < std::numeric_limits<int>::min() ||
          p > std::numeric_limits<int>::max()) {
        throw std::invalid_argument("'priority' is out of range");
      }
      job.spec.priority = static_cast<int>(p);
    } else if (key == "tag") {
      job.spec.tag = value.as_string();
    } else if (key == "tick") {
      job.spec.tick_seconds = value.as_double();
    } else {
      throw std::invalid_argument("unknown job key '" + key + "'");
    }
  }
  if (have_model == have_problem) {
    throw std::invalid_argument(
        "job line requires exactly one of 'model' and 'problem'");
  }
  if (have_model && job.model_path.empty()) {
    throw std::invalid_argument("job line requires a non-empty 'model'");
  }
  if (have_problem && job.problem.empty()) {
    throw std::invalid_argument("job line requires a non-empty 'problem'");
  }
  if (have_format && have_problem) {
    throw std::invalid_argument(
        "'format' applies to 'model' jobs only (fold the loader into the "
        "problem spec, e.g. \"gset:G22.txt\")");
  }
  if (have_params && !have_problem) {
    throw std::invalid_argument("'params' requires a 'problem' job");
  }
  // The legacy "format" values are exactly the registry's file loaders.
  if (have_model && !ProblemRegistry::global().is_loader(job.format)) {
    throw std::invalid_argument("unknown model format '" + job.format +
                                "' (expected qubo, gset, or qaplib)");
  }
  return job;
}

std::string job_fingerprint(const BatchJob& job) {
  // FNV-1a over every identity field, a 0x1f unit separator after each so
  // field boundaries cannot alias ("ab"+"c" vs "a"+"bc").  Map-backed
  // fields iterate in key order, so the digest is independent of input
  // key order.  Computed on the *parsed* job, before the JobConfig defaults
  // (time limit, attempts) are folded in — the same line fingerprints the
  // same across runs with different --attempts/--jobs settings, which is
  // what makes --resume match.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::string& field) {
    for (const unsigned char c : field) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0x1f;
    h *= 1099511628211ull;
  };
  if (job.problem.empty()) {
    mix("model:" + job.format + ":" + job.model_path);
  } else {
    mix("problem:" + job.problem);
  }
  for (const auto& [key, value] : job.params.values()) mix(key + "=" + value);
  mix(job.spec.solver);
  for (const auto& [key, value] : job.spec.options.values()) {
    mix(key + "=" + value);
  }
  mix(std::to_string(job.spec.stop.time_limit_seconds));
  mix(std::to_string(job.spec.stop.max_batches));
  mix(job.spec.stop.target_energy
          ? std::to_string(*job.spec.stop.target_energy)
          : std::string("-"));
  mix(job.spec.seed ? std::to_string(*job.spec.seed) : std::string("-"));
  mix(std::to_string(job.spec.priority));
  mix(job.spec.tag);
  mix(std::to_string(job.spec.deadline_seconds));
  mix(job.explicit_attempts ? std::to_string(job.spec.max_attempts)
                            : std::string("-"));
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

void apply_time_governed_budgets(const std::string& solver,
                                 const StopCondition& stop,
                                 SolverOptions& options) {
  // Only a wall-clock or work budget justifies lifting the baselines'
  // own iteration budgets: a target alone may never be reached, and
  // lifting on it would turn a terminating run into an unbounded one.
  if (stop.time_limit_seconds <= 0 && stop.max_batches == 0) return;
  const auto fill = [&](const char* name, const char* key, const char* v) {
    if (solver == name && !options.has(key)) options.set(key, v);
  };
  fill("sa", "restarts", "1000000000");
  fill("greedy-restart", "restarts", "1000000000");
  fill("tabu", "iterations", "1000000000000");
  fill("path-relinking", "relinks", "1000000000");
  fill("subqubo", "iterations", "1000000000");
}

std::string spec_key(const BatchJob& job) {
  if (job.problem.empty()) return job.format + "#" + job.model_path;
  std::string key = job.problem;
  for (const auto& [k, v] : job.params.values()) {
    key += '\x1f' + k + '=' + v;
  }
  return key;
}

JobLedger::JobLedger(const JobConfig& config, Publish publish)
    : config_(config),
      publish_(std::move(publish)),
      journal_([this]() -> std::unique_ptr<JobJournal> {
        if (config_.journal_path.empty()) return nullptr;
        try {
          return std::make_unique<JobJournal>(config_.journal_path);
        } catch (const std::exception& e) {
          journal_error_ = e.what();
          journal_errors_.store(1, std::memory_order_relaxed);
          return nullptr;
        }
      }()),
      service_([this] {
        SolverService::Config sc;
        sc.threads = config_.threads;
        sc.max_events_per_job = config_.max_events_per_job;
        sc.cache_bytes = config_.cache_bytes;
        sc.max_queue_depth = config_.max_queue_depth;
        sc.on_transition = [this](JobSnapshot& snap) { on_transition(snap); };
        return sc;
      }()) {}

JobLedger::~JobLedger() = default;

std::string JobLedger::journal_error() const {
  std::lock_guard lock(journal_mu_);
  return journal_error_;
}

std::uint64_t JobLedger::journal_records() const noexcept {
  return journal_ ? journal_->appended() : 0;
}

void JobLedger::append(const JournalRecord& record) {
  if (!journal_) return;
  try {
    journal_->append(record);
  } catch (const std::exception& e) {
    // Journal appends never stop the jobs: count, log (rate-limited), keep
    // solving without durability.
    {
      std::lock_guard lock(journal_mu_);
      if (journal_error_.empty()) journal_error_ = e.what();
    }
    journal_errors_.fetch_add(1, std::memory_order_relaxed);
    journal_error_counter().inc();
    static obs::LogRateLimit gate(5.0);
    std::uint64_t suppressed = 0;
    if (gate.allow(&suppressed)) {
      obs::log(obs::LogLevel::kWarn, "journal", "append failed",
               {{"error", e.what()}, {"suppressed", suppressed}});
    }
  }
}

void JobLedger::record(const Entry& entry, JournalEvent event,
                       const std::string& detail, std::uint32_t attempt) {
  JournalRecord record;
  record.event = event;
  record.fingerprint = entry.fingerprint;
  record.line = entry.line;
  record.tag = entry.tag;
  record.attempt = attempt;
  record.detail = detail;
  append(record);
}

std::string JobLedger::fingerprint(const BatchJob& job) {
  std::string fingerprint = job_fingerprint(job);
  std::lock_guard lock(mu_);
  const std::uint64_t occurrence = ++occurrences_[fingerprint];
  if (occurrence > 1) fingerprint += "#" + std::to_string(occurrence);
  return fingerprint;
}

void JobLedger::seed_occurrences(const JobJournal::Replay& replay) {
  std::lock_guard lock(mu_);
  for (const auto& [fp, event] : replay.last_event) {
    const std::size_t hash = fp.find('#');
    std::uint64_t occurrence =
        hash == std::string::npos
            ? 1
            : std::strtoull(fp.c_str() + hash + 1, nullptr, 10);
    if (occurrence == 0) occurrence = 1;
    std::uint64_t& seen = occurrences_[fp.substr(0, hash)];
    if (occurrence > seen) seen = occurrence;
  }
}

JobLedger::Entry JobLedger::admit(const BatchJob& job,
                                  std::string fingerprint,
                                  std::uint64_t line,
                                  const std::string& body) {
  Entry entry;
  entry.fingerprint = std::move(fingerprint);
  entry.line = line;
  entry.tag = job.spec.tag;
  entry.spec_key = spec_key(job);
  // Write-ahead: the submitted record is durable before any work happens,
  // so a crash anywhere after this point leaves a journal that names the
  // job (no terminal record = re-enqueue on resume).
  record(entry, JournalEvent::kSubmitted, body, 0);
  if (job.problem.empty()) return entry;
  {
    std::lock_guard lock(mu_);
    const auto shared = problems_by_spec_.find(entry.spec_key);
    if (shared != problems_by_spec_.end()) {
      entry.problem = shared->second.lock();
    }
  }
  if (!entry.problem) {
    // Created off the lock (a registry spec may read a file); concurrent
    // admits of one new spec may each create one, the last one is shared.
    try {
      entry.problem = ProblemRegistry::global().create(job.problem, job.params);
    } catch (const std::exception& e) {
      record(entry, JournalEvent::kFailed, std::string("invalid: ") + e.what(),
             0);
      throw;
    }
    std::lock_guard lock(mu_);
    problems_by_spec_[entry.spec_key] = entry.problem;
  }
  return entry;
}

void JobLedger::load(Entry& entry, const BatchJob& job) {
  const std::string cache_key =
      entry.problem ? "problem#" + entry.problem->cache_key()
                    : job.format + "#" + job.model_path;
  entry.model = service_.cache().get_or_load(
      cache_key,
      [&entry, &job] {
        fail::point("batch.model_load");
        if (entry.problem) return entry.problem->encode();
        return ProblemRegistry::global()
            .create(job.format + ":" + job.model_path)
            ->encode();
      },
      &entry.cache_hit);
}

void JobLedger::fail(const Entry& entry, const std::string& detail,
                     std::uint32_t attempt) {
  record(entry, JournalEvent::kFailed, detail, attempt);
}

JobId JobLedger::submit(Entry entry, BatchJob job) {
  JobSpec& spec = job.spec;
  spec.model = entry.model;
  if (spec.stop.time_limit_seconds <= 0 && spec.stop.max_batches == 0) {
    // A target alone may never be reached; keep every job bounded.
    spec.stop.time_limit_seconds = config_.default_time_limit;
  }
  apply_time_governed_budgets(spec.solver, spec.stop, spec.options);
  if (!job.explicit_attempts) spec.max_attempts = config_.max_attempts;
  spec.retry_backoff_seconds = config_.retry_backoff_seconds;
  spec.retry_backoff_max_seconds = config_.retry_backoff_max_seconds;
  spec.extras["model"] = entry.model->describe();
  spec.extras["model_cache"] = entry.cache_hit ? "hit" : "miss";
  spec.extras["model_cache_hits"] =
      std::to_string(service_.cache().stats().hits);
  spec.extras["fingerprint"] = entry.fingerprint;
  // Registered before the service sees the job: a worker can finish it
  // (and an admission reject retires it) before submit() returns.
  const std::string fingerprint = entry.fingerprint;
  {
    std::lock_guard lock(mu_);
    in_flight_.emplace(fingerprint, entry);
  }
  try {
    return service_.submit(std::move(spec));
  } catch (const std::exception& e) {
    {
      std::lock_guard lock(mu_);
      in_flight_.erase(fingerprint);
    }
    fail(entry, std::string("invalid: ") + e.what());
    throw;
  }
}

void JobLedger::on_transition(JobSnapshot& snap) {
  const auto fingerprint = snap.report.extras.find("fingerprint");
  if (fingerprint == snap.report.extras.end()) return;
  if (snap.state == JobState::kRunning) {
    JournalRecord record;
    record.event = JournalEvent::kStarted;
    record.fingerprint = fingerprint->second;
    record.tag = snap.tag;
    append(record);
    return;
  }
  Entry entry;
  {
    std::lock_guard lock(mu_);
    auto node = in_flight_.extract(fingerprint->second);
    if (!node) return;
    entry = std::move(node.mapped());
  }
  std::uint32_t attempts = 0;
  const auto attempts_extra = snap.report.extras.find("attempts");
  if (attempts_extra != snap.report.extras.end()) {
    attempts = static_cast<std::uint32_t>(
        std::strtoul(attempts_extra->second.c_str(), nullptr, 10));
  }
  // Problem jobs: decode the solved bits into domain terms and verify them
  // against the cached model (a job cancelled while queued carries an
  // empty solution — nothing to decode).  A deferred loader whose model
  // came from the cache may read its file here for the first time; if the
  // file vanished the job still solved — report the run, flag the
  // verification, never lose the report.
  if (entry.problem &&
      snap.report.best_solution.size() == entry.model->size()) {
    try {
      const DomainSolution sol =
          entry.problem->decode(snap.report.best_solution);
      const VerifyResult verdict = entry.problem->verify(
          snap.report.best_solution,
          entry.model->energy(snap.report.best_solution));
      annotate_extras(*entry.problem, sol, verdict, snap.report.extras);
    } catch (const std::exception& e) {
      snap.report.extras["problem"] = entry.problem->cache_key();
      snap.report.extras["verified"] = "false";
      snap.report.extras["verify_message"] = e.what();
    }
  }
  if (publish_) publish_(Retired{snap, entry.fingerprint, entry.line, attempts});

  switch (snap.state) {
    case JobState::kDone:
      record(entry, JournalEvent::kDone, "", attempts);
      break;
    case JobState::kFailed:
      record(entry, JournalEvent::kFailed, snap.error, attempts);
      break;
    case JobState::kRejected:
      record(entry, JournalEvent::kRejected, snap.error, attempts);
      break;
    default:
      record(entry, JournalEvent::kCancelled,
             snap.report.extras.count("deadline_exceeded") != 0 ? "deadline"
                                                                 : "cancelled",
             attempts);
      break;
  }
  if (!config_.trace_path.empty()) {
    obs::append_job_trace(trace_, job_trace(snap));
  }
  // Drop the spec entry once no in-flight job holds its problem, so a long
  // run of distinct specs does not accumulate stale weak_ptrs.
  entry.problem.reset();
  std::lock_guard lock(mu_);
  const auto shared = problems_by_spec_.find(entry.spec_key);
  if (shared != problems_by_spec_.end() && shared->second.expired()) {
    problems_by_spec_.erase(shared);
  }
}

}  // namespace dabs::service
