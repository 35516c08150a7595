#include "net/job_api.hpp"

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "io/json_writer.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "problems/problem.hpp"
#include "problems/problem_registry.hpp"

namespace dabs::net {

namespace {

obs::Counter& journal_error_counter() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "dabs_journal_append_errors_total",
      "Journal appends that failed (the server keeps serving without "
      "durability).");
  return counter;
}

std::string error_body(const std::string& message) {
  std::ostringstream out;
  {
    io::JsonWriter json(out);
    json.begin_object().value("error", message).end_object();
  }
  return out.str();
}

const char* event_kind_name(service::JobEvent::Kind kind) {
  return kind == service::JobEvent::Kind::kNewBest ? "new_best" : "tick";
}

/// Splits "<16 hex>#N" into its base and occurrence (1 when unsuffixed).
void split_fingerprint(const std::string& fp, std::string* base,
                       std::uint64_t* occurrence) {
  const std::size_t hash = fp.find('#');
  if (hash == std::string::npos) {
    *base = fp;
    *occurrence = 1;
    return;
  }
  *base = fp.substr(0, hash);
  *occurrence = std::strtoull(fp.c_str() + hash + 1, nullptr, 10);
  if (*occurrence == 0) *occurrence = 1;
}

}  // namespace

std::string routing_key(const service::BatchJob& job) {
  if (job.problem.empty()) {
    return job.format + "#" + job.model_path;
  }
  std::string key = job.problem;
  for (const auto& [k, v] : job.params.values()) {
    key += '\x1f' + k + '=' + v;
  }
  return key;
}

JobApi::JobApi(Config config)
    : config_(std::move(config)),
      service_([this] {
        service::SolverService::Config sc;
        sc.threads = config_.threads;
        sc.cache_bytes = config_.cache_bytes;
        sc.max_queue_depth = config_.max_queue_depth;
        sc.max_events_per_job = config_.max_events_per_job;
        sc.on_started = [this](service::JobId, const service::JobSpec& spec) {
          const auto it = spec.extras.find("fingerprint");
          if (it == spec.extras.end()) return;
          service::JournalRecord record;
          record.event = service::JournalEvent::kStarted;
          record.fingerprint = it->second;
          record.tag = spec.tag;
          journal_append(record);
        };
        return sc;
      }()) {
  service::JobJournal::Replay replay;
  if (!config_.journal_path.empty()) {
    if (config_.resume) {
      replay = service::JobJournal::replay(config_.journal_path);
    }
    journal_ = std::make_unique<service::JobJournal>(config_.journal_path);
  } else if (config_.resume) {
    throw std::invalid_argument("resume requires a journal path");
  }

  if (config_.resume) {
    // Occurrence numbering must continue where the crashed run left off —
    // a fresh submit of a body already journaled as "abc" must become
    // "abc#2", and a re-submission must keep its original fingerprint, or
    // the journal would say "submitted" after "done" for the wrong job.
    for (const auto& [fp, event] : replay.last_event) {
      std::string base;
      std::uint64_t occurrence = 0;
      split_fingerprint(fp, &base, &occurrence);
      std::uint64_t& seen = fingerprint_occurrences_[base];
      if (occurrence > seen) seen = occurrence;
    }
    for (const auto& [fp, event] : replay.last_event) {
      if (service::is_replay_terminal(event)) continue;
      const auto body = replay.submitted_detail.find(fp);
      if (body == replay.submitted_detail.end()) continue;  // unrecoverable
      const ApiReply reply = submit_internal(body->second, fp);
      if (reply.status == 202) ++resumed_;
    }
  }

  reaper_ = std::thread([this] { reaper_loop(); });
}

JobApi::~JobApi() {
  stop_reaper_.store(true, std::memory_order_relaxed);
  if (reaper_.joinable()) reaper_.join();
  if (!config_.trace_path.empty() && !trace_.empty()) {
    trace_.write_file(config_.trace_path);
  }
  // The service dtor cancels and joins workers; the on_started hook can
  // still fire until then, so journal_ must outlive it (member order).
}

void JobApi::journal_append(const service::JournalRecord& record) {
  if (!journal_) return;
  try {
    journal_->append(record);
  } catch (const std::exception& e) {
    // Keep serving without durability; /v1/stats surfaces the count.
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

ApiReply JobApi::submit(const std::string& body) {
  return submit_internal(body, "");
}

ApiReply JobApi::submit_internal(const std::string& body,
                                 const std::string& forced_fingerprint) {
  service::BatchJob job;
  try {
    job = service::parse_batch_job(body);
  } catch (const std::exception& e) {
    return {400, error_body(e.what())};
  }

  std::lock_guard lock(mu_);

  std::string fingerprint = forced_fingerprint;
  if (fingerprint.empty()) {
    fingerprint = service::job_fingerprint(job);
    const std::uint64_t occurrence =
        ++fingerprint_occurrences_[fingerprint];
    if (occurrence > 1) fingerprint += "#" + std::to_string(occurrence);
  }

  // Write-ahead with the raw request in `detail`: a server killed after
  // this point can reconstruct and re-enqueue the job on --resume.
  {
    service::JournalRecord record;
    record.event = service::JournalEvent::kSubmitted;
    record.fingerprint = fingerprint;
    record.tag = job.spec.tag;
    record.detail = body;
    journal_append(record);
  }
  const auto journal_failed = [&](const std::string& detail) {
    service::JournalRecord record;
    record.event = service::JournalEvent::kFailed;
    record.fingerprint = fingerprint;
    record.tag = job.spec.tag;
    record.detail = detail;
    journal_append(record);
  };

  // Resolve the model exactly like the batch runner: problem jobs through
  // the registry (bad spec = caller's 400), every model through the
  // service's cache under the same keys.
  std::shared_ptr<const Problem> problem;
  std::string cache_key;
  if (!job.problem.empty()) {
    try {
      problem = ProblemRegistry::global().create(job.problem, job.params);
    } catch (const std::exception& e) {
      journal_failed(std::string("invalid: ") + e.what());
      return {400, error_body(e.what())};
    }
    cache_key = "problem#" + problem->cache_key();
  } else {
    cache_key = job.format + "#" + job.model_path;
  }
  bool cache_hit = false;
  std::shared_ptr<const QuboModel> model;
  try {
    model = service_.cache().get_or_load(
        cache_key,
        [&job, &problem] {
          return problem ? problem->encode()
                         : service::load_model_file(job.format,
                                                    job.model_path);
        },
        &cache_hit);
  } catch (const std::exception& e) {
    // Unreadable file / failed generator: the environment's fault, not
    // the request's.  No retry loop here — an HTTP client re-POSTs.
    journal_failed(e.what());
    return {500, error_body(e.what())};
  }

  job.spec.model = model;
  if (job.spec.stop.time_limit_seconds <= 0 &&
      job.spec.stop.max_batches == 0) {
    job.spec.stop.time_limit_seconds = config_.default_time_limit;
  }
  service::apply_time_governed_budgets(job.spec.solver, job.spec.stop,
                                       job.spec.options);
  if (!job.explicit_attempts) job.spec.max_attempts = config_.max_attempts;
  job.spec.extras["model"] = model->describe();
  job.spec.extras["model_cache"] = cache_hit ? "hit" : "miss";
  job.spec.extras["fingerprint"] = fingerprint;

  service::JobId local = 0;
  try {
    local = service_.submit(std::move(job.spec));
  } catch (const std::exception& e) {
    journal_failed(std::string("invalid: ") + e.what());
    return {400, error_body(e.what())};  // unknown solver / bad options
  }
  pending_.emplace(local, Pending{problem, model, fingerprint});

  const std::uint64_t global = to_global(local);
  const service::JobState state = service_.state(local);
  std::ostringstream out;
  {
    io::JsonWriter json(out);
    json.begin_object()
        .value("job_id", global)
        .value("fingerprint", fingerprint)
        .value("state", service::to_string(state));
    if (state == service::JobState::kRejected) {
      json.value("error", service_.snapshot(local).error);
    }
    json.end_object();
  }
  // A shed job is terminal already; the reaper journals its record.
  return {state == service::JobState::kRejected ? 429 : 202, out.str()};
}

std::string JobApi::render_status(std::uint64_t global_id,
                                  const service::JobSnapshot& snap,
                                  const std::string& fingerprint) const {
  std::ostringstream out;
  {
    io::JsonWriter json(out);
    json.begin_object()
        .value("job_id", global_id)
        .value("state", service::to_string(snap.state));
    if (!fingerprint.empty()) json.value("fingerprint", fingerprint);
    if (!snap.tag.empty()) json.value("tag", snap.tag);
    if (snap.state == service::JobState::kFailed ||
        snap.state == service::JobState::kRejected) {
      json.value("error", snap.error);
    } else if (snap.state != service::JobState::kQueued) {
      snap.report.write_json(json, "report");
    }
    json.value("events_dropped", snap.events_dropped);
    json.end_object();
  }
  return out.str();
}

ApiReply JobApi::status(std::uint64_t id) {
  if (config_.shards > 1 && id % config_.shards != config_.shard_idx) {
    return {404, error_body("job " + std::to_string(id) +
                            " is owned by shard " +
                            std::to_string(id % config_.shards))};
  }
  const service::JobId local = id / config_.shards;
  std::lock_guard lock(mu_);
  const auto done = finished_.find(local);
  if (done != finished_.end()) {
    return {200, render_status(id, done->second.snap,
                               done->second.fingerprint)};
  }
  try {
    const service::JobSnapshot snap = service_.snapshot(local);
    if (service::is_terminal(snap.state)) {
      // Finished but not yet reaped: retire it now, so no client sees a
      // terminal state before its annotations, journal record and
      // retention exist.
      retire_locked(local);
      const auto retired = finished_.find(local);
      if (retired != finished_.end()) {
        return {200, render_status(id, retired->second.snap,
                                   retired->second.fingerprint)};
      }
    }
    const auto pend = pending_.find(local);
    return {200, render_status(
                     id, snap,
                     pend == pending_.end() ? "" : pend->second.fingerprint)};
  } catch (const std::out_of_range&) {
    return {404, error_body("unknown job id " + std::to_string(id))};
  }
}

ApiReply JobApi::events(std::uint64_t id, std::uint64_t* cursor, bool* done,
                        std::size_t* count) {
  *done = false;
  *count = 0;
  if (config_.shards > 1 && id % config_.shards != config_.shard_idx) {
    return {404, error_body("job " + std::to_string(id) +
                            " is owned by shard " +
                            std::to_string(id % config_.shards))};
  }
  const service::JobId local = id / config_.shards;

  std::lock_guard lock(mu_);
  service::JobEventBatch batch;
  const auto finished = finished_.find(local);
  if (finished != finished_.end()) {
    // Serve from the retained final snapshot (the service record is
    // already released).  Same sequence numbering as events_since().
    const service::JobSnapshot& snap = finished->second.snap;
    batch.state = snap.state;
    const std::uint64_t first = snap.events_dropped;
    const std::uint64_t total = first + snap.events.size();
    if (*cursor < first) {
      batch.gap = true;
      *cursor = first;
    }
    if (*cursor > total) *cursor = total;
    for (std::uint64_t seq = *cursor; seq < total; ++seq) {
      batch.events.push_back(snap.events[seq - first]);
    }
    *cursor = total;
  } else {
    try {
      batch = service_.events_since(local, *cursor);
    } catch (const std::out_of_range&) {
      return {404, error_body("unknown job id " + std::to_string(id))};
    }
  }
  *done = service::is_terminal(batch.state);
  *count = batch.events.size();

  std::ostringstream out;
  {
    io::JsonWriter json(out);
    json.begin_object()
        .value("job_id", id)
        .value("state", service::to_string(batch.state))
        .value("cursor", *cursor);
    if (batch.gap) json.value("gap", true);
    json.begin_array("events");
    for (const service::JobEvent& event : batch.events) {
      json.begin_object()
          .value("kind", event_kind_name(event.kind))
          .value("elapsed_seconds", event.elapsed_seconds)
          .value("best_energy", static_cast<std::int64_t>(event.best_energy))
          .value("work", event.work)
          .end_object();
    }
    json.end_array().end_object();
  }
  return {200, out.str()};
}

ApiReply JobApi::cancel(std::uint64_t id) {
  if (config_.shards > 1 && id % config_.shards != config_.shard_idx) {
    return {404, error_body("job " + std::to_string(id) +
                            " is owned by shard " +
                            std::to_string(id % config_.shards))};
  }
  const service::JobId local = id / config_.shards;
  std::lock_guard lock(mu_);
  if (finished_.count(local) != 0) {
    return {409, error_body("job " + std::to_string(id) +
                            " is already terminal")};
  }
  try {
    if (service_.cancel(local)) {
      std::ostringstream out;
      {
        io::JsonWriter json(out);
        json.begin_object()
            .value("job_id", id)
            .value("cancelling", true)
            .end_object();
      }
      return {202, out.str()};
    }
    // Known id, already terminal (reaper has not collected it yet).
    service_.state(local);  // throws when the id was never submitted
    return {409, error_body("job " + std::to_string(id) +
                            " is already terminal")};
  } catch (const std::out_of_range&) {
    return {404, error_body("unknown job id " + std::to_string(id))};
  }
}

ApiReply JobApi::stats() {
  const service::ServiceStats s = service_.stats();
  std::lock_guard lock(mu_);
  std::ostringstream out;
  {
    io::JsonWriter json(out);
    json.begin_object()
        .value("shard", static_cast<std::uint64_t>(config_.shard_idx))
        .value("shards", static_cast<std::uint64_t>(config_.shards))
        .value("queue_depth", static_cast<std::uint64_t>(s.queue_depth))
        .value("active", static_cast<std::uint64_t>(s.active))
        .value("outstanding", static_cast<std::uint64_t>(s.outstanding))
        .value("retained", static_cast<std::uint64_t>(s.retained))
        .value("submitted", s.submitted)
        .value("done", s.done)
        .value("failed", s.failed)
        .value("cancelled", s.cancelled)
        .value("rejected", s.rejected)
        .value("finished_retained",
               static_cast<std::uint64_t>(finished_.size()))
        .value("resumed", static_cast<std::uint64_t>(resumed_))
        .value("journal_errors", journal_errors_);
    json.begin_object("model_cache")
        .value("hits", s.cache.hits)
        .value("misses", s.cache.misses)
        .value("evictions", s.cache.evictions)
        .value("entries", static_cast<std::uint64_t>(s.cache.entries))
        .value("bytes", static_cast<std::uint64_t>(s.cache.bytes))
        .end_object();
    json.end_object();
  }
  return {200, out.str()};
}

ApiReply JobApi::metrics() {
  std::ostringstream out;
  obs::render_prometheus(obs::MetricsRegistry::global().snapshot(), out);
  return {200, out.str()};
}

std::string JobApi::metrics_snapshot_json() {
  std::ostringstream out;
  obs::write_snapshot_json(obs::MetricsRegistry::global().snapshot(), out);
  return out.str();
}

void JobApi::reaper_loop() {
  while (true) {
    const bool stopping = stop_reaper_.load(std::memory_order_relaxed);
    std::optional<service::JobId> id = service_.try_any_finished();
    if (!id) {
      if (stopping) break;
      // Block briefly off-lock; returns (and claims) early when a job
      // finishes, so the claim must be consumed, not discarded.
      id = service_.wait_any_finished_for(0.05);
      if (!id) continue;
    }
    std::lock_guard lock(mu_);
    retire_locked(*id);
  }
}

void JobApi::retire_locked(service::JobId local) {
  service::JobSnapshot snap;
  try {
    snap = service_.snapshot(local);
  } catch (const std::out_of_range&) {
    return;  // released elsewhere; nothing to retain
  }
  const auto pend = pending_.find(local);
  std::string fingerprint;
  if (pend != pending_.end()) {
    fingerprint = pend->second.fingerprint;
    // Decode/verify exactly as the batch runner does for problem jobs:
    // re-evaluate the energy against the cached model rather than
    // trusting the solver, and never let a verification error take the
    // report down with it.
    if (pend->second.problem &&
        snap.report.best_solution.size() == pend->second.model->size()) {
      try {
        const DomainSolution sol =
            pend->second.problem->decode(snap.report.best_solution);
        const VerifyResult verdict = pend->second.problem->verify(
            snap.report.best_solution,
            pend->second.model->energy(snap.report.best_solution));
        annotate_extras(*pend->second.problem, sol, verdict,
                        snap.report.extras);
      } catch (const std::exception& e) {
        snap.report.extras["problem"] = pend->second.problem->cache_key();
        snap.report.extras["verified"] = "false";
        snap.report.extras["verify_message"] = e.what();
      }
    }
    pending_.erase(pend);
  }

  // Terminal journal record, then retention: the snapshot stays
  // queryable after the service record is released.
  if (!fingerprint.empty()) {
    service::JournalRecord record;
    record.fingerprint = fingerprint;
    record.tag = snap.tag;
    switch (snap.state) {
      case service::JobState::kDone:
        record.event = service::JournalEvent::kDone;
        break;
      case service::JobState::kFailed:
        record.event = service::JournalEvent::kFailed;
        record.detail = snap.error;
        break;
      case service::JobState::kRejected:
        record.event = service::JournalEvent::kRejected;
        record.detail = snap.error;
        break;
      default:
        record.event = service::JournalEvent::kCancelled;
        record.detail =
            snap.report.extras.count("deadline_exceeded") != 0
                ? "deadline"
                : "cancelled";
        break;
    }
    journal_append(record);
  }
  service_.release(local);
  if (!config_.trace_path.empty()) {
    obs::JobTrace trace = service::job_trace(snap);
    trace.job_id = to_global(local);
    obs::append_job_trace(trace_, trace);
  }
  finished_[local] = Finished{std::move(snap), std::move(fingerprint)};
  finish_order_.push_back(local);
  while (finish_order_.size() > config_.retention_jobs) {
    finished_.erase(finish_order_.front());
    finish_order_.pop_front();
  }
}

}  // namespace dabs::net
