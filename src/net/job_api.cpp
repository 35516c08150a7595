#include "net/job_api.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/json_writer.hpp"
#include "obs/metrics.hpp"

namespace dabs::net {

namespace {

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

}  // namespace

JobApi::JobApi(Config config) : config_(std::move(config)), ledger_(config_) {
  if (!config_.journal_path.empty() && !ledger_.journaled()) {
    throw std::runtime_error(ledger_.journal_error());
  }
  if (config_.resume) {
    if (config_.journal_path.empty()) {
      throw std::invalid_argument("resume requires a journal path");
    }
    // Occurrence numbering must continue where the crashed run left off —
    // a fresh submit of a body already journaled as "abc" must become
    // "abc#2", and a re-submission must keep its original fingerprint, or
    // the journal would say "submitted" after "done" for the wrong job.
    const service::JobJournal::Replay replay =
        service::JobJournal::replay(config_.journal_path);
    ledger_.seed_occurrences(replay);
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
  if (!config_.trace_path.empty() && !ledger_.trace().empty()) {
    ledger_.trace().write_file(config_.trace_path);
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
  service::JobLedger::Entry entry;
  try {
    entry = ledger_.admit(job,
                          forced_fingerprint.empty() ? ledger_.fingerprint(job)
                                                     : forced_fingerprint,
                          0, body);
  } catch (const std::exception& e) {
    return {400, error_body(e.what())};  // bad problem spec
  }
  try {
    ledger_.load(entry, job);
  } catch (const std::exception& e) {
    // Unreadable file / failed generator: the environment's fault, not
    // the request's.  No retry loop here — an HTTP client re-POSTs.
    ledger_.fail(entry, e.what());
    return {500, error_body(e.what())};
  }
  const std::string fingerprint = entry.fingerprint;
  service::JobId id = 0;
  try {
    id = ledger_.submit(std::move(entry), std::move(job));
  } catch (const std::exception& e) {
    return {400, error_body(e.what())};  // unknown solver / bad options
  }

  service::SolverService& service = ledger_.service();
  const service::JobState state = service.state(id);
  std::ostringstream out;
  {
    io::JsonWriter json(out);
    json.begin_object()
        .value("job_id", id)
        .value("fingerprint", fingerprint)
        .value("state", service::to_string(state));
    if (state == service::JobState::kRejected) {
      json.value("error", service.snapshot(id).error);
    }
    json.end_object();
  }
  // A shed job is terminal already; the reaper journals its record.
  return {state == service::JobState::kRejected ? 429 : 202, out.str()};
}

std::string JobApi::render_status(service::JobId id,
                                  const service::JobSnapshot& snap,
                                  const std::string& fingerprint) const {
  std::ostringstream out;
  {
    io::JsonWriter json(out);
    json.begin_object()
        .value("job_id", id)
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

ApiReply JobApi::status(service::JobId id) {
  std::lock_guard lock(mu_);
  const auto done = finished_.find(id);
  if (done != finished_.end()) {
    return {200, render_status(id, done->second.snap,
                               done->second.fingerprint)};
  }
  try {
    const service::JobSnapshot snap = ledger_.service().snapshot(id);
    if (service::is_terminal(snap.state)) {
      // Finished but not yet reaped: retire it now, so no client sees a
      // terminal state before its annotations, journal record and
      // retention exist.
      retire_locked(id);
      const auto retired = finished_.find(id);
      if (retired != finished_.end()) {
        return {200, render_status(id, retired->second.snap,
                                   retired->second.fingerprint)};
      }
    }
    return {200, render_status(id, snap, ledger_.fingerprint_of(id))};
  } catch (const std::out_of_range&) {
    return {404, error_body("unknown job id " + std::to_string(id))};
  }
}

ApiReply JobApi::events(service::JobId id, std::uint64_t* cursor,
                        bool* done, std::size_t* count) {
  *done = false;
  *count = 0;

  std::lock_guard lock(mu_);
  service::JobEventBatch batch;
  const auto finished = finished_.find(id);
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
      batch = ledger_.service().events_since(id, *cursor);
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

ApiReply JobApi::cancel(service::JobId id) {
  std::lock_guard lock(mu_);
  if (finished_.count(id) != 0) {
    return {409, error_body("job " + std::to_string(id) +
                            " is already terminal")};
  }
  try {
    if (ledger_.service().cancel(id)) {
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
    ledger_.service().state(id);  // throws when the id was never submitted
    return {409, error_body("job " + std::to_string(id) +
                            " is already terminal")};
  } catch (const std::out_of_range&) {
    return {404, error_body("unknown job id " + std::to_string(id))};
  }
}

ApiReply JobApi::stats() {
  const service::ServiceStats s = ledger_.service().stats();
  std::lock_guard lock(mu_);
  std::ostringstream out;
  {
    io::JsonWriter json(out);
    json.begin_object()
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
        .value("journal_errors", ledger_.journal_errors());
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

void JobApi::reaper_loop() {
  while (true) {
    const bool stopping = stop_reaper_.load(std::memory_order_relaxed);
    std::optional<service::JobId> id = ledger_.service().try_any_finished();
    if (!id) {
      if (stopping) break;
      // Block briefly off-lock; returns (and claims) early when a job
      // finishes, so the claim must be consumed, not discarded.
      id = ledger_.service().wait_any_finished_for(0.05);
      if (!id) continue;
    }
    std::lock_guard lock(mu_);
    retire_locked(*id);
  }
}

void JobApi::retire_locked(service::JobId id) {
  std::optional<service::JobLedger::Retired> retired = ledger_.retire(id);
  if (!retired) return;  // released elsewhere; nothing to retain
  finished_[id] = std::move(*retired);
  finish_order_.push_back(id);
  while (finish_order_.size() > config_.retention_jobs) {
    finished_.erase(finish_order_.front());
    finish_order_.pop_front();
  }
}

}  // namespace dabs::net
