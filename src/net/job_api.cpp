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

ApiReply unknown_job(service::JobId id) {
  return {404, error_body("unknown job id " + std::to_string(id))};
}

/// One job's status JSON.  The fingerprint rides in the extras from
/// submit on (the ledger puts it there).
std::string render_status(service::JobId id,
                          const service::JobSnapshot& snap) {
  std::ostringstream out;
  {
    io::JsonWriter json(out);
    json.begin_object()
        .value("job_id", id)
        .value("state", service::to_string(snap.state));
    const auto fingerprint = snap.report.extras.find("fingerprint");
    if (fingerprint != snap.report.extras.end()) {
      json.value("fingerprint", fingerprint->second);
    }
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
}

JobApi::~JobApi() {
  // Retire what is left (one `cancelled` record each) before the trace is
  // written, so the trace holds every job the journal does.
  ledger_.service().cancel_all();
  ledger_.service().wait_all();
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
  // A shed job is terminal already, its record journaled.
  return {state == service::JobState::kRejected ? 429 : 202, out.str()};
}

ApiReply JobApi::status(service::JobId id) {
  try {
    return {200, render_status(id, ledger_.service().snapshot(id))};
  } catch (const std::out_of_range&) {
    return unknown_job(id);
  }
}

ApiReply JobApi::events(service::JobId id, std::uint64_t* cursor,
                        bool* done, std::size_t* count) {
  *done = false;
  *count = 0;

  service::JobEventBatch batch;
  try {
    batch = ledger_.service().events_since(id, *cursor);
  } catch (const std::out_of_range&) {
    return unknown_job(id);
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
    // Known id, already terminal (or finishing right now).
    ledger_.service().state(id);  // throws for an unknown id
    return {409, error_body("job " + std::to_string(id) +
                            " is already terminal")};
  } catch (const std::out_of_range&) {
    return unknown_job(id);
  }
}

ApiReply JobApi::stats() {
  const service::ServiceStats s = ledger_.service().stats();
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

}  // namespace dabs::net
