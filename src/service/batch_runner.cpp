#include "service/batch_runner.hpp"

#include <chrono>
#include <functional>
#include <istream>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "io/json_writer.hpp"
#include "util/failpoint.hpp"

namespace dabs::service {

int run_batch(std::istream& jobs_in, std::ostream& out, std::ostream& err,
              const BatchOptions& options) {
  const auto interrupted = [&options] {
    return options.interrupt != nullptr &&
           options.interrupt->load(std::memory_order_relaxed);
  };

  JobJournal::Replay replay;
  if (options.resume) {
    if (options.journal_path.empty()) {
      err << "batch: --resume requires a journal path\n";
      return 1;
    }
    replay = JobJournal::replay(options.journal_path);
    for (const std::string& warning : replay.warnings) {
      err << "batch: " << warning << "\n";
    }
    if (replay.skipped > replay.warnings.size()) {
      err << "batch: ... and " << replay.skipped - replay.warnings.size()
          << " more unreadable journal lines\n";
    }
  }
  // Report lines come from whichever thread ends a job (a solver worker,
  // or this thread for cancels and admission rejects), so every write to
  // `out` and every counter the reports touch is under out_mu.
  std::mutex out_mu;
  // With SIGPIPE ignored process-wide, a consumer that hung up (head,
  // a dead pipe) surfaces as stream failure after a flush.  The batch
  // then stops intake and cancels — but keeps journaling terminal
  // records, so a later --resume still sees the truth.
  std::atomic<bool> output_broken{false};
  const auto check_output = [&out, &output_broken] {  // caller holds out_mu
    if (!out) output_broken.store(true, std::memory_order_relaxed);
  };
  std::size_t line_no = 0;
  std::size_t submitted = 0;
  std::size_t invalid = 0;
  std::size_t load_failed = 0;
  std::size_t resumed_skipped = 0;
  std::size_t rejected = 0;
  std::uint64_t retries_attempted = 0;
  std::uint64_t retries_recovered = 0;
  // Every problem line still yields an output line so callers can join
  // inputs to outcomes; the batch keeps going either way.  "invalid"
  // means fix the input (schema violation, unknown solver/option);
  // "failed" means the environment broke (model unreadable) — retryable.
  const auto emit_problem = [&out, &out_mu, &check_output, &line_no](
                                  const char* status, const std::string& tag,
                                  const std::string& what,
                                  const std::string& fingerprint = {},
                                  std::uint32_t attempts = 0) {
    std::lock_guard lock(out_mu);
    io::JsonWriter json(out);
    json.begin_object()
        .value("line", static_cast<std::uint64_t>(line_no))
        .value("status", status);
    if (!tag.empty()) json.value("tag", tag);
    if (!fingerprint.empty()) json.value("fingerprint", fingerprint);
    if (attempts != 0) json.value("attempts", attempts);
    json.value("error", what).end_object();
    out << "\n";
    out.flush();
    check_output();
  };

  // Writes one report line before the ledger journals the terminal event
  // (a crash in between re-runs the job rather than losing its report).
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  const auto write_report = [&](const JobLedger::Retired& done) {
    std::lock_guard lock(out_mu);
    const JobSnapshot& snap = done.snap;
    if (snap.state == JobState::kFailed) ++failed;
    if (snap.state == JobState::kCancelled) ++cancelled;
    if (snap.state == JobState::kRejected) ++rejected;
    if (done.attempts > 1) {
      retries_attempted += done.attempts - 1;
      if (snap.state == JobState::kDone) ++retries_recovered;
    }
    io::JsonWriter json(out);
    json.begin_object()
        .value("job_id", snap.id)
        .value("line", done.line)
        .value("status", to_string(snap.state));
    if (!snap.tag.empty()) json.value("tag", snap.tag);
    json.value("fingerprint", done.fingerprint);
    if (snap.state == JobState::kFailed ||
        snap.state == JobState::kRejected) {
      json.value("error", snap.error);
      if (done.attempts != 0) json.value("attempts", done.attempts);
    } else {
      snap.report.write_json(json, "report");
    }
    json.end_object();
    out << "\n";
    out.flush();
    check_output();
  };

  JobLedger ledger(options, write_report);
  if (!options.journal_path.empty() && !ledger.journaled()) {
    // No journal, no durability — but the batch itself can still run; the
    // operator sees the warning and the summary's error count.
    err << "batch: " << ledger.journal_error()
        << " (continuing without journal)\n";
  }
  SolverService& service = ledger.service();

  bool was_interrupted = false;
  std::string line;
  while (std::getline(jobs_in, line)) {
    ++line_no;
    if (interrupted()) {
      was_interrupted = true;
      break;
    }
    if (output_broken) break;  // nobody is reading; stop taking work
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    BatchJob job;
    try {
      job = parse_batch_job(line);
    } catch (const std::exception& e) {
      ++invalid;
      emit_problem("invalid", "", e.what());
      continue;
    }
    // Input-order fingerprints are deterministic for a fixed jobs file, so
    // a resumed run assigns every line the fingerprint it had before the
    // crash.
    const std::string fingerprint = ledger.fingerprint(job);
    if (options.resume && replay.terminal(fingerprint)) {
      ++resumed_skipped;
      continue;
    }
    JobLedger::Entry entry;
    try {
      entry = ledger.admit(job, fingerprint, line_no, {});
    } catch (const std::exception& e) {
      ++invalid;
      emit_problem("invalid", job.spec.tag, e.what(), fingerprint);
      continue;
    }
    // Model load with retry: unreadable files (and injected load faults)
    // are the transient-environment failure mode the retry policy exists
    // for.  Schema problems (unknown format) stay invalid — no retry.
    const std::uint32_t attempts_allowed =
        job.explicit_attempts ? job.spec.max_attempts : options.max_attempts;
    std::uint32_t load_attempt = 0;
    std::string load_error;
    while (!entry.model) {
      ++load_attempt;
      bool retryable = false;
      try {
        ledger.load(entry, job);
        break;
      } catch (const std::bad_alloc&) {
        load_error = "std::bad_alloc";
        retryable = true;
      } catch (const std::invalid_argument& e) {
        load_error = e.what();
      } catch (const std::exception& e) {
        load_error = e.what();
        // File IO can blip (NFS, transient unlink/replace); generator
        // (encode) failures only retry when explicitly marked.
        retryable = fail::is_retryable_message(load_error) ||
                    !job.model_path.empty();
      }
      if (!retryable || load_attempt >= attempts_allowed || interrupted()) {
        break;
      }
      {
        std::lock_guard lock(out_mu);
        ++retries_attempted;
      }
      const double backoff_seconds = retry_backoff(
          options.retry_backoff_seconds, options.retry_backoff_max_seconds,
          load_attempt, std::hash<std::string>{}(fingerprint));
      // Sleep in small slices so an interrupt cuts the wait short.
      const auto wake = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(backoff_seconds));
      while (std::chrono::steady_clock::now() < wake && !interrupted()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (!entry.model) {
      ++load_failed;
      ledger.fail(entry, load_error, load_attempt);
      emit_problem("failed", job.spec.tag, load_error, fingerprint,
                   load_attempt);
      continue;
    }
    if (load_attempt > 1) {
      std::lock_guard lock(out_mu);
      ++retries_recovered;
    }
    const std::string tag = job.spec.tag;  // survives the move below
    try {
      ledger.submit(std::move(entry), std::move(job));
      ++submitted;
    } catch (const std::exception& e) {
      ++invalid;  // unknown solver / bad option values
      emit_problem("invalid", tag, e.what(), fingerprint);
    }
  }
  if (interrupted()) was_interrupted = true;
  if (was_interrupted || output_broken) {
    // Stop intake, cancel everything outstanding; every submitted job
    // still emits (and journals) one line as it ends, so nothing earned
    // is lost and the journal re-enqueues the cancellations on --resume.
    // (With a broken output stream the emits go nowhere, but the journal
    // records are the part that must survive.)
    service.cancel_all();
  }

  // Wait for the rest to finish (each reports itself as it ends), polling
  // so a signal arriving mid-drain cancels the stragglers instead of
  // waiting out their full time limits.
  while (!service.wait_all_for(0.05)) {
    if (interrupted() && !was_interrupted) {
      was_interrupted = true;
      service.cancel_all();
    }
  }

  if (!options.trace_path.empty()) {
    if (ledger.trace().write_file(options.trace_path)) {
      err << "batch: wrote trace to " << options.trace_path << "\n";
    } else {
      err << "batch: failed to write trace to " << options.trace_path
          << "\n";
    }
  }

  if (ledger.journaled() && ledger.journal_errors() != 0) {
    err << "batch: journal append failed: " << ledger.journal_error()
        << " (continuing without durability)\n";
  }
  const ModelCache::Stats cache = service.cache().stats();
  err << "batch: " << submitted << " jobs on " << options.threads
      << " threads (" << invalid << " invalid, " << failed + load_failed
      << " failed, " << cancelled << " cancelled, " << rejected
      << " rejected); retries: " << retries_attempted << " attempted, "
      << retries_recovered << " recovered; model cache: " << cache.hits
      << " hits, " << cache.misses << " misses, " << cache.entries
      << " resident";
  if (!options.journal_path.empty()) {
    err << "; journal: " << ledger.journal_records() << " records, "
        << ledger.journal_errors() << " append errors";
  }
  if (options.resume) {
    err << "; resumed: " << resumed_skipped << " already terminal";
  }
  if (was_interrupted) err << "; interrupted";
  if (output_broken) err << "; report stream broke (consumer hung up)";
  err << "\n";
  if (was_interrupted) return 130;
  return (invalid == 0 && failed == 0 && load_failed == 0 &&
          cancelled == 0 && rejected == 0 && !output_broken)
             ? 0
             : 1;
}

}  // namespace dabs::service
