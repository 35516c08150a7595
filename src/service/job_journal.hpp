// Write-ahead job journal for the batch service: one fsync'd JSONL record
// per job state transition, keyed by a stable job fingerprint, so a batch
// killed mid-flight (crash, OOM-kill, SIGKILL) can be resumed with
// `dabs_cli batch --journal <path> --resume` — already-terminal jobs are
// skipped, everything else re-enqueues, and the union of streamed reports
// across the runs covers the job set exactly once.
//
// Record format (one JSON object per line, the repo's json_reader /
// JsonWriter wire format):
//
//   {"event": "submitted", "fp": "91ab...#1", "line": 3, "tag": "hot",
//    "attempt": 2, "detail": "...", "ts": 1754556123.4}
//
//   event    submitted | started | done | failed | cancelled | rejected
//   fp       job fingerprint: FNV-1a over the job definition (problem or
//            model spec + params + solver + options + stop + seed +
//            priority + tag + deadline), "#N"-suffixed per duplicate line
//            so identical job lines stay distinct (see
//            job_ledger.hpp::job_fingerprint)
//   line     input line number (provenance; replay keys on fp alone)
//   attempt  retry attempt that produced the record (0 = not applicable)
//   detail   error message / disposition, when there is one
//   ts       wall-clock seconds since the epoch (operator forensics only)
//
// Durability: append() writes the whole line with O_APPEND semantics and
// fdatasyncs before returning, so every record that reached the caller's
// control flow survives a kill -9.  Replay is corruption-tolerant: a
// truncated final line (the crash landed mid-write), interleaved garbage,
// duplicate terminal records, and zero-byte files all recover — what
// parses is replayed, the rest is counted and warned about, nothing
// throws.
//
// Resume semantics: only done and failed are terminal for replay.  A
// cancelled or rejected job re-enqueues on --resume — cancellation (^C)
// and admission-control shedding both mean "not run to completion; run it
// next time", while failed means retries were already exhausted.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dabs::service {

enum class JournalEvent : std::uint8_t {
  kSubmitted,
  kStarted,
  kDone,
  kFailed,
  kCancelled,
  kRejected,
};

const char* to_string(JournalEvent event) noexcept;

/// True for the events --resume treats as "this job is finished": done and
/// failed.  Cancelled/rejected jobs re-enqueue (see the header comment).
bool is_replay_terminal(JournalEvent event) noexcept;

struct JournalRecord {
  JournalEvent event = JournalEvent::kSubmitted;
  std::string fingerprint;
  std::uint64_t line = 0;
  std::string tag;
  std::uint32_t attempt = 0;
  std::string detail;
};

/// Append-side handle.  Thread-safe: the batch runner appends from its
/// driving thread while the service's on-started hook appends from worker
/// threads.
class JobJournal {
 public:
  /// Opens (creating if needed) `path` for appending.  Throws
  /// std::runtime_error when the file cannot be opened.
  explicit JobJournal(std::string path);
  ~JobJournal();

  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// Appends one record as a JSON line and fdatasyncs.  Throws
  /// std::runtime_error on IO failure (callers degrade gracefully: the
  /// batch keeps running, durability is flagged in the summary).
  void append(const JournalRecord& record);

  const std::string& path() const noexcept { return path_; }
  /// Records successfully appended through this handle.
  std::uint64_t appended() const noexcept;

  /// Replay outcome: the last event seen per fingerprint plus corruption
  /// accounting.
  struct Replay {
    std::map<std::string, JournalEvent> last_event;
    /// Per fingerprint, the `detail` payload of its most recent submitted
    /// record.  The HTTP solve server stores the raw request JSON there at
    /// submit time, so `serve --resume` can reconstruct and re-enqueue
    /// jobs that never reached a terminal record.  Fingerprints whose
    /// submitted records carried no detail are absent.
    std::map<std::string, std::string> submitted_detail;
    std::size_t records = 0;        // lines that parsed as journal records
    std::size_t skipped = 0;        // lines that did not
    std::vector<std::string> warnings;  // one per skipped line (bounded)

    /// True when `fingerprint`'s last record is terminal for resume.
    bool terminal(const std::string& fingerprint) const;
  };

  /// Reads `path` tolerantly (see the header comment).  A missing file
  /// yields an empty replay — resuming against a journal that never got
  /// written is a no-op, not an error.
  static Replay replay(const std::string& path);

 private:
  std::mutex mu_;
  std::string path_;
  int fd_ = -1;
  std::uint64_t appended_ = 0;
};

}  // namespace dabs::service
