// In-memory span log for the traced runs.
//
// Every span carries a name, start, end, parent and operation id.  Spans
// are recorded from the benchmark's own code around the calls it makes
// into each layer; nothing inside the library is instrumented.  At the end
// of a run the log folds every span into per-name totals (count, total
// time, self time = duration minus the time its direct children cover) and
// writes the spans of the first kKeptOps operations it recorded as Chrome
// trace JSON through obs::TraceCollector, so they open beside
// `dabs_cli --trace`.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  /// Operations whose spans go into the trace file (the totals cover all).
  static constexpr std::uint64_t kKeptOps = 16;
  static constexpr std::size_t kNoParent = SIZE_MAX;

  struct Span {
    const char* name;  // a string literal
    double start;      // seconds since the log was created
    double end;
    std::size_t parent;  // index into spans(), kNoParent for a root
    std::uint64_t op;
  };

  struct Totals {
    std::uint64_t count = 0;
    double total_seconds = 0.0;
    double self_seconds = 0.0;
  };

  SpanLog() : epoch_(Clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  /// Opens a span starting now; close it with close(id).
  std::size_t open(const char* name, std::uint64_t op,
                   std::size_t parent = kNoParent) {
    spans_.push_back({name, now(), -1.0, parent, op});
    return spans_.size() - 1;
  }
  void close(std::size_t id) { spans_[id].end = now(); }

  /// Records a span whose times were measured elsewhere.
  std::size_t add(const char* name, std::uint64_t op, std::size_t parent,
                  double start, double end) {
    spans_.push_back({name, start, end, parent, op});
    return spans_.size() - 1;
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Per-name count, total and self time over every closed span.
  std::map<std::string, Totals> totals() const;

  /// Writes the spans of the first kKeptOps operations recorded (one row per
  /// operation, parent and op id in the args) plus an "environment"
  /// instant carrying `env`.  Returns false when the file cannot be
  /// written.
  bool write_chrome_trace(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& env) const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t op,
             std::size_t parent = SpanLog::kNoParent)
      : log_(log), id_(log ? log->open(name, op, parent) : SpanLog::kNoParent) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::size_t id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  std::size_t id_;
};

}  // namespace perfbench
