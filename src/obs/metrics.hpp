// Lock-cheap process-wide metrics: named counters, gauges, and fixed-bucket
// histograms, registered once (under a mutex) and updated with relaxed
// atomics from any thread — cheap enough for the service hot paths, though
// never placed inside the flip kernels themselves (solver throughput is
// sampled at the ProgressObserver boundary instead).
//
//   auto& m = obs::MetricsRegistry::global();
//   obs::Counter& reqs = m.counter("dabs_http_requests_total",
//                                  "Requests served.", {{"class", "2xx"}});
//   reqs.inc();
//
// The registry renders Prometheus text exposition format (render_prometheus),
// which is what /v1/metrics serves.
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime: fetch them once (a static struct per call site is
// the idiom used across the codebase) and record through the pointer.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dabs::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };
const char* to_string(MetricKind kind) noexcept;

/// Label set of one sample, in registration order.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter.  inc() is a relaxed fetch_add — no fences, no locks.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time signed value (queue depths, resident bytes).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram with Prometheus semantics: `bounds` are the
/// finite upper bounds (le), ascending; observations land in the first
/// bucket whose bound is >= the value, with an implicit +Inf bucket.
/// observe() is a few relaxed atomic adds; quantile() interpolates within
/// the winning bucket the way PromQL's histogram_quantile does.
class Histogram {
 public:
  /// `bounds` is sorted and deduplicated; it may be empty (everything
  /// lands in +Inf and quantiles degrade to 0).
  explicit Histogram(std::vector<double> bounds);

  void observe(double value) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

  /// q in [0, 1]; linear interpolation inside the winning bucket, the
  /// lowest bound for q=0-ish, the highest finite bound when the winning
  /// bucket is +Inf.  0 when nothing was observed.
  double quantile(double q) const;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size bounds().size() + 1, the
  /// last entry being the +Inf bucket.
  std::vector<std::uint64_t> bucket_counts() const;

  /// `count` bounds starting at `start`, each `factor` times the last —
  /// the standard latency-bucket generator.
  static std::vector<double> exponential_bounds(double start, double factor,
                                                std::size_t count);
  /// 100us .. 60s, the default for request/job latencies.
  static const std::vector<double>& default_latency_bounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_+1 slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One sample in a snapshot: the label set plus either a scalar value
/// (counter/gauge) or the histogram state.
struct SampleSnapshot {
  MetricLabels labels;
  double value = 0.0;          // counter / gauge
  std::vector<double> bounds;  // histogram only
  std::vector<std::uint64_t> buckets;  // per-bucket, +Inf last
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// One metric family: every sample shares the name, help, and kind.
struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<SampleSnapshot> samples;
};

using MetricsSnapshot = std::vector<FamilySnapshot>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create.  The same (name, labels) always returns the same
  /// instance; a name reused with a different kind (or a histogram with
  /// different bounds) throws std::logic_error; a name or label key that
  /// is not a valid Prometheus identifier throws std::invalid_argument.
  Counter& counter(const std::string& name, const std::string& help,
                   const MetricLabels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const MetricLabels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       const std::vector<double>& bounds,
                       const MetricLabels& labels = {});

  /// Point-in-time copy of every family, sorted by name.
  MetricsSnapshot snapshot() const;

  /// The process-wide registry every instrumented layer records into.
  static MetricsRegistry& global();

 private:
  struct Sample {
    MetricLabels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::vector<double> bounds;  // histogram families: fixed per family
    std::vector<Sample> samples;
  };

  Family& family_locked(const std::string& name, const std::string& help,
                        MetricKind kind);
  Sample& sample_locked(Family& family, const MetricLabels& labels);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

/// Prometheus text exposition format (# HELP / # TYPE + samples; histogram
/// families expand to _bucket{le=...}/_sum/_count).
void render_prometheus(const MetricsSnapshot& snapshot, std::ostream& out);

}  // namespace dabs::obs
