#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <stdexcept>

namespace dabs::obs {
namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (i > 0 && digit))) return false;
  }
  return true;
}

bool valid_label_name(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (i > 0 && digit))) return false;
  }
  return true;
}

// Label values: backslash, double-quote, and newline must be escaped in
// the exposition format.
void append_escaped_label_value(std::string& out, const std::string& value) {
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
}

std::string format_label_set(const MetricLabels& labels,
                             const std::string& extra_key = {},
                             const std::string& extra_value = {}) {
  if (labels.empty() && extra_key.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    append_escaped_label_value(out, v);
    out += '"';
  }
  if (!extra_key.empty()) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    append_escaped_label_value(out, extra_value);
    out += '"';
  }
  out += '}';
  return out;
}

// Counters are integral in practice; print them without a fractional part
// so the exposition stays human-readable.
std::string format_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  // Shortest representation that round-trips: "0.1" beats the %.17g form
  // "0.10000000000000001" for bucket bounds and latency sums.
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string format_bound(double b) { return format_number(b); }

}  // namespace

const char* to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "counter";
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Portable atomic double accumulate (fetch_add on atomic<double> is
  // C++20 but not universally lock-free); contention here is negligible.
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const std::uint64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    const std::uint64_t prev = cum;
    cum += in_bucket;
    if (static_cast<double>(cum) < rank) continue;
    if (i == bounds_.size()) {
      // +Inf bucket: the best estimate is the largest finite bound.
      return bounds_.empty() ? 0.0 : bounds_.back();
    }
    const double lower = i == 0 ? 0.0 : bounds_[i - 1];
    const double upper = bounds_[i];
    const double frac =
        (rank - static_cast<double>(prev)) / static_cast<double>(in_bucket);
    return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  std::size_t count) {
  std::vector<double> out;
  out.reserve(count);
  double b = start;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(b);
    b *= factor;
  }
  return out;
}

const std::vector<double>& Histogram::default_latency_bounds() {
  static const std::vector<double> kBounds = {
      0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
      0.05,   0.1,     0.25,   0.5,   1.0,    2.5,   5.0,  10.0,
      30.0,   60.0};
  return kBounds;
}

MetricsRegistry::Family& MetricsRegistry::family_locked(
    const std::string& name, const std::string& help, MetricKind kind) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("metrics: invalid metric name: " + name);
  }
  auto [it, inserted] = families_.try_emplace(name);
  Family& family = it->second;
  if (inserted) {
    family.help = help;
    family.kind = kind;
  } else if (family.kind != kind) {
    throw std::logic_error("metrics: " + name + " registered as " +
                           to_string(family.kind) + ", requested as " +
                           to_string(kind));
  }
  return family;
}

MetricsRegistry::Sample& MetricsRegistry::sample_locked(
    Family& family, const MetricLabels& labels) {
  for (auto& sample : family.samples) {
    if (sample.labels == labels) return sample;
  }
  for (const auto& [k, v] : labels) {
    if (!valid_label_name(k)) {
      throw std::invalid_argument("metrics: invalid label name: " + k);
    }
  }
  return family.samples.emplace_back(Sample{labels, nullptr, nullptr, nullptr});
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = family_locked(name, help, MetricKind::kCounter);
  Sample& sample = sample_locked(family, labels);
  if (!sample.counter) sample.counter = std::make_unique<Counter>();
  return *sample.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = family_locked(name, help, MetricKind::kGauge);
  Sample& sample = sample_locked(family, labels);
  if (!sample.gauge) sample.gauge = std::make_unique<Gauge>();
  return *sample.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      const std::vector<double>& bounds,
                                      const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = family_locked(name, help, MetricKind::kHistogram);
  if (family.samples.empty()) {
    family.bounds = bounds;
    std::sort(family.bounds.begin(), family.bounds.end());
    family.bounds.erase(
        std::unique(family.bounds.begin(), family.bounds.end()),
        family.bounds.end());
  } else if (family.bounds != bounds) {
    std::vector<double> sorted = bounds;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    if (family.bounds != sorted) {
      throw std::logic_error("metrics: " + name +
                             " registered with different bucket bounds");
    }
  }
  Sample& sample = sample_locked(family, labels);
  if (!sample.histogram) {
    sample.histogram = std::make_unique<Histogram>(family.bounds);
  }
  return *sample.histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out;
  out.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    FamilySnapshot fs;
    fs.name = name;
    fs.help = family.help;
    fs.kind = family.kind;
    fs.samples.reserve(family.samples.size());
    for (const auto& sample : family.samples) {
      SampleSnapshot ss;
      ss.labels = sample.labels;
      switch (family.kind) {
        case MetricKind::kCounter:
          ss.value = static_cast<double>(sample.counter->value());
          break;
        case MetricKind::kGauge:
          ss.value = static_cast<double>(sample.gauge->value());
          break;
        case MetricKind::kHistogram:
          ss.bounds = sample.histogram->bounds();
          ss.buckets = sample.histogram->bucket_counts();
          ss.count = sample.histogram->count();
          ss.sum = sample.histogram->sum();
          break;
      }
      fs.samples.push_back(std::move(ss));
    }
    out.push_back(std::move(fs));
  }
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

void render_prometheus(const MetricsSnapshot& snapshot, std::ostream& out) {
  for (const auto& family : snapshot) {
    out << "# HELP " << family.name << ' ' << family.help << '\n';
    out << "# TYPE " << family.name << ' ' << to_string(family.kind) << '\n';
    for (const auto& sample : family.samples) {
      if (family.kind != MetricKind::kHistogram) {
        out << family.name << format_label_set(sample.labels) << ' '
            << format_number(sample.value) << '\n';
        continue;
      }
      std::uint64_t cum = 0;
      for (std::size_t i = 0; i < sample.bounds.size(); ++i) {
        cum += i < sample.buckets.size() ? sample.buckets[i] : 0;
        out << family.name << "_bucket"
            << format_label_set(sample.labels, "le",
                                format_bound(sample.bounds[i]))
            << ' ' << cum << '\n';
      }
      out << family.name << "_bucket"
          << format_label_set(sample.labels, "le", "+Inf") << ' '
          << sample.count << '\n';
      out << family.name << "_sum" << format_label_set(sample.labels) << ' '
          << format_number(sample.sum) << '\n';
      out << family.name << "_count" << format_label_set(sample.labels) << ' '
          << sample.count << '\n';
    }
  }
}

}  // namespace dabs::obs
