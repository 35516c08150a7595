// Unit tests for obs metrics: counters/gauges, histogram bucket semantics
// and quantile extraction, registry get-or-create rules, and Prometheus
// rendering.  The concurrent tests are TSan targets: every update path is
// relaxed atomics and totals must still be exact.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace dabs::obs {
namespace {

TEST(Counter, IncrementsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(Histogram, BucketBoundariesAreLessOrEqual) {
  // Prometheus `le` semantics: an observation equal to a bound lands IN
  // that bound's bucket, not the next one.
  Histogram h({1.0, 2.0, 5.0});
  h.observe(0.5);   // -> le=1
  h.observe(1.0);   // -> le=1 (boundary)
  h.observe(1.5);   // -> le=2
  h.observe(2.0);   // -> le=2 (boundary)
  h.observe(5.0);   // -> le=5 (boundary)
  h.observe(7.0);   // -> +Inf
  const std::vector<std::uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 5.0 + 7.0);
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  Histogram h({1.0, 2.0, 4.0});
  // 100 observations uniformly in (0, 1]: everything is in the first
  // bucket, so the median interpolates to roughly the bucket midpoint.
  for (int i = 1; i <= 100; ++i) h.observe(i / 100.0);
  const double p50 = h.quantile(0.5);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, 1.0);
}

TEST(Histogram, P99LandsInTheTailBucket) {
  Histogram h({0.01, 0.1, 1.0, 10.0});
  for (int i = 0; i < 90; ++i) h.observe(0.005);  // le=0.01
  for (int i = 0; i < 10; ++i) h.observe(5.0);    // le=10
  // Rank 99 of 100 is past the 90 fast observations: the p99 must escape
  // the fast bucket and land in (1, 10], while the median stays fast.
  const double p99 = h.quantile(0.99);
  EXPECT_GT(p99, 1.0);
  EXPECT_LE(p99, 10.0);
  EXPECT_LE(h.quantile(0.5), 0.01);
}

TEST(Histogram, QuantileEdgeCases) {
  Histogram empty({1.0});
  EXPECT_EQ(empty.quantile(0.99), 0.0);

  // Everything in +Inf: the quantile degrades to the highest finite bound.
  Histogram inf_only({1.0, 3.0});
  inf_only.observe(100.0);
  EXPECT_DOUBLE_EQ(inf_only.quantile(0.99), 3.0);
}

TEST(Histogram, ExponentialBounds) {
  const std::vector<double> bounds =
      Histogram::exponential_bounds(0.001, 10.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 0.001);
  EXPECT_DOUBLE_EQ(bounds[3], 1.0);
  // The default latency ladder is ascending and non-trivial.
  const std::vector<double>& lat = Histogram::default_latency_bounds();
  ASSERT_GT(lat.size(), 4u);
  for (std::size_t i = 1; i < lat.size(); ++i) EXPECT_LT(lat[i - 1], lat[i]);
}

TEST(Histogram, ConcurrentObservationsAreExact) {
  Histogram h({1.0, 10.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.observe(0.5);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(h.sum(), kThreads * kPerThread * 0.5);
  EXPECT_EQ(h.bucket_counts()[0],
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(Registry, GetOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  Counter& a = reg.counter("dabs_test_total", "help");
  Counter& b = reg.counter("dabs_test_total", "help");
  EXPECT_EQ(&a, &b);
  Counter& labelled =
      reg.counter("dabs_test_total", "help", {{"class", "2xx"}});
  EXPECT_NE(&a, &labelled);
}

TEST(Registry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("dabs_test_total", "help");
  EXPECT_THROW(reg.gauge("dabs_test_total", "help"), std::logic_error);
  reg.histogram("dabs_test_seconds", "help", {1.0});
  EXPECT_THROW(reg.histogram("dabs_test_seconds", "help", {2.0}),
               std::logic_error);
}

TEST(Registry, InvalidNamesThrow) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter("9starts_with_digit", "help"),
               std::invalid_argument);
  EXPECT_THROW(reg.counter("has space", "help"), std::invalid_argument);
  EXPECT_THROW(reg.counter("ok_name", "help", {{"bad key", "v"}}),
               std::invalid_argument);
}

TEST(Registry, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      // Registration races too: get-or-create from every thread must
      // resolve to one instance.
      Counter& c = reg.counter("dabs_race_total", "help");
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(reg.counter("dabs_race_total", "help").value(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(Render, PrometheusTextFormat) {
  MetricsRegistry reg;
  reg.counter("dabs_reqs_total", "Requests.", {{"class", "2xx"}}).inc(3);
  reg.gauge("dabs_depth", "Queue depth.").set(7);
  Histogram& h = reg.histogram("dabs_lat_seconds", "Latency.", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(2.0);

  std::ostringstream out;
  render_prometheus(reg.snapshot(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# HELP dabs_reqs_total Requests."), std::string::npos);
  EXPECT_NE(text.find("# TYPE dabs_reqs_total counter"), std::string::npos);
  EXPECT_NE(text.find("dabs_reqs_total{class=\"2xx\"} 3"), std::string::npos);
  EXPECT_NE(text.find("dabs_depth 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dabs_lat_seconds histogram"),
            std::string::npos);
  // Cumulative buckets: le="1" includes le="0.1".
  EXPECT_NE(text.find("dabs_lat_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("dabs_lat_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("dabs_lat_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("dabs_lat_seconds_count 3"), std::string::npos);
}

TEST(Render, EscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("dabs_esc_total", "h", {{"path", "a\"b\\c\nd"}}).inc();
  std::ostringstream out;
  render_prometheus(reg.snapshot(), out);
  EXPECT_NE(out.str().find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

TEST(Registry, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

}  // namespace
}  // namespace dabs::obs
