// Tests of the benchmark's own statistics: percentile choice, throughput,
// failure accounting and the set-up median.  Run by perfbench/run.py
// before every measurement (and by `ctest` in the benchmark build).
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

template <class F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_choice() {
  using perfbench::tail_percentile;
  // 100 samples: p90 is rank 90 with exactly 10 samples beyond it.
  const std::optional<double> p90 = tail_percentile(one_to(100), 0.90);
  check(p90 && *p90 == 90.0, "p90 of 1..100 is 90");
  // 99 samples: rank ceil(89.1) = 90 leaves 9 beyond it -> refused.
  check(!tail_percentile(one_to(99), 0.90), "p90 of 99 samples is refused");
  // 110 samples: 0.9 * 110 must not round up to rank 100.
  const std::optional<double> p90_110 = tail_percentile(one_to(110), 0.90);
  check(p90_110 && *p90_110 == 99.0, "p90 of 1..110 is 99");
  // p50 of 20 samples has 10 beyond it; p99 of 100 has 1 -> refused.
  check(tail_percentile(one_to(20), 0.5).value_or(-1) == 10.0,
        "p50 of 1..20 by nearest rank is 10");
  check(!tail_percentile(one_to(100), 0.99), "p99 of 100 samples is refused");
  check(throws([] { tail_percentile({}, 0.9); }), "empty input throws");
  check(throws([] { tail_percentile(one_to(5), 0.0); }), "q = 0 throws");
  check(throws([] { perfbench::summarize_latency(one_to(99)); }),
        "a latency summary of 99 samples throws");
  const perfbench::LatencySummary s = perfbench::summarize_latency(one_to(100));
  check(s.samples == 100 && s.p50 == 50.5 && s.p90 == 90.0,
        "latency summary of 1..100: p50 50.5, p90 90");
}

void throughput_rate() {
  check(perfbench::throughput(250, 2.5) == 100.0, "250 ops in 2.5 s is 100/s");
  check(throws([] { perfbench::throughput(1, 0.0); }),
        "zero wall time throws");
}

void failure_accounting() {
  perfbench::OpLedger ledger;
  for (int i = 0; i < 10; ++i) ledger.record(i != 3);
  check(ledger.attempted == 10 && ledger.failed == 1,
        "one missed goal in ten attempts");
  check(ledger.failure_share() == 0.1, "failure share 0.1");
  check(ledger.correct(), "a missed goal is not a wrong answer");
  ledger.record_wrong();
  check(!ledger.correct(), "a wrong answer makes the run incorrect");
  check(perfbench::OpLedger{}.failure_share() == 0.0,
        "no attempts, no failure share");
}

void setup_median() {
  // A cold first repeat must not move the reported set-up time.
  check(perfbench::median({0.90, 0.10, 0.11, 0.12, 0.10}) == 0.11,
        "median of five repeats ignores the cold outlier");
  check(perfbench::median({4, 1, 3, 2}) == 2.5, "even count averages");
  check(throws([] { perfbench::median({}); }), "median of nothing throws");
}

}  // namespace

int main() {
  percentile_choice();
  throughput_rate();
  failure_accounting();
  setup_median();
  if (failures != 0) {
    std::fprintf(stderr, "%d statistics checks failed\n", failures);
    return 1;
  }
  std::printf("statistics checks passed\n");
  return 0;
}
