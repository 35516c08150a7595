// Summary statistics for the benchmark's end-to-end metrics.
//
// Percentiles use the nearest-rank definition on the sorted samples: the
// q-th percentile of N samples is the value at 1-based rank ceil(q * N).
// A tail percentile is reported only when at least kMinBeyond samples lie
// strictly beyond its rank, so a p90 needs N >= 100.  The median is the
// conventional one (mean of the middle two for even N).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Median of `values`; throws std::invalid_argument when empty.
double median(std::vector<double> values);

/// Nearest-rank q-th percentile (0 < q <= 1), or nullopt when fewer than
/// `min_beyond` samples lie beyond its rank.  Throws on empty input or a
/// q outside (0, 1].
std::optional<double> tail_percentile(std::vector<double> values, double q,
                                      std::size_t min_beyond = kMinBeyond);

/// Operations per second; throws std::invalid_argument unless seconds > 0.
double throughput(std::uint64_t ops, double seconds);

/// Attempted / failed / wrong tallies of one run.  A failed operation
/// finished without meeting its goal (a TTS trial that hit the batch cap,
/// a refused HTTP job); a wrong one returned an answer that does not check
/// out, which makes the whole run incorrect.
struct OpLedger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;

  void record(bool met_goal) {
    ++attempted;
    if (!met_goal) ++failed;
  }
  void record_wrong() { ++wrong; }
  bool correct() const noexcept { return wrong == 0; }
  /// failed / attempted (0 when nothing was attempted).
  double failure_share() const noexcept {
    return attempted == 0 ? 0.0 : double(failed) / double(attempted);
  }
};

/// Latency summary of one run, in the samples' own unit.
struct LatencySummary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double p90 = 0.0;
};

/// p50 and p90 of `values`; throws std::runtime_error when the p90 would
/// have fewer than kMinBeyond samples beyond it.
LatencySummary summarize_latency(const std::vector<double>& values);

}  // namespace perfbench
