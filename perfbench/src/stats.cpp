#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double> tail_percentile(std::vector<double> values, double q,
                                      std::size_t min_beyond) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile rank must be in (0, 1]");
  }
  const std::size_t n = values.size();
  // The epsilon keeps products like 0.9 * 110 = 99.00000000000001 on rank
  // 99 instead of rounding them up a rank.
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * double(n) - 1e-9)));
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double throughput(std::uint64_t ops, double seconds) {
  if (!(seconds > 0.0)) {
    throw std::invalid_argument("throughput needs a positive wall time");
  }
  return double(ops) / seconds;
}

LatencySummary summarize_latency(const std::vector<double>& values) {
  const std::optional<double> p90 = tail_percentile(values, 0.90);
  if (!p90) {
    throw std::runtime_error(
        "p90 needs at least " + std::to_string(kMinBeyond) +
        " samples beyond it; got " + std::to_string(values.size()) +
        " samples in total");
  }
  return {values.size(), median(values), *p90};
}

}  // namespace perfbench
