// MaxMin search (paper §III-A-3), an iteration-dependent algorithm with a
// simulated-annealing-like threshold schedule:
//
//   D(t) = (1 - u^3) * minDelta + u^3 * maxDelta,   u = (T - t) / T
//
// Each iteration draws a threshold d uniformly from [minDelta, D(t)] and
// flips a bit chosen uniformly at random among { i : Delta_i <= d } (tabu
// bits excluded while possible).  Early iterations tolerate large uphill
// moves; late iterations become nearly greedy.
#pragma once

#include <cmath>
#include <limits>

#include "search/search_algorithm.hpp"
#include "util/assert.hpp"

namespace dabs {

/// The candidate bound for a drawn threshold d: the largest D whose double
/// is <= d, so Delta <= maxmin_threshold<D>(d) holds exactly when
/// double(Delta) <= d and the candidate pass compares at the Delta width.
/// Below 2^53 every D converts exactly and the answer is floor(d); above,
/// integers up to the midpoint of the next double's gap still round down
/// to floor(d) (ties to even decide the midpoint).  Requires
/// d >= double(D's lowest), which d >= minDelta guarantees.
template <class D>
inline D maxmin_threshold(double d) {
  constexpr D kMax = std::numeric_limits<D>::max();
  if (d >= static_cast<double>(kMax)) return kMax;
  const double f = std::floor(d);
  DABS_ASSERT(f >= static_cast<double>(std::numeric_limits<D>::min()));
  const auto lo = static_cast<D>(f);  // exact: f is an integer below kMax
  if constexpr (std::numeric_limits<D>::digits > 53) {
    const double half = (std::nextafter(f, HUGE_VAL) - f) / 2;
    if (half >= 1) {
      const auto mid = static_cast<D>(lo + static_cast<D>(half));
      return static_cast<double>(mid) <= f ? mid : static_cast<D>(mid - 1);
    }
  }
  return lo;
}

class MaxMinSearch final : public SearchAlgorithm {
 public:
  void run(SearchState& state, Rng& rng, TabuList* tabu,
           std::uint64_t iterations) override;
};

}  // namespace dabs
