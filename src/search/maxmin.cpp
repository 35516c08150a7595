#include "search/maxmin.hpp"

#include <algorithm>
#include <vector>

#include "qubo/candidate_mask.hpp"

namespace dabs {

namespace {

/// Reservoir-samples one index among the set bits of the candidate words
/// cand (n variables), skipping the bits skip(k) rejects; returns n when
/// it rejects every one.
template <class Skip>
VarIndex sample(const std::uint64_t* cand, std::size_t n, Rng& rng,
                Skip skip) {
  auto pick = static_cast<VarIndex>(n);
  std::uint64_t seen = 0;
  for_each_candidate(
      n, [&](std::size_t base, std::size_t) { return cand[base / 64]; },
      [&](VarIndex k) {
        if (skip(k)) return;
        ++seen;
        if (rng.next_index(seen) == 0) pick = k;
      });
  return pick;
}

template <class D>
void run_at(SearchState& state, Rng& rng, TabuList* tabu, std::uint64_t T,
            std::span<const D> delta) {
  const std::size_t n = state.size();
  std::vector<std::uint64_t> cand((n + 63) / 64);
  ScanResult s = state.scan();  // Step 1 (best update) + min/max
  for (std::uint64_t t = 1; t <= T; ++t) {
    const double u = double(T - t) / double(T);
    const double u3 = u * u * u;
    const double upper =
        (1.0 - u3) * double(s.min_delta) + u3 * double(s.max_delta);
    const double d =
        double(s.min_delta) + rng.next_unit() * (upper - double(s.min_delta));
    const D threshold = maxmin_threshold<D>(d);

    // Candidates are the bits with Delta <= threshold, one word at a time.
    for (std::size_t base = 0; base < n; base += 64) {
      cand[base / 64] = compare_mask<Compare::kLessEqual>(
          delta.data() + base, std::min<std::size_t>(64, n - base),
          threshold);
    }
    const std::uint64_t now = state.flip_count();
    VarIndex pick = sample(cand.data(), n, rng, [&](VarIndex k) {
      return tabu && !tabu->allowed(k, now);
    });
    if (pick == n) {
      // Every candidate was tabu; the paper's rule must still flip one bit,
      // so sample the same candidates again ignoring the tabu list (argmin
      // always qualifies).
      pick = sample(cand.data(), n, rng, [](VarIndex) { return false; });
    }
    if (tabu) tabu->record(pick, now + 1);
    s = state.flip_and_scan(pick);  // Step 3 fused with the next Step 1
  }
}

}  // namespace

void MaxMinSearch::run(SearchState& state, Rng& rng, TabuList* tabu,
                       std::uint64_t iterations) {
  if (iterations == 0) return;
  state.deltas().visit([&](auto delta) {
    run_at(state, rng, tabu, iterations, delta);
  });
}

}  // namespace dabs
