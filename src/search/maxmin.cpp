#include "search/maxmin.hpp"

#include "search/candidate_mask.hpp"

namespace dabs {

namespace {

/// Reservoir-samples one index with Delta <= d.  When `tabu` is non-null,
/// tabu bits are skipped; returns size() if every qualifying bit was tabu.
VarIndex sample_below(const SearchState& state, double d, Rng& rng,
                      const TabuList* tabu, std::uint64_t now) {
  const auto n = static_cast<VarIndex>(state.size());
  const std::span<const Energy> delta = state.deltas();
  VarIndex pick = n;
  std::uint64_t seen = 0;
  for_each_candidate(
      n,
      [&](std::size_t base, std::size_t len) {
        // Compared in double, exactly as the threshold was drawn.
        return pack_word(base, len, [&](std::size_t k) {
          return !(double(delta[k]) > d);
        });
      },
      [&](VarIndex k) {
        if (tabu && !tabu->allowed(k, now)) return;
        ++seen;
        if (rng.next_index(seen) == 0) pick = k;
      });
  return pick;
}

}  // namespace

void MaxMinSearch::run(SearchState& state, Rng& rng, TabuList* tabu,
                       std::uint64_t iterations) {
  const std::uint64_t T = iterations;
  if (T == 0) return;
  ScanResult s = state.scan();  // Step 1 (best update) + min/max
  for (std::uint64_t t = 1; t <= T; ++t) {
    const double u = double(T - t) / double(T);
    const double u3 = u * u * u;
    const double upper =
        (1.0 - u3) * double(s.min_delta) + u3 * double(s.max_delta);
    const double d =
        double(s.min_delta) + rng.next_unit() * (upper - double(s.min_delta));

    VarIndex pick = sample_below(state, d, rng, tabu, state.flip_count());
    if (pick == state.size()) {
      // Every candidate was tabu; the paper's rule must still flip one bit,
      // so retry ignoring the tabu list (argmin always qualifies).
      pick = sample_below(state, d, rng, nullptr, state.flip_count());
    }
    if (tabu) tabu->record(pick, state.flip_count() + 1);
    s = state.flip_and_scan(pick);  // Step 3 fused with the next Step 1
  }
}

}  // namespace dabs
