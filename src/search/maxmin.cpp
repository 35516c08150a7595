#include "search/maxmin.hpp"

#include "qubo/candidate_mask.hpp"

namespace dabs {

namespace {

/// Reservoir-samples one index with Delta <= threshold.  When `tabu` is
/// non-null, tabu bits are skipped; returns size() if every qualifying bit
/// was tabu.
template <class D>
VarIndex sample_below(std::span<const D> delta, D threshold, Rng& rng,
                      const TabuList* tabu, std::uint64_t now) {
  const auto n = static_cast<VarIndex>(delta.size());
  VarIndex pick = n;
  std::uint64_t seen = 0;
  for_each_candidate(
      n,
      [&](std::size_t base, std::size_t len) {
        return pack_word(base, len,
                         [&](std::size_t k) { return delta[k] <= threshold; });
      },
      [&](VarIndex k) {
        if (tabu && !tabu->allowed(k, now)) return;
        ++seen;
        if (rng.next_index(seen) == 0) pick = k;
      });
  return pick;
}

template <class D>
void run_at(SearchState& state, Rng& rng, TabuList* tabu, std::uint64_t T,
            std::span<const D> delta) {
  ScanResult s = state.scan();  // Step 1 (best update) + min/max
  for (std::uint64_t t = 1; t <= T; ++t) {
    const double u = double(T - t) / double(T);
    const double u3 = u * u * u;
    const double upper =
        (1.0 - u3) * double(s.min_delta) + u3 * double(s.max_delta);
    const double d =
        double(s.min_delta) + rng.next_unit() * (upper - double(s.min_delta));
    const D threshold = maxmin_threshold<D>(d);

    VarIndex pick =
        sample_below(delta, threshold, rng, tabu, state.flip_count());
    if (pick == state.size()) {
      // Every candidate was tabu; the paper's rule must still flip one bit,
      // so retry ignoring the tabu list (argmin always qualifies).
      pick = sample_below(delta, threshold, rng, nullptr, state.flip_count());
    }
    if (tabu) tabu->record(pick, state.flip_count() + 1);
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
