#include "search/positivemin.hpp"

#include <algorithm>
#include <limits>

#include "search/candidate_mask.hpp"

namespace dabs {

void PositiveMinSearch::run(SearchState& state, Rng& rng, TabuList* tabu,
                            std::uint64_t iterations) {
  const auto n = static_cast<VarIndex>(state.size());
  if (iterations == 0) return;
  const std::span<const Energy> delta = state.deltas();
  constexpr Energy kNone = std::numeric_limits<Energy>::max();
  state.scan();  // Step 1; later iterations fuse it into flip_and_scan
  for (std::uint64_t t = 1; t <= iterations; ++t) {
    // posmin(Delta) = smallest strictly positive Delta; when no Delta is
    // positive every bit qualifies as a candidate.  As unsigned values,
    // Delta - 1 keeps the order of positive deltas and lifts every other
    // delta to 2^63 - 1 or above, so a plain (vectorisable) min finds it.
    std::uint64_t below = ~std::uint64_t{0};
    for (const Energy d : delta) {
      below = std::min(below, static_cast<std::uint64_t>(d) - 1);
    }
    const Energy posmin =
        below < std::uint64_t{kNone} ? static_cast<Energy>(below + 1) : kNone;

    const std::uint64_t now = state.flip_count();
    VarIndex pick = n;
    VarIndex pick_any = n;
    std::uint64_t seen = 0, seen_any = 0;
    for_each_candidate(
        n,
        [&](std::size_t base, std::size_t len) {
          return pack_word(base, len,
                           [&](std::size_t k) { return delta[k] <= posmin; });
        },
        [&](VarIndex k) {
          ++seen_any;
          if (rng.next_index(seen_any) == 0) pick_any = k;
          if (tabu && !tabu->allowed(k, now)) return;
          ++seen;
          if (rng.next_index(seen) == 0) pick = k;
        });
    if (pick == n) pick = pick_any;  // all candidates tabu
    if (tabu) tabu->record(pick, now + 1);
    state.flip_and_scan(pick);  // Step 3 fused with the next Step 1
  }
}

}  // namespace dabs
