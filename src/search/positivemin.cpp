#include "search/positivemin.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "qubo/candidate_mask.hpp"

namespace dabs {

namespace {

template <class D>
void run_at(SearchState& state, Rng& rng, TabuList* tabu,
            std::uint64_t iterations, std::span<const D> delta) {
  using U = std::make_unsigned_t<D>;
  constexpr D kMax = std::numeric_limits<D>::max();
  const auto n = static_cast<VarIndex>(state.size());
  state.scan();  // Step 1; later iterations fuse it into flip_and_scan
  for (std::uint64_t t = 1; t <= iterations; ++t) {
    // posmin(Delta) = smallest strictly positive Delta; when no Delta is
    // positive every bit qualifies as a candidate.  As unsigned values of
    // D's width, Delta - 1 keeps the order of positive deltas in
    // [0, kMax - 1] and lifts every other delta to kMax + 1 or above, so a
    // plain (vectorisable) min finds it.  "No positive Delta" selects
    // posmin = kMax, which every Delta satisfies — as does a real posmin
    // of exactly kMax, so the two cases need no separate sentinel.
    U below = std::numeric_limits<U>::max();
    for (const D d : delta) {
      below = std::min(below, static_cast<U>(static_cast<U>(d) - 1));
    }
    const D posmin =
        below < static_cast<U>(kMax) ? static_cast<D>(below + 1) : kMax;

    const std::uint64_t now = state.flip_count();
    VarIndex pick = n;
    VarIndex pick_any = n;
    std::uint64_t seen = 0, seen_any = 0;
    for_each_candidate(
        n,
        [&](std::size_t base, std::size_t len) {
          return compare_mask<Compare::kLessEqual>(delta.data() + base, len,
                                                   posmin);
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

}  // namespace

void PositiveMinSearch::run(SearchState& state, Rng& rng, TabuList* tabu,
                            std::uint64_t iterations) {
  if (iterations == 0) return;
  state.deltas().visit([&](auto delta) {
    run_at(state, rng, tabu, iterations, delta);
  });
}

}  // namespace dabs
