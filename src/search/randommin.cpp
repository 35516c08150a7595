#include "search/randommin.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "qubo/candidate_mask.hpp"

namespace dabs {

namespace {

template <class D>
void run_at(SearchState& state, Rng& rng, TabuList* tabu, std::uint64_t T,
            std::uint32_t min_candidates, std::span<const D> delta) {
  const auto n = static_cast<VarIndex>(state.size());
  ScanResult s = state.scan();  // Step 1; fused into flip_and_scan below
  for (std::uint64_t t = 1; t <= T; ++t) {
    const double frac = double(t) / double(T);
    const double p =
        std::max(frac * frac * frac, double(min_candidates) / double(n));
    // next_bernoulli(p) is next_unit() < p with next_unit() = (u >> 11)
    // * 2^-53, so it holds exactly when (u >> 11) < ceil(p * 2^53); p >= 1
    // accepts every draw either way.
    const auto threshold =
        static_cast<std::uint64_t>(std::ceil(std::min(p, 1.0) * 0x1p53));

    VarIndex pick = n;
    D best_d = std::numeric_limits<D>::max();
    const std::uint64_t now = state.flip_count();
    // Draw on a local copy so the generator state stays in a register.
    Rng g = rng;
    for_each_candidate(
        n,
        [&](std::size_t base, std::size_t len) {
          return pack_word(base, len, [&](std::size_t) {
            return (g() >> 11) < threshold;
          });
        },
        [&](VarIndex k) {
          if (tabu && !tabu->allowed(k, now)) return;
          // The first candidate always qualifies, even at Delta == max.
          if (pick == n || delta[k] < best_d) {
            best_d = delta[k];
            pick = k;
          }
        });
    rng = g;
    if (pick == n) {
      // No candidate drawn (or all tabu): fall back to the global argmin so
      // the iteration still flips exactly one bit.
      pick = s.argmin;
    }
    if (tabu) tabu->record(pick, now + 1);
    s = state.flip_and_scan(pick);  // Step 3 fused with the next Step 1
  }
}

}  // namespace

void RandomMinSearch::run(SearchState& state, Rng& rng, TabuList* tabu,
                          std::uint64_t iterations) {
  if (iterations == 0 || state.size() == 0) return;
  state.deltas().visit([&](auto delta) {
    run_at(state, rng, tabu, iterations, min_candidates_, delta);
  });
}

}  // namespace dabs
