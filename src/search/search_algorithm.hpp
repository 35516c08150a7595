// Abstract interface for the main search algorithms (paper §III-A).
//
// A main search performs T iterations; each iteration is one round of the
// incremental search algorithm:
//   Step 1  scan all 1-bit neighbors, update BEST           (SearchState::scan)
//   Step 2  pick the bit to flip                            (algorithm-specific)
//   Step 3  flip it, updating E and all Delta incrementally (SearchState::flip)
// The tabu rule (if enabled) filters Step-2 candidates; when every candidate
// is tabu the algorithm falls back to ignoring the rule so an iteration
// always flips exactly one bit.
//
// Step 2 rule: a selection draws its random numbers in ascending variable
// index order, one bit at a time as a plain per-bit loop would.  That is
// what lets Step 2 build word-at-a-time candidate masks
// (search/candidate_mask.hpp) and still keep every seeded trajectory
// bit-identical; a change to the draw order is a change of trajectory.
#pragma once

#include <cstdint>

#include "qubo/search_state.hpp"
#include "rng/xorshift.hpp"
#include "search/tabu_list.hpp"

namespace dabs {

class SearchAlgorithm {
 public:
  virtual ~SearchAlgorithm() = default;

  /// Runs `iterations` flips on `state`.  `tabu` may be nullptr.
  /// TwoNeighbor ignores `iterations` and always performs its fixed
  /// 2n-1 flip traversal.
  virtual void run(SearchState& state, Rng& rng, TabuList* tabu,
                   std::uint64_t iterations) = 0;
};

}  // namespace dabs
