// RandomMin search (paper §III-A-5): each iteration samples every bit as a
// candidate with probability
//
//   p(t) = max( (t/T)^3, c/n ),   c = 32 by default
//
// and flips the candidate with minimum Delta.  Early iterations look at few
// bits (so poor bits get flipped, escaping minima); late iterations look at
// nearly all bits, approaching greedy behaviour.
//
// The n candidate draws of one iteration run in 16 draw lanes: lane j makes
// draws [j*L, (j+1)*L) of the one generator sequence, starting from a state
// jumped j*L draws ahead (XorshiftJump), and all lanes step together.  The
// draws, the candidate mask and the generator state afterwards are those
// of one serial chain of n draws.
#pragma once

#include <memory>
#include <vector>

#include "search/search_algorithm.hpp"

namespace dabs {

class RandomMinSearch final : public SearchAlgorithm {
 public:
  /// `min_candidates` is the constant c in p(t) >= c/n.
  explicit RandomMinSearch(std::uint32_t min_candidates = 32)
      : min_candidates_(min_candidates) {}

  void run(SearchState& state, Rng& rng, TabuList* tabu,
           std::uint64_t iterations) override;

 private:
  std::uint32_t min_candidates_;
  /// Jump over one lane's L draws, built on the first run for a model
  /// size (never at construction) and kept while the size stays.
  std::unique_ptr<const XorshiftJump> lane_jump_;
  std::vector<std::uint64_t> candidates_;  // one bit per draw, 16*L bits
};

}  // namespace dabs
