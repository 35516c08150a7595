// Lane-parallel Bernoulli draws from one Xorshift64Star sequence.
//
// n draws run in kDrawLanes lanes: lane j makes draws [j*L, (j+1)*L) of the
// one generator sequence, starting from a state jumped j*L draws ahead
// (XorshiftJump), and all lanes step together.  The draws, the resulting
// bit mask and the generator state afterwards are those of one serial
// chain of n draws.  RandomMin draws its candidates this way, and the
// complete-graph MaxCut generator its weight signs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "rng/xorshift.hpp"

namespace dabs {

inline constexpr std::size_t kDrawLanes = 16;

/// Lane length L for n draws: the least multiple of 64 with 16 L >= n, so
/// every lane fills whole mask words.
constexpr std::size_t lane_length(std::size_t n) {
  return 64 * ((n + 64 * kDrawLanes - 1) / (64 * kDrawLanes));
}

/// n draws, bit k of cand set when draw k is a candidate: (u >> 11) <
/// threshold, the form next_bernoulli(p) takes, for threshold <= 2^53.  At
/// threshold 2^52 a draw is a candidate exactly when its next_bit() is 0.
/// `jump` covers one lane (L = jump.steps(), a multiple of 64 with
/// kDrawLanes L >= n > 0); cand holds kDrawLanes L / 64 words.  Bits past
/// n are cleared and rng is left in its state after draw n.
void draw_candidates(Rng& rng, const XorshiftJump& jump, std::size_t n,
                     std::uint64_t threshold, std::uint64_t* cand);

}  // namespace dabs
