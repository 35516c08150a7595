#include "rng/draw_lanes.hpp"

#include <cstring>

namespace dabs {

namespace {

/// Eight generator states in one vector (GCC vector extension: one
/// 512-bit register where the target has them, split where it has not);
/// the 16 lanes are two of them.
typedef std::uint64_t LaneStates __attribute__((vector_size(64)));
constexpr std::size_t kVectorLanes =
    sizeof(LaneStates) / sizeof(std::uint64_t);
constexpr std::size_t kLaneVectors = kDrawLanes / kVectorLanes;

}  // namespace

/// Lane j starts j jumps past rng's state and makes draws [j L, (j + 1) L);
/// since L is a multiple of 64, lane j's c-th word is mask word j L / 64 + c.
void draw_candidates(Rng& rng, const XorshiftJump& jump, std::size_t n,
                     std::uint64_t threshold, std::uint64_t* cand) {
  const std::size_t lane_len = jump.steps();
  const std::size_t lane_words = lane_len / 64;
  // The last lane that draws below n makes last_draws in [1, L] of them;
  // a vector whose lanes all start past n is neither started nor stepped.
  const std::size_t last_lane = (n - 1) / lane_len;
  const std::size_t last_draws = n - last_lane * lane_len;
  const std::size_t vectors = last_lane / kVectorLanes + 1;
  alignas(64) std::uint64_t lane[kDrawLanes] = {};
  lane[0] = rng.state();
  for (std::size_t j = 1; j < vectors * kVectorLanes; ++j) {
    lane[j] = jump(lane[j - 1]);
  }
  LaneStates s[kLaneVectors];
  std::memcpy(s, lane, sizeof s);
  const LaneStates below = LaneStates{} + threshold;
  const LaneStates top = LaneStates{} + (std::uint64_t{1} << 63);
  alignas(64) std::uint64_t end[kDrawLanes];
  for (std::size_t c = 0; c < lane_words; ++c) {
    // Each draw's bit enters at the top, so after 64 draws bit b holds
    // draw b of the word.  u < 2^53 and threshold <= 2^53, so
    // u - threshold has its top bit set exactly when u < threshold.
    LaneStates word[kLaneVectors] = {};
    for (std::size_t b = 0; b < 64; ++b) {
      for (std::size_t v = 0; v < vectors; ++v) {
        LaneStates x = s[v];
        x ^= x >> 12;  // Rng::advance
        x ^= x << 25;
        x ^= x >> 27;
        s[v] = x;
        const LaneStates u = (x * Rng::kMultiplier) >> 11;  // Rng::output
        word[v] = (word[v] >> 1) | ((u - below) & top);
      }
      if (c * 64 + b + 1 == last_draws) std::memcpy(end, s, sizeof end);
    }
    std::memcpy(lane, word, sizeof lane);
    for (std::size_t j = 0; j < kDrawLanes; ++j) {
      cand[j * lane_words + c] = lane[j];
    }
  }
  if (n % 64 != 0) cand[n / 64] &= (std::uint64_t{1} << (n % 64)) - 1;
  rng.reseed(end[last_lane]);  // a reached state is never 0
}

}  // namespace dabs
