// Per-thread random number generation as described in the paper (§V):
// the host seeds every device thread with a 64-bit value produced by a
// Mersenne Twister, and each device thread then runs Xorshift to draw
// numbers cheaply.
//
// Xorshift64Star satisfies the C++ UniformRandomBitGenerator concept so it
// can also feed <random> distributions where convenient, but the search
// kernels use the branch-light helpers below (next_index, next_unit, ...)
// to avoid distribution overhead in the flip loop.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace dabs {

class Xorshift64Star {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator; a zero seed is remapped to a fixed odd constant
  /// because the all-zero state is a fixed point of the xorshift map.
  explicit Xorshift64Star(std::uint64_t seed = 0x9e3779b97f4a7c15ull) {
    reseed(seed);
  }

  void reseed(std::uint64_t seed) {
    state_ = seed != 0 ? seed : 0x9e3779b97f4a7c15ull;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() noexcept {
    state_ = advance(state_);
    return output(state_);
  }

  /// The state step and the output scramble of operator(), on a raw state:
  /// lane-parallel callers step copies of the state with these.  advance()
  /// is linear over GF(2) (see XorshiftJump).
  static constexpr std::uint64_t advance(std::uint64_t s) noexcept {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s;
  }
  static constexpr result_type output(std::uint64_t s) noexcept {
    return s * kMultiplier;
  }
  static constexpr std::uint64_t kMultiplier = 0x2545f4914f6cdd1dull;

  /// Uniform integer in [0, bound); bound must be positive.
  /// Uses the 128-bit multiply trick (Lemire) — no modulo in the hot loop.
  std::uint64_t next_index(std::uint64_t bound) noexcept {
    const unsigned __int128 m =
        static_cast<unsigned __int128>((*this)()) * bound;
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double next_unit() noexcept {
    return double((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p.
  bool next_bernoulli(double p) noexcept { return next_unit() < p; }

  /// Uniform random bit.
  bool next_bit() noexcept { return ((*this)() >> 63) & 1u; }

  std::uint64_t state() const noexcept { return state_; }

 private:
  std::uint64_t state_;
};

/// Jump-ahead for Xorshift64Star: advance() is a 64x64 matrix A over GF(2),
/// so `steps` draws at once are the product A^steps * state.  The matrix is
/// stored as 8 byte-indexed tables (16 KiB): entry [b][v] is the xor of the
/// columns selected by byte value v at byte position b, so a jump is 8
/// lookups and 7 xors.  Building costs 64 * steps state steps.
class XorshiftJump {
 public:
  explicit XorshiftJump(std::uint64_t steps);

  std::uint64_t steps() const noexcept { return steps_; }

  /// The state `steps` draws after s.
  std::uint64_t operator()(std::uint64_t s) const noexcept {
    std::uint64_t r = 0;
    for (std::size_t b = 0; b < 8; ++b) r ^= table_[b][(s >> (8 * b)) & 0xff];
    return r;
  }

 private:
  std::uint64_t steps_;
  std::array<std::array<std::uint64_t, 256>, 8> table_;
};

/// Default generator type used across the library.
using Rng = Xorshift64Star;

}  // namespace dabs
