#include "search/straight.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"

namespace dabs {

namespace {

/// The walk at one Delta width D.  Step 2 reduces order-preserving
/// unsigned keys of D's width: key(Delta) = Delta with its sign bit
/// flipped.  A per-walk array off[k] holds 0 while bit k still differs
/// from the target and all-ones once it agrees, so min(key | off) over a
/// word is the minimum key among its differing bits.  A differing bit's
/// key can itself be all-ones (a Delta of exactly INT16_MAX at int16), so
/// the walk counts the differing bits instead of treating an all-ones
/// minimum as "X == target".
template <class D>
std::uint64_t walk(SearchState& state, const BitVector& target,
                   std::span<const D> delta) {
  using U = std::make_unsigned_t<D>;
  constexpr U kAgree = std::numeric_limits<U>::max();
  const auto key = [](D d) {
    return static_cast<U>(static_cast<U>(d) ^
                          (U{1} << (std::numeric_limits<U>::digits - 1)));
  };
  const std::size_t n = state.size();
  const std::uint64_t* t = target.words();
  const std::uint64_t* x = state.solution().words();
  std::vector<U> off(n);
  std::uint64_t remaining = 0;
  for (std::size_t base = 0; base < n; base += 64) {
    const std::uint64_t m = x[base / 64] ^ t[base / 64];
    remaining += static_cast<std::uint64_t>(std::popcount(m));
    const std::size_t len = std::min<std::size_t>(64, n - base);
    for (std::size_t b = 0; b < len; ++b) {
      off[base + b] = static_cast<U>(((m >> b) & 1) - 1);  // 0 if differing
    }
  }

  std::uint64_t flips = 0;
  state.scan();  // Step 1: BEST update over all 1-bit neighbors
  for (; remaining > 0; --remaining) {
    // Step 2: minimum-Delta bit among those differing from the target,
    // first occurrence: the first word attaining the minimum key, then
    // its first differing bit with that key.
    x = state.solution().words();
    U best_key = kAgree;
    std::size_t best_base = n;
    for (std::size_t base = 0; base < n; base += 64) {
      if (x[base / 64] == t[base / 64]) continue;
      const std::size_t end = std::min(n, base + 64);
      U word_key = kAgree;
      for (std::size_t k = base; k < end; ++k) {
        word_key = std::min(word_key, static_cast<U>(key(delta[k]) | off[k]));
      }
      if (best_base == n || word_key < best_key) {
        best_key = word_key;
        best_base = base;
      }
    }
    DABS_ASSERT(best_base < n);
    std::uint64_t m = x[best_base / 64] ^ t[best_base / 64];
    while (key(delta[best_base + std::countr_zero(m)]) != best_key) {
      m &= m - 1;
    }
    const auto diff_arg =
        static_cast<VarIndex>(best_base + std::countr_zero(m));
    off[diff_arg] = kAgree;
    state.flip_and_scan(diff_arg);  // Step 3 fused with the next Step 1
    ++flips;
  }
  return flips;
}

}  // namespace

std::uint64_t straight_walk(SearchState& state, const BitVector& target) {
  DABS_CHECK(target.size() == state.size(), "target length mismatch");
  // The candidate mask is x ^ target word by word, which is exact only
  // while the target's bits past size() are zero.
  DABS_ASSERT(state.size() % 64 == 0 ||
              (target.words()[target.word_count() - 1] >>
               (state.size() % 64)) == 0);
  return state.deltas().visit(
      [&](auto delta) { return walk(state, target, delta); });
}

}  // namespace dabs
