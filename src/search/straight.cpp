#include "search/straight.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

#include "util/assert.hpp"

namespace dabs {

namespace {

/// The walk at one Delta width D.  Step 2 is the first-occurrence argmin
/// of Delta over the bits that still differ from the target.  A per-walk
/// array off[k] holds D's lowest value while bit k differs and D's highest
/// once it agrees.  The kernel reduces max(Delta_k, off[k]) during Step 1
/// and reports the first bit attaining the minimum (SearchState's masked
/// scan), so the walk reads no Delta itself.  A differing bit's Delta can
/// itself be D's highest (exactly INT16_MAX at int16); then the masked
/// minimum cannot tell it from an agreeing bit, every differing bit ties
/// at that value, and the first differing bit is the pick.  The walk
/// counts the differing bits instead of treating that minimum as
/// "X == target".
template <class D>
std::uint64_t walk(SearchState& state, const BitVector& target) {
  constexpr D kDiffer = std::numeric_limits<D>::min();
  constexpr D kAgree = std::numeric_limits<D>::max();
  const std::size_t n = state.size();
  const std::uint64_t* t = target.words();
  const std::uint64_t* x = state.solution().words();
  std::vector<D> off(n);
  std::uint64_t remaining = 0;
  for (std::size_t base = 0; base < n; base += 64) {
    const std::uint64_t m = x[base / 64] ^ t[base / 64];
    remaining += static_cast<std::uint64_t>(std::popcount(m));
    const std::size_t len = std::min<std::size_t>(64, n - base);
    for (std::size_t b = 0; b < len; ++b) {
      off[base + b] = (m >> b) & 1 ? kDiffer : kAgree;
    }
  }

  std::uint64_t flips = 0;
  const std::span<const D> mask(off);
  MaskedScan s = state.scan(mask);  // Step 1 + the first Step-2 pick
  for (; remaining > 0; --remaining) {
    VarIndex arg = s.masked_arg;
    if (s.masked_min == kAgree) {
      x = state.solution().words();
      std::size_t w = 0;
      while (x[w] == t[w]) ++w;
      arg = static_cast<VarIndex>(w * 64 + std::countr_zero(x[w] ^ t[w]));
    }
    DABS_ASSERT(state.solution().get(arg) != target.get(arg));
    off[arg] = kAgree;
    s = state.flip_and_scan(arg, mask);  // Step 3 fused with the next Step 1
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
  return state.deltas().visit([&](auto delta) {
    return walk<typename decltype(delta)::value_type>(state, target);
  });
}

}  // namespace dabs
