#include "search/straight.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace dabs {

namespace {

/// Order-preserving map from Delta to unsigned; the largest Delta maps
/// to ~0.
std::uint64_t key(Energy d) {
  return static_cast<std::uint64_t>(d) ^ (std::uint64_t{1} << 63);
}

}  // namespace

std::uint64_t straight_walk(SearchState& state, const BitVector& target) {
  DABS_CHECK(target.size() == state.size(), "target length mismatch");
  const std::size_t n = state.size();
  // The candidate mask is x ^ target word by word, which is exact only
  // while the target's bits past size() are zero.
  DABS_ASSERT(n % 64 == 0 ||
              (target.words()[target.word_count() - 1] >> (n % 64)) == 0);
  const std::uint64_t* t = target.words();
  const std::span<const Energy> delta = state.deltas();
  std::uint64_t flips = 0;
  state.scan();  // Step 1: BEST update over all 1-bit neighbors
  for (;;) {
    // Step 2: minimum-Delta bit among those differing from the target,
    // first occurrence.  Bits that agree with the target get key ~0, the
    // key of the largest Delta, which the scalar rule never picks either;
    // so no key below ~0 means X == target.
    const std::uint64_t* x = state.solution().words();
    std::uint64_t best_key = ~std::uint64_t{0};
    std::size_t best_base = 0;
    for (std::size_t base = 0; base < n; base += 64) {
      const std::uint64_t m = x[base / 64] ^ t[base / 64];
      if (m == 0) continue;
      const std::size_t len = std::min<std::size_t>(64, n - base);
      std::uint64_t word_key = ~std::uint64_t{0};
      for (std::size_t b = 0; b < len; ++b) {
        const std::uint64_t off = ((m >> b) & 1) - 1;  // 0 if differing
        word_key = std::min(word_key, key(delta[base + b]) | off);
      }
      if (word_key < best_key) {
        best_key = word_key;
        best_base = base;
      }
    }
    if (best_key == ~std::uint64_t{0}) break;  // X == target
    std::uint64_t m = x[best_base / 64] ^ t[best_base / 64];
    while (key(delta[best_base + std::countr_zero(m)]) != best_key) {
      m &= m - 1;
    }
    const auto diff_arg =
        static_cast<VarIndex>(best_base + std::countr_zero(m));
    state.flip_and_scan(diff_arg);  // Step 3 fused with the next Step 1
    ++flips;
  }
  return flips;
}

}  // namespace dabs
