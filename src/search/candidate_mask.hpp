// Word-at-a-time Step 2 (paper §III-A): the selection rules of MaxMin,
// PositiveMin and RandomMin, split into two phases per 64-variable word.
//
//   (a) pack_word: a branch-free pass that turns a per-bit predicate into
//       one 64-bit candidate mask, which the compiler can vectorise;
//   (b) for_each_candidate: visits the set bits in ascending index order
//       with std::countr_zero, so only the serial work (tabu checks, RNG
//       draws, first-occurrence argmin) runs per candidate.
//
// Because candidates are visited in ascending order, every RNG draw
// happens in the same order as a plain per-bit loop would make it.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "qubo/types.hpp"

namespace dabs {

/// Packs pred(base + b) for b in [0, len), len <= 64, into bit b of one
/// word.  pred is evaluated for every index in ascending order.
template <class Pred>
inline std::uint64_t pack_word(std::size_t base, std::size_t len, Pred pred) {
  std::uint64_t m = 0;
  for (std::size_t b = 0; b < len; ++b) {
    m |= std::uint64_t{static_cast<bool>(pred(base + b))} << b;
  }
  return m;
}

/// For each word of n variables, builds its mask with mask_of(base, len)
/// and then calls visit(k) for every set bit k in ascending order.
template <class MaskOf, class Visit>
inline void for_each_candidate(std::size_t n, MaskOf mask_of, Visit visit) {
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t len = std::min<std::size_t>(64, n - base);
    for (std::uint64_t m = mask_of(base, len); m != 0; m &= m - 1) {
      visit(static_cast<VarIndex>(base + std::countr_zero(m)));
    }
  }
}

}  // namespace dabs
