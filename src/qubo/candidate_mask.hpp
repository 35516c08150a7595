// Word-at-a-time Step 1 and Step 2 (paper §III-A).  On the GPU both steps
// are warp-wide compares and ballots; here every 64-variable word of Delta
// is turned into one 64-bit mask by compare_mask, and only the serial work
// (tabu checks, reservoir draws) runs per set bit.
//
//   (a) compare_mask: bit b = (d[b] <= t) or (d[b] == t) for one word of
//       int16 or int64 Deltas, built with vector compares;
//   (b) for_each_candidate: visits the set bits of each word's mask in
//       ascending index order with std::countr_zero.
//
// Because candidates are visited in ascending order, every RNG draw
// happens in the same order as a plain per-bit loop would make it.
// Step 1's first argmin, the straight walk's pick and RandomMin's argmin
// word take equality masks from compare_mask; MaxMin's and PositiveMin's
// candidate words are its <= masks.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

#include "qubo/types.hpp"

namespace dabs {

enum class Compare { kLessEqual, kEqual };

// The bodies below depend on the target ISA of the translation unit, so
// they live in an inline namespace named after it: a test built for
// another ISA than the library links its own instantiations, not the
// library's.
#if defined(__AVX512BW__)
inline namespace mask_avx512bw {
inline constexpr const char* kCompareMaskBody = "AVX-512BW";
#elif defined(__SSE2__)
inline namespace mask_sse2 {
inline constexpr const char* kCompareMaskBody = "SSE2";
#else
inline namespace mask_scalar {
inline constexpr const char* kCompareMaskBody = "scalar";
#endif

/// Bit b of the result is d[b] <= t (kLessEqual) or d[b] == t (kEqual) for
/// b < len <= 64; the bits from len up are zero.  D is std::int16_t or
/// std::int64_t, the Delta widths; d needs no alignment.  A full word of
/// int16 is two AVX-512BW mask compares where the build targets them, else
/// on x86-64 eight SSE2 compares (pcmpgtw/pcmpeqw, packsswb, pmovmskb).
/// int64 runs the scalar loop: every benchmarked model has int16 Deltas.
/// A shorter word always runs the scalar loop, so no load reads past
/// d + len.
template <Compare C, class D>
inline std::uint64_t compare_mask(const D* d, std::size_t len,
                                  std::type_identity_t<D> t) {
  static_assert(std::is_same_v<D, std::int16_t> ||
                std::is_same_v<D, std::int64_t>);
  if (len == 64) {
#if defined(__AVX512BW__)
    if constexpr (sizeof(D) == 2) {
      const __m512i tv = _mm512_set1_epi16(t);
      const __m512i lo = _mm512_loadu_si512(d);
      const __m512i hi = _mm512_loadu_si512(d + 32);
      if constexpr (C == Compare::kEqual) {
        return std::uint64_t{_mm512_cmpeq_epi16_mask(lo, tv)} |
               std::uint64_t{_mm512_cmpeq_epi16_mask(hi, tv)} << 32;
      } else {
        return std::uint64_t{_mm512_cmple_epi16_mask(lo, tv)} |
               std::uint64_t{_mm512_cmple_epi16_mask(hi, tv)} << 32;
      }
    }
#elif defined(__SSE2__)
    if constexpr (sizeof(D) == 2) {
      // 16 compares per round: two registers of 8 lanes whose all-ones or
      // zero lanes saturate to bytes, one bit per byte after pmovmskb.
      // <= is the complement of pcmpgtw's >.
      const __m128i tv = _mm_set1_epi16(t);
      std::uint64_t m = 0;
      for (std::size_t q = 0; q < 4; ++q) {
        const __m128i a = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(d + 16 * q));
        const __m128i b = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(d + 16 * q + 8));
        const __m128i packed =
            C == Compare::kEqual
                ? _mm_packs_epi16(_mm_cmpeq_epi16(a, tv),
                                  _mm_cmpeq_epi16(b, tv))
                : _mm_packs_epi16(_mm_cmpgt_epi16(a, tv),
                                  _mm_cmpgt_epi16(b, tv));
        const auto bits =
            static_cast<std::uint16_t>(_mm_movemask_epi8(packed));
        m |= std::uint64_t{bits} << (16 * q);
      }
      return C == Compare::kEqual ? m : ~m;
    }
#endif
  }
  std::uint64_t m = 0;
  for (std::size_t b = 0; b < len; ++b) {
    const bool hit = C == Compare::kEqual ? d[b] == t : d[b] <= t;
    m |= std::uint64_t{hit} << b;
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

}  // inline namespace
}  // namespace dabs
