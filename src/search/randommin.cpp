#include "search/randommin.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

#include "qubo/candidate_mask.hpp"
#include "rng/draw_lanes.hpp"

namespace dabs {

namespace {

/// min over the candidate bits c of one word of Delta, D's highest value
/// when c selects none.  A full word runs in vectors of kLanes elements:
/// lane l of chunk q stands for bit q kLanes + l.  Multiplying the
/// broadcast chunk by 2^(width - 1 - l) moves lane l's bit into its sign,
/// and an arithmetic shift spreads it over the lane: shifts and multiplies
/// by constants that every x86-64 target has in vector form, where a
/// per-lane compare of a two-register vector would be done lane by lane.
template <class D>
D candidate_min(const D* d, std::uint64_t c, std::size_t len) {
  constexpr D kMax = std::numeric_limits<D>::max();
  if (len < 64) {
    D m = kMax;
    for (std::size_t k = 0; k < len; ++k) {
      const auto fill = static_cast<D>(kMax ^ -static_cast<D>((c >> k) & 1));
      const D v = d[k] > fill ? d[k] : fill;
      m = v < m ? v : m;
    }
    return m;
  }
  // 16 lanes at int16 (one bit per lane fits the lane), 8 at int64.
  constexpr std::size_t kLanes = std::min<std::size_t>(16, 64 / sizeof(D));
  constexpr int kSignBit = std::numeric_limits<D>::digits;
  using U = std::make_unsigned_t<D>;
  typedef D Vec __attribute__((vector_size(kLanes * sizeof(D))));
  typedef U UVec __attribute__((vector_size(kLanes * sizeof(D))));
  UVec to_sign;
  for (std::size_t l = 0; l < kLanes; ++l) {
    to_sign[l] = static_cast<U>(U{1} << (kSignBit - static_cast<int>(l)));
  }
  const Vec top = Vec{} + kMax;
  Vec m = top;
  for (std::size_t q = 0; q < 64 / kLanes; ++q) {
    Vec v;
    std::memcpy(&v, d + q * kLanes, sizeof v);
    const U bits = static_cast<U>(c >> (q * kLanes));
    const UVec chunk = UVec{} + bits;  // broadcast
    // -1 on candidates, 0 elsewhere; then D's lowest on candidates and its
    // highest elsewhere, so max(v, fill) keeps only candidate Deltas low.
    const Vec sel = reinterpret_cast<Vec>(chunk * to_sign) >> kSignBit;
    const Vec fill = top ^ sel;
    v = v > fill ? v : fill;
    m = v < m ? v : m;
  }
  D r = m[0];
  for (std::size_t l = 1; l < kLanes; ++l) r = m[l] < r ? m[l] : r;
  return r;
}

/// First-occurrence argmin of Delta over the candidate bits, word by word;
/// n when none is left.  A word's minimum cannot tell a candidate at D's
/// highest value from a non-candidate, so the first word with candidates
/// wins ties at that value: then every candidate is at it, and the first
/// candidate is the first occurrence.
template <class D>
VarIndex candidate_argmin(std::span<const D> delta,
                          const std::uint64_t* cand) {
  const std::size_t n = delta.size();
  const std::size_t words = (n + 63) / 64;
  D best = std::numeric_limits<D>::max();
  std::size_t best_w = words;
  for (std::size_t w = 0; w < words; ++w) {
    if (cand[w] == 0) continue;
    const D* d = delta.data() + w * 64;
    const std::size_t len = std::min<std::size_t>(64, n - w * 64);
    const D m = candidate_min(d, cand[w], len);
    if (best_w == words || m < best) {
      best = m;
      best_w = w;
    }
  }
  if (best_w == words) return static_cast<VarIndex>(n);
  const std::size_t base = best_w * 64;
  const std::uint64_t eq =
      compare_mask<Compare::kEqual>(delta.data() + base,
                                    std::min<std::size_t>(64, n - base),
                                    best) &
      cand[best_w];
  return static_cast<VarIndex>(base + std::countr_zero(eq));
}

template <class D>
void run_at(SearchState& state, Rng& rng, TabuList* tabu, std::uint64_t T,
            std::uint32_t min_candidates, const XorshiftJump& jump,
            std::uint64_t* cand, std::span<const D> delta) {
  const auto n = static_cast<VarIndex>(state.size());
  ScanResult s = state.scan();  // Step 1; fused into flip_and_scan below
  for (std::uint64_t t = 1; t <= T; ++t) {
    const double frac = double(t) / double(T);
    const double p =
        std::max(frac * frac * frac, double(min_candidates) / double(n));
    // next_bernoulli(p) is next_unit() < p with next_unit() = (u >> 11)
    // * 2^-53, so it holds exactly when (u >> 11) < ceil(p * 2^53); p >= 1
    // accepts every draw either way.
    const auto threshold =
        static_cast<std::uint64_t>(std::ceil(std::min(p, 1.0) * 0x1p53));
    draw_candidates(rng, jump, n, threshold, cand);

    // Dropping a tabu argmin and selecting again yields the first-occurrence
    // argmin over the allowed candidates.
    const std::uint64_t now = state.flip_count();
    VarIndex pick = candidate_argmin(delta, cand);
    while (pick != n && tabu && !tabu->allowed(pick, now)) {
      cand[pick / 64] &= ~(std::uint64_t{1} << (pick % 64));
      pick = candidate_argmin(delta, cand);
    }
    if (pick == n) {
      // No candidate drawn (or all tabu): fall back to the global argmin so
      // the iteration still flips exactly one bit.
      pick = s.argmin;
    }
    if (tabu) tabu->record(pick, now + 1);
    s = state.flip_and_scan(pick);  // Step 3 fused with the next Step 1
  }
}

}  // namespace

void RandomMinSearch::run(SearchState& state, Rng& rng, TabuList* tabu,
                          std::uint64_t iterations) {
  if (iterations == 0 || state.size() == 0) return;
  const std::size_t lane_len = lane_length(state.size());
  if (!lane_jump_ || lane_jump_->steps() != lane_len) {
    lane_jump_ = std::make_unique<const XorshiftJump>(lane_len);
    candidates_.assign(kDrawLanes * lane_len / 64, 0);
  }
  state.deltas().visit([&](auto delta) {
    run_at(state, rng, tabu, iterations, min_candidates_, *lane_jump_,
           candidates_.data(), delta);
  });
}

}  // namespace dabs
