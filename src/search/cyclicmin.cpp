#include "search/cyclicmin.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

namespace dabs {

namespace {

constexpr Energy kNone = std::numeric_limits<Energy>::max();

/// A cyclic window [begin, begin + width) over n slots, split into the
/// contiguous ranges [begin, end1) and [0, end2) so no slot needs a `%`.
struct Window {
  std::size_t begin, end1, end2;
};

/// Minimum of value(k) over the window; branch-free per range.
template <class Value>
Energy window_min(const Window& w, Value value) {
  Energy m = kNone;
  for (std::size_t k = w.begin; k < w.end1; ++k) m = std::min(m, value(k));
  for (std::size_t k = 0; k < w.end2; ++k) m = std::min(m, value(k));
  return m;
}

/// First slot in window order with hit(slot); one must exist.
template <class Hit>
std::size_t window_find(const Window& w, Hit hit) {
  for (std::size_t k = w.begin; k < w.end1; ++k) {
    if (hit(k)) return k;
  }
  std::size_t k = 0;
  while (k < w.end2 && !hit(k)) ++k;
  return k;
}

}  // namespace

void CyclicMinSearch::run(SearchState& state, Rng& rng, TabuList* tabu,
                          std::uint64_t iterations) {
  const auto n = state.size();
  const std::uint64_t T = iterations;
  if (T == 0 || n == 0) return;
  pos_ %= n;  // the instance may last have run on a larger model

  if (bit_permuted_) {
    // Fresh Fisher-Yates shuffle of the cyclic order per run (ABS [16]).
    if (perm_.size() != n) {
      perm_.resize(n);
      std::iota(perm_.begin(), perm_.end(), 0);
    }
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(perm_[i], perm_[rng.next_index(i + 1)]);
    }
  }

  const std::span<const Energy> delta = state.deltas();
  const bool use_tabu = tabu && tabu->tenure() != 0;
  state.scan();  // Step 1; later iterations fuse it into flip_and_scan
  for (std::uint64_t t = 1; t <= T; ++t) {
    const double frac = double(t) / double(T);
    const auto width = std::clamp<std::size_t>(
        static_cast<std::size_t>(frac * frac * frac * double(n)),
        std::min<std::size_t>(min_window_, n), n);
    const std::size_t end1 = std::min(pos_ + width, n);
    const Window win{pos_, end1, pos_ + width - end1};

    // Minimum Delta inside the window: `pick` is the first non-tabu bit
    // in window order attaining the non-tabu minimum, `pick_any` the
    // first attaining the minimum over every bit.  at(slot) is the bit
    // in a window slot: the slot itself, or a gather through the
    // permutation.
    const std::uint64_t now = state.flip_count();
    auto allowed = [&](VarIndex k) {
      return !use_tabu || tabu->allowed(k, now);
    };
    auto select = [&](auto at) {
      // First bit in window order attaining the window minimum of
      // value(slot); kNone never qualifies, as in the scalar rule.
      auto first_min = [&](auto value) {
        const Energy m = window_min(win, value);
        if (m == kNone) return static_cast<VarIndex>(n);
        return static_cast<VarIndex>(at(
            window_find(win, [&](std::size_t s) { return value(s) == m; })));
      };
      const VarIndex any =
          first_min([&](std::size_t s) { return delta[at(s)]; });
      // The first global minimum, when not tabu, is also the first
      // non-tabu minimum; otherwise reduce again over the non-tabu bits.
      if (any == n || allowed(any)) return std::pair{any, any};
      const VarIndex free = first_min([&](std::size_t s) {
        return allowed(static_cast<VarIndex>(at(s))) ? delta[at(s)] : kNone;
      });
      return std::pair{free, any};
    };
    auto [pick, pick_any] =
        bit_permuted_
            ? select([&](std::size_t s) { return perm_[s]; })
            : select([](std::size_t s) { return s; });
    if (pick == n) pick = pick_any;  // whole window tabu: flip anyway
    if (tabu) tabu->record(pick, now + 1);
    state.flip_and_scan(pick);  // Step 3 fused with the next Step 1
    pos_ = win.end2 != 0 ? win.end2 : win.end1 % n;  // (pos_ + width) % n
  }
}

}  // namespace dabs
