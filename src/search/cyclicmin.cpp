#include "search/cyclicmin.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

namespace dabs {

namespace {

/// Marks a tabu bit in the non-tabu reduction.  That reduction runs in
/// int64 at every Delta width, and |Delta| <= delta_bound() < 2^63 - 1 for
/// any model (n < 2^32 rows of int32 weights), so no real Delta equals it.
constexpr Energy kNone = std::numeric_limits<Energy>::max();

/// A cyclic window [begin, begin + width) over n slots, split into the
/// contiguous ranges [begin, end1) and [0, end2) so no slot needs a `%`.
struct Window {
  std::size_t begin, end1, end2;
};

/// Minimum of value(k) over the (non-empty) window; branch-free per range.
template <class Value>
auto window_min(const Window& w, Value value) {
  using V = decltype(value(w.begin));
  V m = std::numeric_limits<V>::max();
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

  state.deltas().visit([&](auto delta) { run_at(state, tabu, T, delta); });
}

template <class D>
void CyclicMinSearch::run_at(SearchState& state, TabuList* tabu,
                             std::uint64_t T, std::span<const D> delta) {
  const auto n = state.size();
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
      // First bit in window order whose value(slot) equals m.
      auto first = [&](auto value, auto m) {
        return static_cast<VarIndex>(at(
            window_find(win, [&](std::size_t s) { return value(s) == m; })));
      };
      // Over every bit the reduction stays at D's width: the window is
      // never empty, so its minimum is always a real Delta.
      const auto any_value = [&](std::size_t s) { return delta[at(s)]; };
      const VarIndex any = first(any_value, window_min(win, any_value));
      // The first global minimum, when not tabu, is also the first
      // non-tabu minimum; otherwise reduce again over the non-tabu bits,
      // where kNone marks a tabu bit and never qualifies.
      if (allowed(any)) return std::pair{any, any};
      const auto free_value = [&](std::size_t s) {
        const auto k = static_cast<VarIndex>(at(s));
        return allowed(k) ? Energy{delta[k]} : kNone;
      };
      const Energy free_min = window_min(win, free_value);
      if (free_min == kNone) return std::pair{static_cast<VarIndex>(n), any};
      return std::pair{first(free_value, free_min), any};
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
