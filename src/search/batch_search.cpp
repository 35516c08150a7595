#include "search/batch_search.hpp"

#include <algorithm>

#include "search/greedy.hpp"
#include "search/straight.hpp"
#include "util/assert.hpp"

namespace dabs {

BatchSearch::BatchSearch(const QuboModel& model, const BatchParams& params,
                         std::uint64_t seed)
    : state_(model),
      params_(params),
      rng_(seed),
      tabu_(model.size(), params.tabu_tenure) {
  DABS_CHECK(params.search_flip_factor > 0, "search flip factor must be > 0");
  DABS_CHECK(params.batch_flip_factor > 0, "batch flip factor must be > 0");
  for (std::size_t i = 0; i < kMainSearchCount; ++i) {
    algos_[i] = make_search_algorithm(static_cast<MainSearch>(i));
  }
}

BatchResult BatchSearch::run(const BitVector& target, MainSearch algo,
                             const std::atomic<bool>* cancel) {
  const auto n = state_.size();
  const std::uint64_t start_flips = state_.flip_count();
  const auto budget = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(params_.batch_flip_factor * double(n)));
  const auto main_iters = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(params_.search_flip_factor * double(n)));

  auto spent = [&] { return state_.flip_count() - start_flips; };
  const auto cancelled = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  };

  state_.reset_best();  // the batch reports the best found *in this batch*
  straight_walk(state_, target);
  SearchAlgorithm& main = *algos_[static_cast<std::size_t>(algo)];

  // Budget discipline: the walk is unconditional (it must reach the
  // target) and greedy phases always run to a local minimum (they
  // terminate — every flip strictly improves E — and the batch invariant
  // is that it ends greedy-polished).  Main-search phases, however, are
  // clamped to the flips remaining: without the clamp a batch one flip
  // short of its budget would still spend a full s*n main stride (or, for
  // TwoNeighbor, ignore the budget outright with its 2n-1 ripple).
  const auto remaining = [&]() -> std::uint64_t {
    const std::uint64_t s = spent();
    return s >= budget ? 0 : budget - s;
  };

  if (algo == MainSearch::kTwoNeighbor) {
    // Repeating the deterministic ripple is pointless (paper §III-B), so the
    // batch is straight -> greedy -> TwoNeighbor -> greedy.
    greedy_descent(state_);
    if (const std::uint64_t left = remaining(); left > 0 && !cancelled()) {
      main.run(state_, rng_, &tabu_, left);
    }
    greedy_descent(state_);
  } else {
    for (;;) {
      if (cancelled()) break;
      greedy_descent(state_);
      if (spent() >= budget || cancelled()) break;
      main.run(state_, rng_, &tabu_, std::min(main_iters, remaining()));
    }
  }
  return {state_.best(), state_.best_energy(), spent()};
}

}  // namespace dabs
