// Batch search (paper §III-B): the unit of work a device block executes for
// one host packet.
//
//   1. Straight-walk the block's persistent solution X to the target D
//      (unconditional — the walk must reach the target even when it alone
//      exceeds the budget).
//   2. Repeat { Greedy to a local minimum; if total flips >= b*n stop;
//               run the selected main search for min(s*n, remaining)
//               flips }.  TwoNeighbor is special-cased: it runs exactly
//      once, bracketed by Greedy phases, its 2n-1 ripple truncated to the
//      remaining budget.  Main phases never overdraw the budget; only the
//      walk and the terminal greedy polish can overshoot it, so a batch
//      always ends at a 1-flip local minimum.
//   3. Report BEST / E(BEST) accumulated by the Step-1 scans.
//
// The SearchState (and CyclicMin window position) persists across batches,
// exactly like a CUDA block whose registers survive between kernel work
// items; the first batch starts from the zero vector.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "qubo/qubo_model.hpp"
#include "qubo/search_state.hpp"
#include "rng/xorshift.hpp"
#include "search/registry.hpp"
#include "search/tabu_list.hpp"
#include "util/bit_vector.hpp"

namespace dabs {

struct BatchParams {
  double search_flip_factor = 0.1;  // s: main search runs s*n flips
  double batch_flip_factor = 1.0;   // b: batch ends once >= b*n total flips
  std::uint32_t tabu_tenure = 8;    // 0 disables the tabu rule
};

struct BatchResult {
  BitVector best;
  Energy best_energy;
  std::uint64_t flips;  // flips spent in this batch
};

class BatchSearch {
 public:
  BatchSearch(const QuboModel& model, const BatchParams& params,
              std::uint64_t seed);

  /// Executes one batch toward `target` with the given main search.  When
  /// `cancel` is set the batch returns early, between phases, once it
  /// reads true; such a result is not a finished batch and the block's
  /// persistent state is then mid-batch, so it is for dropping only.
  BatchResult run(const BitVector& target, MainSearch algo,
                  const std::atomic<bool>* cancel = nullptr);

  /// Current (persistent) walking solution — exposed for tests.
  const SearchState& state() const noexcept { return state_; }

  const BatchParams& params() const noexcept { return params_; }

 private:
  SearchState state_;
  BatchParams params_;
  Rng rng_;
  TabuList tabu_;
  // One long-lived instance per algorithm so CyclicMin's window position
  // persists across batches.
  std::array<std::unique_ptr<SearchAlgorithm>, kMainSearchCount> algos_;
};

}  // namespace dabs
