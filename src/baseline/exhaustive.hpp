// Exact solver by Gray-code enumeration: successive solutions differ in one
// bit, so the incremental machinery evaluates all 2^n vectors at O(deg) per
// step.  Practical to ~n = 26; the tests use it as ground truth for the
// problem reductions and the heuristic solvers.
//
// With `threads` > 1 the search space is partitioned by fixing the top
// log2(threads) bits per worker, each enumerating its 2^{n-p} suffix block
// independently — the scheme of the authors' work-time-optimal parallel
// exhaustive search (paper reference [8]).
#pragma once

#include <atomic>
#include <cstdint>

#include "core/solve_report.hpp"
#include "core/solver.hpp"
#include "qubo/qubo_model.hpp"

namespace dabs {

class ExhaustiveSolver : public Solver {
 public:
  /// Refuses models with more than `max_bits` variables (guard against
  /// accidental 2^2000 enumerations).  `threads` is rounded down to a
  /// power of two and capped at 2^{n-1}.
  explicit ExhaustiveSolver(std::size_t max_bits = 26,
                            std::uint32_t threads = 1)
      : max_bits_(max_bits), threads_(threads == 0 ? 1 : threads) {}

  /// An exact enumerator ignores seeds and warm starts; a time limit,
  /// work budget, or fired stop token ends the run early with the
  /// best-so-far (the report's `cancelled`/partial flips say so).  Workers
  /// poll the stop protocol every 8192 steps.
  SolveReport solve(const SolveRequest& request) override;

  std::string_view name() const noexcept override { return "exhaustive"; }

 private:
  /// Workers use the thread-safe polling subset of `ctx` plus the shared
  /// `work_done` step counter only.
  SolveReport solve_block(const QuboModel& model, std::uint64_t prefix,
                          std::size_t prefix_bits, const StopContext& ctx,
                          std::atomic<std::uint64_t>& work_done) const;
  SolveReport run(const QuboModel& model, const StopContext& ctx) const;

  std::size_t max_bits_;
  std::uint32_t threads_;
};

}  // namespace dabs
