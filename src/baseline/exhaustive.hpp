// Exact solver by Gray-code enumeration: successive solutions differ in one
// bit, so the incremental machinery evaluates all 2^n vectors at O(deg) per
// step.  Practical to ~n = 26; the tests use it as ground truth for the
// problem reductions and the heuristic solvers, and SubQuboSolver uses it
// for its exact sub-solves.
#pragma once

#include <cstddef>

#include "core/solve_report.hpp"
#include "core/solver.hpp"
#include "qubo/qubo_model.hpp"

namespace dabs {

class ExhaustiveSolver : public Solver {
 public:
  /// Refuses models with more than `max_bits` variables (guard against
  /// accidental 2^2000 enumerations).
  explicit ExhaustiveSolver(std::size_t max_bits = 26) : max_bits_(max_bits) {}

  /// An exact enumerator ignores seeds and warm starts; a time limit,
  /// work budget, or fired stop token ends the run early with the
  /// best-so-far (the report's `cancelled`/partial flips say so).  The
  /// stop protocol is polled every 8192 steps.
  SolveReport solve(const SolveRequest& request) override;

  std::string_view name() const noexcept override { return "exhaustive"; }

 private:
  SolveReport run(const QuboModel& model, const StopContext& ctx) const;

  std::size_t max_bits_;
};

}  // namespace dabs
