// ABS baseline (paper [16] and §I-B): the authors' earlier Adaptive Bulk
// Search — the same bulk architecture but with a single search algorithm
// (CyclicMin), a single genetic operation (mutation after crossover), and
// no diversity-driven adaptation.  Implemented as a restricted DabsSolver
// configuration so the comparison isolates exactly the paper's claimed
// contribution: diversity + adaptivity.
#pragma once

#include "core/dabs_solver.hpp"

namespace dabs {

/// Restricts `base` to the ABS feature set (CyclicMin + MutateCrossover,
/// no exploration, no merged-ring restart).
SolverConfig make_abs_config(SolverConfig base = {});

class AbsSolver : public Solver {
 public:
  explicit AbsSolver(SolverConfig base = {})
      : inner_(make_abs_config(std::move(base))) {}

  const SolverConfig& config() const noexcept { return inner_.config(); }

  /// See DabsSolver::solve.
  SolveReport solve(const SolveRequest& request) override {
    SolveReport report = inner_.solve(request);
    report.solver = name();
    return report;
  }

  std::string_view name() const noexcept override { return "abs"; }

 private:
  DabsSolver inner_;
};

}  // namespace dabs
