// Simulated annealing comparator on the incremental QUBO machinery.
// Standard single-spin Metropolis sweeps with a geometric temperature
// schedule; the initial temperature defaults to the mean |Delta| of a
// random start so early sweeps accept most moves.
//
// Serves as the repo's stand-in for the external reference solvers in the
// paper's tables (see README "Substitutions") and generates the Fig. 6 style
// time-limited solution histograms.
#pragma once

#include <cstdint>

#include "core/solve_report.hpp"
#include "core/solver.hpp"
#include "qubo/qubo_model.hpp"

namespace dabs {

struct SaParams {
  std::uint64_t sweeps = 1000;      // Metropolis sweeps (n flips attempted each)
  double t_initial = 0.0;           // 0 = auto-calibrate from mean |Delta|
  double t_final = 0.5;
  std::uint64_t seed = 1;
  double time_limit_seconds = 0.0;  // 0 = no limit
  std::uint64_t restarts = 1;       // independent annealing runs
};

class SimulatedAnnealing : public Solver {
 public:
  explicit SimulatedAnnealing(SaParams params = {});

  /// Request stop/seed/warm-start/observer win over the params; restart r
  /// starts from warm_start[r] when provided.
  SolveReport solve(const SolveRequest& request) override;

  std::string_view name() const noexcept override { return "sa"; }

 private:
  SolveReport run(const QuboModel& model, std::uint64_t seed,
                  const std::vector<BitVector>& warm_start,
                  StopContext& ctx) const;

  SaParams params_;
};

}  // namespace dabs
