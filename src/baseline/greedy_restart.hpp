// Multistart greedy descent comparator: random start -> greedy to a local
// minimum, repeated.  The weakest sensible baseline; useful for showing the
// value of everything above plain descent.
#pragma once

#include <cstdint>

#include "core/solve_report.hpp"
#include "core/solver.hpp"
#include "qubo/qubo_model.hpp"

namespace dabs {

struct GreedyRestartParams {
  std::uint64_t restarts = 100;
  std::uint64_t seed = 1;
  double time_limit_seconds = 0.0;  // 0 = no limit
};

class GreedyRestart : public Solver {
 public:
  explicit GreedyRestart(GreedyRestartParams params = {});

  /// Request stop/seed/warm-start/observer win over the params; restart r
  /// descends from warm_start[r] when provided.
  SolveReport solve(const SolveRequest& request) override;

  std::string_view name() const noexcept override { return "greedy-restart"; }

 private:
  SolveReport run(const QuboModel& model, std::uint64_t seed,
                  const std::vector<BitVector>& warm_start,
                  StopContext& ctx) const;

  GreedyRestartParams params_;
};

}  // namespace dabs
