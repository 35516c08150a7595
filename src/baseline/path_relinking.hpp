// Greedy-restart + path relinking comparator: an elite set of local minima
// is built by multistart greedy descent; then random elite pairs are
// relinked by walking one endpoint to the other with the Straight search,
// greedily polishing the best point found on each path.  A mid-strength
// classical baseline between GreedyRestart and full DABS.
#pragma once

#include <cstdint>

#include "core/solve_report.hpp"
#include "core/solver.hpp"
#include "qubo/qubo_model.hpp"

namespace dabs {

struct PathRelinkingParams {
  std::uint64_t elite_size = 10;
  std::uint64_t relinks = 100;
  std::uint64_t seed = 1;
  double time_limit_seconds = 0.0;  // 0 = no limit
};

class PathRelinking : public Solver {
 public:
  explicit PathRelinking(PathRelinkingParams params = {});

  /// Request stop/seed/warm-start/observer win over the params; warm starts
  /// seed the elite set (after polishing).
  SolveReport solve(const SolveRequest& request) override;

  std::string_view name() const noexcept override { return "path-relinking"; }

 private:
  SolveReport run(const QuboModel& model, std::uint64_t seed,
                  const std::vector<BitVector>& warm_start,
                  StopContext& ctx) const;

  PathRelinkingParams params_;
};

}  // namespace dabs
