// Classic best-improvement tabu search comparator: every iteration flips
// the minimum-Delta non-tabu bit (aspiration: a tabu bit may be flipped when
// it would yield a new global best).  A deliberately conventional contrast
// to DABS's bulk/GA architecture.
#pragma once

#include <cstdint>

#include "core/solve_report.hpp"
#include "core/solver.hpp"
#include "qubo/qubo_model.hpp"

namespace dabs {

struct TabuSearchParams {
  std::uint64_t iterations = 100000;  // total flips
  std::uint32_t tenure = 16;
  std::uint64_t seed = 1;
  double time_limit_seconds = 0.0;    // 0 = no limit
};

class TabuSearch : public Solver {
 public:
  explicit TabuSearch(TabuSearchParams params = {});

  /// Request stop/seed/warm-start/observer win over the params; the walk
  /// starts from warm_start[0] when provided.
  SolveReport solve(const SolveRequest& request) override;

  std::string_view name() const noexcept override { return "tabu"; }

 private:
  SolveReport run(const QuboModel& model, std::uint64_t seed,
                  const std::vector<BitVector>& warm_start,
                  StopContext& ctx) const;

  TabuSearchParams params_;
};

}  // namespace dabs
