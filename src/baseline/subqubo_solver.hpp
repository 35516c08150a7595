// SubQUBO hybrid comparator (Atobe, Tawada, Togawa [37] — the solver the
// paper reports failing to find optimal tai20a/tho30 solutions):
// iteratively pick a subset of variables, clamp the rest at the incumbent,
// solve the induced sub-QUBO *exactly*, and accept the (never-worse)
// result.  Subsets are sampled randomly with a bias toward variables whose
// Delta is small (most likely to participate in an improvement).
#pragma once

#include <cstdint>

#include "core/solve_report.hpp"
#include "core/solver.hpp"
#include "qubo/qubo_model.hpp"

namespace dabs {

struct SubQuboParams {
  std::uint32_t subset_size = 16;   // exact-solve width (<= 26)
  std::uint64_t iterations = 200;   // clamp/solve/accept rounds
  std::uint64_t restarts = 1;       // independent incumbent restarts
  std::uint64_t seed = 1;
  double time_limit_seconds = 0.0;  // 0 = no limit
};

class SubQuboSolver : public Solver {
 public:
  explicit SubQuboSolver(SubQuboParams params = {});

  /// Request stop/seed/warm-start/observer win over the params; restart r's
  /// incumbent is warm_start[r] when provided.
  SolveReport solve(const SolveRequest& request) override;

  std::string_view name() const noexcept override { return "subqubo"; }

 private:
  SolveReport run(const QuboModel& model, std::uint64_t seed,
                  const std::vector<BitVector>& warm_start,
                  StopContext& ctx) const;

  SubQuboParams params_;
};

}  // namespace dabs
