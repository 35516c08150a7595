#include "baseline/exhaustive.hpp"

#include <bit>
#include <cstdint>
#include <utility>

#include "qubo/search_state.hpp"
#include "util/assert.hpp"

namespace dabs {

SolveReport ExhaustiveSolver::run(const QuboModel& model,
                                  const StopContext& ctx) const {
  const std::size_t n = model.size();
  DABS_CHECK(n <= max_bits_, "model too large for exhaustive enumeration");

  SearchState state(model);  // starts at the all-zero vector
  BitVector best = state.solution();
  Energy best_e = state.energy();
  const std::uint64_t total = std::uint64_t{1} << n;
  // A StopCondition work budget counts enumeration steps; like the clock,
  // it is checked once per 8192-step stride.
  const std::uint64_t work_budget = ctx.condition().max_batches;
  for (std::uint64_t s = 1; s < total; ++s) {
    if ((s & 8191) == 0) {
      if (ctx.expired()) break;
      if (work_budget != 0 && s >= work_budget) break;
    }
    state.flip(static_cast<VarIndex>(std::countr_zero(s)));
    if (state.energy() < best_e) {
      best_e = state.energy();
      best = state.solution();
    }
  }
  SolveReport out;
  out.best_solution = std::move(best);
  out.best_energy = best_e;
  out.flips = state.flip_count();
  return out;
}

SolveReport ExhaustiveSolver::solve(const SolveRequest& request) {
  const QuboModel& model = request_model(request);
  StopContext ctx = StopContext::for_request(request);
  SolveReport report = run(model, ctx);
  ctx.add_work(report.flips);
  ctx.note_best(report.best_energy);
  (void)ctx.should_stop();  // latch cancellation for the report
  report.solver = name();
  ctx.stamp(report);
  return report;
}

}  // namespace dabs
