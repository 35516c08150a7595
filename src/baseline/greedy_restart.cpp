#include "baseline/greedy_restart.hpp"

#include "evolve/genetic_ops.hpp"
#include "qubo/search_state.hpp"
#include "search/greedy.hpp"
#include "util/assert.hpp"

namespace dabs {

GreedyRestart::GreedyRestart(GreedyRestartParams params) : params_(params) {
  DABS_CHECK(params_.restarts > 0, "at least one restart");
}

SolveReport GreedyRestart::solve(const SolveRequest& request) {
  const QuboModel& model = request_model(request);
  StopContext ctx =
      StopContext::for_request(request, params_.time_limit_seconds);
  SolveReport report = run(model, request.seed.value_or(params_.seed),
                           request.warm_start, ctx);
  report.solver = name();
  ctx.stamp(report);
  return report;
}

SolveReport GreedyRestart::run(const QuboModel& model, std::uint64_t seed,
                               const std::vector<BitVector>& warm_start,
                               StopContext& ctx) const {
  Rng rng(seed);
  SearchState state(model);
  SolveReport result;

  for (std::uint64_t r = 0; r < params_.restarts; ++r) {
    state.reset_to(r < warm_start.size()
                       ? warm_start[r]
                       : random_bit_vector(model.size(), rng));
    greedy_descent(state);
    ctx.add_work(state.flip_count());
    if (state.best_energy() < result.best_energy) {
      result.best_energy = state.best_energy();
      result.best_solution = state.best();
      ctx.note_best(result.best_energy);
    }
    result.flips += state.flip_count();
    if (ctx.should_stop()) break;
  }
  return result;
}

}  // namespace dabs
