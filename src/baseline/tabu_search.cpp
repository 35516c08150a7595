#include "baseline/tabu_search.hpp"

#include <limits>

#include "evolve/genetic_ops.hpp"
#include "qubo/search_state.hpp"
#include "search/tabu_list.hpp"
#include "util/assert.hpp"

namespace dabs {

TabuSearch::TabuSearch(TabuSearchParams params) : params_(params) {
  DABS_CHECK(params_.iterations > 0, "at least one iteration");
}

SolveReport TabuSearch::solve(const SolveRequest& request) {
  const QuboModel& model = request_model(request);
  StopContext ctx =
      StopContext::for_request(request, params_.time_limit_seconds);
  SolveReport report = run(model, request.seed.value_or(params_.seed),
                           request.warm_start, ctx);
  report.solver = name();
  ctx.stamp(report);
  return report;
}

SolveReport TabuSearch::run(const QuboModel& model, std::uint64_t seed,
                            const std::vector<BitVector>& warm_start,
                            StopContext& ctx) const {
  Rng rng(seed);
  SearchState state(model);
  state.reset_to(warm_start.empty() ? random_bit_vector(model.size(), rng)
                                    : warm_start.front());
  TabuList tabu(model.size(), params_.tenure);
  const auto n = static_cast<VarIndex>(model.size());
  Energy best_seen = kInfiniteEnergy;

  // StopContext is polled every iteration: one iteration scans all n
  // deltas, so the clock read is noise and the run honors tight budgets
  // at the same granularity as the other baselines (no 256-step stride).
  for (std::uint64_t it = 0; it < params_.iterations && !ctx.should_stop();
       ++it) {
    const std::uint64_t now = state.flip_count();
    Energy best_d = std::numeric_limits<Energy>::max();
    VarIndex pick = n;
    for (VarIndex k = 0; k < n; ++k) {
      const Energy d = state.delta(k);
      const bool aspiration =
          state.energy() + d < state.best_energy();
      if (!aspiration && !tabu.allowed(k, now)) continue;
      if (d < best_d) {
        best_d = d;
        pick = k;
      }
    }
    if (pick == n) pick = static_cast<VarIndex>(rng.next_index(n));
    state.scan();  // keep BEST in sync with 1-bit neighborhoods
    tabu.record(pick, now + 1);
    state.flip(pick);
    ctx.add_work(1);
    if (state.best_energy() < best_seen) {
      best_seen = state.best_energy();
      ctx.note_best(best_seen);
    }
  }

  SolveReport result;
  result.best_solution = state.best();
  result.best_energy = state.best_energy();
  result.flips = state.flip_count();
  return result;
}

}  // namespace dabs
