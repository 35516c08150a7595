#include "baseline/path_relinking.hpp"

#include <algorithm>
#include <vector>

#include "evolve/genetic_ops.hpp"
#include "qubo/search_state.hpp"
#include "search/greedy.hpp"
#include "search/straight.hpp"
#include "util/assert.hpp"

namespace dabs {

PathRelinking::PathRelinking(PathRelinkingParams params) : params_(params) {
  DABS_CHECK(params_.elite_size >= 2, "relinking needs at least two elites");
  DABS_CHECK(params_.relinks > 0, "at least one relink");
}

SolveReport PathRelinking::solve(const SolveRequest& request) {
  const QuboModel& model = request_model(request);
  StopContext ctx =
      StopContext::for_request(request, params_.time_limit_seconds);
  SolveReport report = run(model, request.seed.value_or(params_.seed),
                           request.warm_start, ctx);
  report.solver = name();
  ctx.stamp(report);
  return report;
}

SolveReport PathRelinking::run(const QuboModel& model, std::uint64_t seed,
                               const std::vector<BitVector>& warm_start,
                               StopContext& ctx) const {
  Rng rng(seed);
  SearchState state(model);
  SolveReport result;

  auto consider = [&](const BitVector& x, Energy e) {
    if (e < result.best_energy) {
      result.best_energy = e;
      result.best_solution = x;
      ctx.note_best(e);
    }
  };

  // Phase 1: build the elite set from greedy multistart (warm starts are
  // polished into elites first, then random starts fill the remainder).
  // The first descent always runs so even a pre-fired stop token yields a
  // valid best solution.
  std::vector<std::pair<BitVector, Energy>> elite;
  for (std::uint64_t r = 0;
       r < params_.elite_size && (r == 0 || !ctx.should_stop()); ++r) {
    state.reset_to(r < warm_start.size()
                       ? warm_start[r]
                       : random_bit_vector(model.size(), rng));
    greedy_descent(state);
    ctx.add_work(state.flip_count());
    elite.emplace_back(state.best(), state.best_energy());
    consider(state.best(), state.best_energy());
    result.flips += state.flip_count();
  }
  if (elite.size() < 2) return result;

  // Phase 2: relink random elite pairs; polish the path's best point.
  for (std::uint64_t r = 0; r < params_.relinks && !ctx.should_stop(); ++r) {
    const std::size_t a = rng.next_index(elite.size());
    std::size_t b = rng.next_index(elite.size() - 1);
    if (b >= a) ++b;
    state.reset_to(elite[a].first);
    straight_walk(state, elite[b].first);  // BEST tracks the whole path
    state.reset_to(state.best());
    greedy_descent(state);
    ctx.add_work(state.flip_count());
    consider(state.best(), state.best_energy());
    result.flips += state.flip_count();

    // Replace the worst elite when the polished point improves on it.
    auto worst = std::max_element(
        elite.begin(), elite.end(),
        [](const auto& x, const auto& y) { return x.second < y.second; });
    if (state.best_energy() < worst->second) {
      *worst = {state.best(), state.best_energy()};
    }
  }
  return result;
}

}  // namespace dabs
