#include "baseline/subqubo_solver.hpp"

#include <algorithm>
#include <numeric>

#include "baseline/exhaustive.hpp"
#include "evolve/genetic_ops.hpp"
#include "qubo/search_state.hpp"
#include "qubo/transforms.hpp"
#include "rng/seeder.hpp"
#include "util/assert.hpp"

namespace dabs {

SubQuboSolver::SubQuboSolver(SubQuboParams params) : params_(params) {
  DABS_CHECK(params_.subset_size >= 2 && params_.subset_size <= 26,
             "subset size must be in [2, 26] for exact solving");
  DABS_CHECK(params_.iterations > 0, "at least one iteration");
  DABS_CHECK(params_.restarts > 0, "at least one restart");
}

namespace {

/// Samples `k` distinct indices, biased toward small Delta (rank-weighted:
/// take the k smallest among 2k uniformly drawn candidates).
std::vector<VarIndex> biased_subset(const SearchState& state, std::size_t k,
                                    Rng& rng) {
  const auto n = static_cast<VarIndex>(state.size());
  std::vector<VarIndex> cand;
  cand.reserve(2 * k);
  std::vector<bool> taken(n, false);
  while (cand.size() < std::min<std::size_t>(2 * k, n)) {
    const auto v = static_cast<VarIndex>(rng.next_index(n));
    if (!taken[v]) {
      taken[v] = true;
      cand.push_back(v);
    }
  }
  std::sort(cand.begin(), cand.end(), [&](VarIndex a, VarIndex b) {
    return state.delta(a) < state.delta(b);
  });
  cand.resize(std::min<std::size_t>(k, cand.size()));
  return cand;
}

}  // namespace

SolveReport SubQuboSolver::solve(const SolveRequest& request) {
  const QuboModel& model = request_model(request);
  StopContext ctx =
      StopContext::for_request(request, params_.time_limit_seconds);
  SolveReport report = run(model, request.seed.value_or(params_.seed),
                           request.warm_start, ctx);
  report.solver = name();
  ctx.stamp(report);
  return report;
}

SolveReport SubQuboSolver::run(const QuboModel& model, std::uint64_t seed,
                               const std::vector<BitVector>& warm_start,
                               StopContext& ctx) const {
  MersenneSeeder seeder(seed);
  const std::size_t k =
      std::min<std::size_t>(params_.subset_size, model.size());
  ExhaustiveSolver exact(26);

  SolveReport result;
  for (std::uint64_t r = 0; r < params_.restarts; ++r) {
    Rng rng = seeder.next_rng();
    SearchState state(model);
    state.reset_to(r < warm_start.size()
                       ? warm_start[r]
                       : random_bit_vector(model.size(), rng));

    for (std::uint64_t it = 0; it < params_.iterations; ++it) {
      if (ctx.should_stop()) break;
      const std::vector<VarIndex> subset = biased_subset(state, k, rng);
      const SubQubo sub = extract_subqubo(model, state.solution(), subset);
      SolveRequest sub_request;
      sub_request.model = &sub.model;
      const SolveReport best_sub = exact.solve(sub_request);
      const Energy candidate = best_sub.best_energy + sub.offset;
      if (candidate < state.energy()) {
        state.reset_to(
            apply_subsolution(state.solution(), sub, best_sub.best_solution));
      }
      result.flips += best_sub.flips;
      ctx.add_work(best_sub.flips);
      if (state.best_energy() < result.best_energy) {
        result.best_energy = state.best_energy();
        result.best_solution = state.best();
        ctx.note_best(result.best_energy);
      }
    }
    if (state.best_energy() < result.best_energy) {
      result.best_energy = state.best_energy();
      result.best_solution = state.best();
      ctx.note_best(result.best_energy);
    }
    if (ctx.should_stop()) break;
  }
  return result;
}

}  // namespace dabs
