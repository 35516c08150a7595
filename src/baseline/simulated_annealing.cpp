#include "baseline/simulated_annealing.hpp"

#include <cmath>

#include "evolve/genetic_ops.hpp"
#include "qubo/search_state.hpp"
#include "rng/seeder.hpp"
#include "util/assert.hpp"

namespace dabs {

SimulatedAnnealing::SimulatedAnnealing(SaParams params) : params_(params) {
  DABS_CHECK(params_.sweeps > 0, "at least one sweep");
  DABS_CHECK(params_.t_final > 0, "final temperature must be positive");
  DABS_CHECK(params_.restarts > 0, "at least one restart");
}

namespace {

double calibrate_t0(const SearchState& state) {
  // Mean |Delta| at the starting point; a classic cheap T0 heuristic.
  double sum = 0.0;
  for (VarIndex k = 0; k < state.size(); ++k) {
    sum += std::abs(double(state.delta(k)));
  }
  const double mean = sum / double(state.size());
  return mean > 0 ? mean : 1.0;
}

}  // namespace

SolveReport SimulatedAnnealing::solve(const SolveRequest& request) {
  const QuboModel& model = request_model(request);
  StopContext ctx =
      StopContext::for_request(request, params_.time_limit_seconds);
  SolveReport report = run(model, request.seed.value_or(params_.seed),
                           request.warm_start, ctx);
  report.solver = name();
  ctx.stamp(report);
  return report;
}

SolveReport SimulatedAnnealing::run(const QuboModel& model, std::uint64_t seed,
                                    const std::vector<BitVector>& warm_start,
                                    StopContext& ctx) const {
  MersenneSeeder seeder(seed);
  SearchState state(model);
  SolveReport result;
  const auto n = static_cast<VarIndex>(model.size());

  // Restart 0 always runs (its first sweep at least), so even a pre-fired
  // stop token yields a valid best solution — same guarantee as the other
  // restart-style baselines.
  for (std::uint64_t r = 0;
       r < params_.restarts && (r == 0 || !ctx.should_stop()); ++r) {
    Rng rng = seeder.next_rng();
    state.reset_to(r < warm_start.size()
                       ? warm_start[r]
                       : random_bit_vector(model.size(), rng));

    const double t0 =
        params_.t_initial > 0 ? params_.t_initial : calibrate_t0(state);
    const double tf = std::min(params_.t_final, t0);
    // Geometric schedule hitting tf on the last sweep.
    const double alpha =
        params_.sweeps > 1
            ? std::pow(tf / t0, 1.0 / double(params_.sweeps - 1))
            : 1.0;

    double temp = t0;
    std::uint64_t flips_before = 0;
    for (std::uint64_t s = 0; s < params_.sweeps; ++s) {
      for (VarIndex i = 0; i < n; ++i) {
        const Energy d = state.delta(i);
        if (d <= 0 || rng.next_unit() < std::exp(-double(d) / temp)) {
          state.flip(i);
        }
      }
      temp *= alpha;
      ctx.add_work(state.flip_count() - flips_before);
      flips_before = state.flip_count();
      if (state.best_energy() < result.best_energy) {
        result.best_energy = state.best_energy();
        result.best_solution = state.best();
        ctx.note_best(result.best_energy);
      }
      if (ctx.should_stop()) break;
    }
    if (state.best_energy() < result.best_energy) {
      result.best_energy = state.best_energy();
      result.best_solution = state.best();
      ctx.note_best(result.best_energy);
    }
    result.flips += state.flip_count();
  }
  return result;
}

}  // namespace dabs
