#include "baseline/exhaustive.hpp"

#include <bit>
#include <thread>
#include <utility>
#include <vector>

#include "qubo/search_state.hpp"
#include "util/assert.hpp"

namespace dabs {

SolveReport ExhaustiveSolver::solve_block(
    const QuboModel& model, std::uint64_t prefix, std::size_t prefix_bits,
    const StopContext& ctx, std::atomic<std::uint64_t>& work_done) const {
  const std::size_t n = model.size();
  const std::size_t suffix_bits = n - prefix_bits;

  // Start vector: the prefix occupies the *top* bits [suffix_bits, n).
  BitVector start(n);
  for (std::size_t b = 0; b < prefix_bits; ++b) {
    start.set(suffix_bits + b, (prefix >> b) & 1);
  }
  SearchState state(model);
  state.reset_to(start);

  BitVector best = state.solution();
  Energy best_e = state.energy();
  const std::uint64_t total = std::uint64_t{1} << suffix_bits;
  const std::uint64_t work_budget = ctx.condition().max_batches;
  for (std::uint64_t s = 1; s < total; ++s) {
    if ((s & 8191) == 0) {
      if (ctx.expired()) break;
      if (work_budget != 0 &&
          work_done.fetch_add(8192, std::memory_order_relaxed) + 8192 >=
              work_budget) {
        break;
      }
    }
    state.flip(static_cast<VarIndex>(std::countr_zero(s)));
    if (state.energy() < best_e) {
      best_e = state.energy();
      best = state.solution();
    }
  }
  SolveReport block;
  block.best_solution = std::move(best);
  block.best_energy = best_e;
  block.flips = state.flip_count();
  return block;
}

SolveReport ExhaustiveSolver::run(const QuboModel& model,
                                  const StopContext& ctx) const {
  const std::size_t n = model.size();
  DABS_CHECK(n <= max_bits_, "model too large for exhaustive enumeration");

  // Round the worker count down to a power of two, capped so every worker
  // has at least one suffix bit to enumerate.
  std::size_t prefix_bits = 0;
  while ((std::size_t{2} << prefix_bits) <= threads_ &&
         prefix_bits + 1 < n) {
    ++prefix_bits;
  }
  if (threads_ == 1 || n < 2) prefix_bits = 0;

  // Shared enumeration-step counter so a StopCondition work budget bounds
  // the run across all workers (checked once per 8192-step stride).
  std::atomic<std::uint64_t> work_done{0};

  if (prefix_bits == 0) return solve_block(model, 0, 0, ctx, work_done);

  const std::size_t workers = std::size_t{1} << prefix_bits;
  std::vector<SolveReport> results(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      results[w] = solve_block(model, w, prefix_bits, ctx, work_done);
    });
  }
  for (auto& t : pool) t.join();

  SolveReport out = std::move(results[0]);
  for (std::size_t w = 1; w < workers; ++w) {
    out.flips += results[w].flips;
    if (results[w].best_energy < out.best_energy) {
      out.best_energy = results[w].best_energy;
      out.best_solution = results[w].best_solution;
    }
  }
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
