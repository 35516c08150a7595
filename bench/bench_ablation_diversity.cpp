// Ablation bench: quantify each diversity feature the paper
// motivates qualitatively —
//   (1) full algorithm portfolio vs each single algorithm,
//   (2) eight genetic ops vs the ABS single op,
//   (3) island ring with Xrossover vs a single pool.
// Metric: best energy reached under a fixed batch budget (deterministic
// synchronous mode, common seeds).
#include "bench_common.hpp"
#include "problems/maxcut.hpp"
#include "problems/qap.hpp"

namespace dabs {
namespace {

namespace pr = problems;

/// Best energy averaged over a few seeds: one seed's luck otherwise
/// dominates the comparison.
double run_with(const QuboModel& m, SolverConfig c) {
  double sum = 0;
  const int kSeeds = 3;
  for (int s = 0; s < kSeeds; ++s) {
    c.seed = 1000 + 7919 * s;
    DabsSolver solver(c);
    sum += double(bench::solve_on(solver, m, c.stop).best_energy);
  }
  return sum / kSeeds;
}

std::string fmt_mean_energy(double e) {
  return dabs::io::fmt_energy(static_cast<long long>(e));
}

void run() {
  bench::print_banner("Ablation — value of each diversity feature");
  const auto inst =
      pr::make_grid_qap(3, 4, 10, 30, "nug12-like");  // hard landscape
  const pr::QapQubo q = pr::qap_to_qubo(inst);
  const QuboModel& m = q.model;
  bench::note("instance " + inst.name + " -> " + m.describe());

  const auto budget =
      static_cast<std::uint64_t>(600 * bench::scale());

  io::ResultsTable table("Ablation (best energy after " +
                         std::to_string(budget) + " batches; lower wins)");
  table.columns({"configuration", "best energy"});

  auto base = [&](std::uint64_t seed) {
    SolverConfig c = bench::bench_config(seed, 0.1, 1.0);
    c.stop.max_batches = budget;
    return c;
  };

  // Full DABS.
  table.add_row({"DABS (all 5 algos, 8 ops, ring)",
                 fmt_mean_energy(run_with(m, base(1)))});

  // Single-algorithm variants.
  for (const MainSearch s : kAllMainSearches) {
    SolverConfig c = base(2);
    c.algorithms = {s};
    table.add_row({"single algo: " + std::string(to_string(s)),
                   fmt_mean_energy(run_with(m, c))});
  }

  // ABS operation set (mutation-after-crossover only).
  {
    SolverConfig c = base(3);
    c.operations = {GeneticOp::kMutateCrossover};
    table.add_row({"single op: MutateCrossover (ABS ops)",
                   fmt_mean_energy(run_with(m, c))});
  }

  // No Xrossover (remove the inter-pool operation).
  {
    SolverConfig c = base(4);
    c.operations = {GeneticOp::kRandom,     GeneticOp::kBest,
                    GeneticOp::kMutation,   GeneticOp::kCrossover,
                    GeneticOp::kZero,       GeneticOp::kOne,
                    GeneticOp::kIntervalZero};
    table.add_row({"no Xrossover", fmt_mean_energy(run_with(m, c))});
  }

  // Single pool (no islands; Xrossover degenerates to Crossover).
  {
    SolverConfig c = base(5);
    c.devices = 1;
    c.device.blocks = 4;  // same total block count
    table.add_row({"single pool (no islands)",
                   fmt_mean_energy(run_with(m, c))});
  }

  table.print(std::cout);
  bench::note("expected shape: the full configuration is at least as good "
              "as every restriction (per-seed noise aside).");
}

}  // namespace
}  // namespace dabs

int main() {
  dabs::run();
  return 0;
}
