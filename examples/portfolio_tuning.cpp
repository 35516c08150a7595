// Portfolio-tuning example: the library exposes the diversity knobs the
// paper studies — restrict the algorithm portfolio and the genetic
// operation set and watch the adaptive statistics change.
//
//   $ ./portfolio_tuning
//
// Runs the same instance (a hard little QAP) under three configurations and
// prints which algorithms/operations the solver actually exercised —
// a miniature of the paper's Tables V and VI.
#include <iostream>
#include <string>

#include "baseline/abs_solver.hpp"
#include "core/dabs_solver.hpp"
#include "core/solve_report.hpp"
#include "problems/qap.hpp"

namespace {

/// Prints the report extras under `prefix` (freq_algo_, freq_op_) as
/// rounded percentages, skipping unused entries.
void print_usage(const dabs::SolveReport& r, const std::string& prefix) {
  for (const auto& [key, value] : r.extras) {
    if (key.rfind(prefix, 0) != 0 || std::stod(value) == 0) continue;
    std::cout << "  " << key.substr(prefix.size()) << " "
              << int(std::stod(value) * 100 + 0.5) << "%";
  }
}

void report(const std::string& label, dabs::Solver&& solver,
            const dabs::QuboModel& model) {
  dabs::SolveRequest req;
  req.model = &model;
  const dabs::SolveReport r = solver.solve(req);
  std::cout << "\n--- " << label << " ---\n"
            << "best energy " << r.best_energy << " in " << r.batches
            << " batches, " << r.restarts << " pool restarts\n";
  std::cout << "algorithm usage:";
  print_usage(r, "freq_algo_");
  std::cout << "\noperation usage :";
  print_usage(r, "freq_op_");
  const auto algo = r.extras.find("first_finder_algo");
  const auto op = r.extras.find("first_finder_op");
  if (algo != r.extras.end() && op != r.extras.end()) {
    std::cout << "\nbest solution first found by " << algo->second << " + "
              << op->second << "\n";
  } else {
    std::cout << "\n";
  }
}

}  // namespace

int main() {
  namespace pr = dabs::problems;
  const auto inst = pr::make_grid_qap(3, 3, 10, 5, "nug9-like");
  const pr::QapQubo q = pr::qap_to_qubo(inst);
  std::cout << "instance " << inst.name << " -> " << q.model.describe()
            << "\n";

  dabs::SolverConfig base;
  base.devices = 2;
  base.device.blocks = 2;
  base.mode = dabs::ExecutionMode::kSynchronous;
  base.stop.max_batches = 800;
  base.seed = 11;

  // 1. Full DABS diversity.
  report("full DABS (5 algorithms, 8 operations)", dabs::DabsSolver(base),
         q.model);

  // 2. A hand-picked two-algorithm portfolio.
  {
    dabs::SolverConfig c = base;
    c.algorithms = {dabs::MainSearch::kPositiveMin,
                    dabs::MainSearch::kRandomMin};
    c.operations = {dabs::GeneticOp::kCrossover, dabs::GeneticOp::kZero,
                    dabs::GeneticOp::kBest};
    report("custom portfolio (PositiveMin+RandomMin, 3 ops)",
           dabs::DabsSolver(c), q.model);
  }

  // 3. The ABS baseline (single algorithm, single operation).
  report("ABS baseline (CyclicMin + MutateCrossover)",
         dabs::AbsSolver(base), q.model);
  return 0;
}
