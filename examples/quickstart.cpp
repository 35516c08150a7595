// Quickstart: build a small QUBO model by hand, run a solver through the
// unified registry API, and print the best solution.
//
//   $ ./quickstart
//
// The model is the paper's running setting in miniature: minimize
// E(X) = sum W_ij x_i x_j + sum W_ii x_i over binary vectors X.
// Every solver in the registry (dabs, abs, sa, tabu, greedy-restart,
// subqubo, exhaustive) runs through the same SolveRequest / SolveReport
// surface shown here.
#include <iostream>

#include "core/solve_report.hpp"
#include "core/solver.hpp"
#include "core/solver_registry.hpp"
#include "qubo/qubo_builder.hpp"

namespace {

// Progress hooks: on_new_best fires on every improvement, on_tick at most
// once per SolveRequest::tick_seconds.
struct PrintProgress : dabs::ProgressObserver {
  void on_new_best(const dabs::ProgressEvent& event) override {
    std::cout << "  improved to " << event.best_energy << " after "
              << event.work << " batches\n";
  }
};

}  // namespace

int main() {
  // 1. Describe the problem: a 6-variable QUBO with a frustrated loop.
  dabs::QuboBuilder builder(6);
  builder.add_quadratic(0, 1, 2)
      .add_quadratic(1, 2, -3)
      .add_quadratic(2, 3, 4)
      .add_quadratic(3, 4, -2)
      .add_quadratic(4, 5, 1)
      .add_quadratic(5, 0, -1)
      .add_linear(0, -1)
      .add_linear(3, -2);
  const dabs::QuboModel model = builder.build();
  std::cout << "model: " << model.describe() << "\n";

  // 2. Build a solver from the registry.  Options are generic strings, so
  //    the same code path drives any solver name ("sa", "tabu", ...).
  //    Registry-built bulk solvers run synchronously (bit-reproducible)
  //    unless the "threads" option asks for the host/device pipeline.
  const std::unique_ptr<dabs::Solver> solver =
      dabs::SolverRegistry::global().create(
          "dabs", {{"devices", "2"}, {"blocks", "2"}});

  // 3. Describe the run: model + stop condition + seed + progress hooks.
  //    A StopToken in the request could cancel it from another thread.
  PrintProgress progress;
  dabs::SolveRequest request;
  request.model = &model;
  request.stop.max_batches = 200;
  request.seed = 42;
  request.observer = &progress;

  // 4. Solve.
  const dabs::SolveReport report = solver->solve(request);
  std::cout << report.to_string()
            << "best vector : " << report.best_solution.to_string() << "\n";
  return 0;
}
