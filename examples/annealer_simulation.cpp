// Quantum annealer simulation example (paper §II-C, §VI-C): generate a
// random Ising model on the Pegasus topology at a chosen resolution,
// convert it to QUBO, and search for the ground state with DABS — the
// benchmark the paper uses to "simulate" a D-Wave Advantage.
//
//   $ ./annealer_simulation [resolution] [pegasus_m]
//
// Defaults: resolution 16 on P4 (288 qubits).  P16 (5760 qubits) matches
// the real Advantage scale: ./annealer_simulation 16 16
#include <cstdlib>
#include <iostream>

#include "core/dabs_solver.hpp"
#include "problems/qasp.hpp"
#include "qubo/conversion.hpp"

int main(int argc, char** argv) {
  namespace pr = dabs::problems;

  pr::QaspParams params;
  params.resolution = argc > 1 ? std::atoi(argv[1]) : 16;
  params.pegasus_m =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 4;
  {
    // Use ~97.7% of the ideal qubits, mirroring the Advantage 4.1 working
    // graph fraction (5627/5760).
    const pr::PegasusGraph ideal(params.pegasus_m);
    params.working_nodes = ideal.node_count() * 977 / 1000;
  }

  const pr::QaspInstance inst = pr::make_qasp(params);
  std::cout << "QASP r=" << inst.resolution << " on Pegasus P"
            << params.pegasus_m << ": " << inst.nodes << " working qubits, "
            << inst.edge_count << " couplers\n"
            << "QUBO: " << inst.qubo.describe() << "\n";

  dabs::SolverConfig config;
  config.devices = 2;
  config.device.blocks = 2;
  config.device.batch.search_flip_factor = 0.1;  // paper QASP parameters
  config.device.batch.batch_flip_factor = 1.0;
  config.mode = dabs::ExecutionMode::kThreaded;
  config.stop.time_limit_seconds = 5.0;

  dabs::SolveRequest request;
  request.model = &inst.qubo;
  const dabs::SolveReport r = dabs::DabsSolver(config).solve(request);

  // Report in Ising terms, the way an annealer would.
  const dabs::Energy hamiltonian =
      inst.ising.hamiltonian(dabs::to_spins(r.best_solution));
  std::cout << "best QUBO energy  E(X) = " << r.best_energy << "\n"
            << "best Hamiltonian  H(S) = " << hamiltonian << "  (offset "
            << inst.offset << ")\n"
            << "batches executed: " << r.batches << "\n";
  return hamiltonian == r.best_energy + inst.offset ? 0 : 1;
}
