// DabsSolver — the full Diverse Adaptive Bulk Search framework (paper §V):
//
//   host                                 devices
//   ----                                 -------
//   pool 0  <- host thread 0 ->  virtual device 0 (block executors)
//   pool 1  <- host thread 1 ->  virtual device 1
//   ...                                   ...
//
// The GA side (pools, adaptive selection, island ring, migration) lives in
// the DiversityEngine (src/evolve); the solver is the driver that wires the
// engine to the virtual-device substrate and the unified stop/progress
// protocol.  In ExecutionMode::kThreaded each host thread repeatedly
// (a) drains its device's outbox, handing result packets to the engine and
// updating the global best, and (b) asks the engine for the next target
// packet and pushes it to the device inbox.
//
// Termination runs through one shared StopContext (target energy, wall
// clock, batch budget, cooperative cancellation); host threads serialize
// their driving-thread calls on it under a mutex.  When every pool's best
// has merged to the same solution the engine restarts the ring from random
// pools (paper §IV-B).
//
// ExecutionMode::kSynchronous (the default) runs the same logic as a
// round-robin loop whose report depends only on the seed: round s runs
// island s mod I, and rounds fold into the engine in round order.  Up to
// one batch per island runs at once, on helper threads the solve starts
// once its batches have taken about a millisecond; a round whose packet
// reads a pool that an earlier unfolded round still changes (migration,
// Xrossover, restart) waits for that fold.
#pragma once

#include "core/solve_report.hpp"
#include "core/solver.hpp"
#include "core/solver_config.hpp"
#include "qubo/qubo_model.hpp"

namespace dabs {

class DabsSolver : public Solver {
 public:
  explicit DabsSolver(SolverConfig config = {});

  const SolverConfig& config() const noexcept { return config_; }

  /// Runs the framework on the request's model until a stop condition
  /// fires.  The request's stop condition / seed / warm-start override the
  /// config's when set (the resulting stop condition must be bounded), and
  /// the stop token and observer are honored by both execution modes.
  /// Re-entrant: each call builds fresh pools/devices.
  SolveReport solve(const SolveRequest& request) override;

  std::string_view name() const noexcept override { return "dabs"; }

 private:
  SolverConfig config_;
};

}  // namespace dabs
