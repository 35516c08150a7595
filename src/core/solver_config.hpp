// Configuration for a DABS run.  Defaults mirror the paper's experimental
// setup where a CPU-scale equivalent exists: 100-packet pools, tabu tenure
// 8, 5 % exploration, search/batch flip factors s = 0.1 and b = 1.0.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "device/virtual_device.hpp"
#include "evolve/genetic_ops.hpp"
#include "qubo/types.hpp"
#include "search/registry.hpp"
#include "util/bit_vector.hpp"

namespace dabs {

enum class ExecutionMode : std::uint8_t {
  /// Host thread per pool + device block threads (the paper's
  /// architecture); the trajectory depends on thread timing.  Required by
  /// the bulk replica engine (DeviceConfig::replicas > 1).
  kThreaded,
  /// Bit-reproducible round-robin loop.  Its batches run on up to one
  /// thread per island (and CPU), folded back in round order.
  kSynchronous,
};

struct StopCondition {
  /// Stop as soon as the global best energy is <= target.
  std::optional<Energy> target_energy;
  /// Wall-clock limit in seconds (0 = unlimited).
  double time_limit_seconds = 0.0;
  /// Work budget in the solver's natural unit (0 = unlimited): batch
  /// searches across all devices for the bulk solvers, single-bit flips
  /// for the flip-at-a-time baselines.
  std::uint64_t max_batches = 0;

  bool unbounded() const noexcept {
    return !target_energy && time_limit_seconds <= 0.0 && max_batches == 0;
  }
};

struct SolverConfig {
  std::size_t devices = 2;   // the paper uses 8 GPUs
  DeviceConfig device;       // blocks per device, queue depth, s/b/tabu
  std::size_t pool_capacity = 100;
  std::uint64_t seed = 0x5eed5eed;
  ExecutionMode mode = ExecutionMode::kSynchronous;

  /// Adaptive-selection diversity.  Defaults: all 5 algorithms, all 8 ops.
  std::vector<MainSearch> algorithms{kAllMainSearches.begin(),
                                     kAllMainSearches.end()};
  std::vector<GeneticOp> operations{kDabsGeneticOps.begin(),
                                    kDabsGeneticOps.end()};
  double explore_prob = 0.05;
  GeneticOpParams op_params;

  /// Warm-start solutions inserted into the pools (round-robin) before the
  /// run begins; energies are computed by the solver.  The paper uses the
  /// inverse direction (DABS solutions warm-starting Gurobi) to validate
  /// potential optimality — this closes the loop for resuming DABS runs.
  std::vector<BitVector> warm_start;

  /// Restart all pools when the island ring has merged (paper §IV-B).
  bool restart_on_merge = true;
  /// How often (in generated batches per pool) merge is checked.
  std::uint64_t merge_check_interval = 64;

  /// Ring migration cadence in generated batches per pool; 0 (the paper's
  /// configuration) disables migration — pools then mix only through the
  /// Xrossover operation.
  std::uint64_t migration_interval = 0;
  /// Best pool entries copied to the ring neighbor per migration event.
  std::size_t migration_count = 1;

  StopCondition stop;

  /// Throws std::invalid_argument on inconsistent settings.
  void validate() const;
};

}  // namespace dabs
