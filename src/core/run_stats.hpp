// Run statistics collected by the DABS host:
//
//   - per-algorithm / per-operation execution counts  -> Table V
//   - the algorithm/operation that first reached the final best solution
//     (updated on every global-best improvement)       -> Table VI
//   - the improvement trace (time, energy) and TTS.
//
// All mutators are internally synchronized: host pool threads record
// concurrently in threaded mode.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "evolve/op_ids.hpp"
#include "qubo/types.hpp"
#include "search/registry.hpp"

namespace dabs {

struct ImprovementEvent {
  double at_seconds;
  Energy energy;
  MainSearch algo;
  GeneticOp op;
};

/// Immutable copy of the counters, taken at end of run.
struct RunStatsSnapshot {
  std::array<std::uint64_t, kMainSearchCount> algo_executed{};
  std::array<std::uint64_t, kGeneticOpCount> op_executed{};
  std::vector<ImprovementEvent> improvements;
  std::uint64_t batches = 0;

  /// Fraction of batches run with each algorithm / operation (Table V rows).
  double algo_fraction(MainSearch s) const;
  double op_fraction(GeneticOp op) const;

  /// Last improvement = the record that first attained the final best
  /// (Table VI attribution).  Returns false when nothing improved.
  bool first_finder(MainSearch& algo_out, GeneticOp& op_out) const;
};

class RunStats {
 public:
  /// Records that one batch with (algo, op) was dispatched/executed.
  void record_batch(MainSearch algo, GeneticOp op);

  /// Records a global-best improvement produced by (algo, op).
  void record_improvement(double at_seconds, Energy energy, MainSearch algo,
                          GeneticOp op);

  RunStatsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  RunStatsSnapshot data_;
};

}  // namespace dabs
