#include "core/run_stats.hpp"

namespace dabs {

double RunStatsSnapshot::algo_fraction(MainSearch s) const {
  if (batches == 0) return 0.0;
  return double(algo_executed[static_cast<std::size_t>(s)]) / double(batches);
}

double RunStatsSnapshot::op_fraction(GeneticOp op) const {
  if (batches == 0) return 0.0;
  return double(op_executed[static_cast<std::size_t>(op)]) / double(batches);
}

bool RunStatsSnapshot::first_finder(MainSearch& algo_out,
                                    GeneticOp& op_out) const {
  if (improvements.empty()) return false;
  algo_out = improvements.back().algo;
  op_out = improvements.back().op;
  return true;
}

void RunStats::record_batch(MainSearch algo, GeneticOp op) {
  std::lock_guard lock(mu_);
  ++data_.algo_executed[static_cast<std::size_t>(algo)];
  ++data_.op_executed[static_cast<std::size_t>(op)];
  ++data_.batches;
}

void RunStats::record_improvement(double at_seconds, Energy energy,
                                  MainSearch algo, GeneticOp op) {
  std::lock_guard lock(mu_);
  data_.improvements.push_back({at_seconds, energy, algo, op});
}

RunStatsSnapshot RunStats::snapshot() const {
  std::lock_guard lock(mu_);
  return data_;
}

}  // namespace dabs
