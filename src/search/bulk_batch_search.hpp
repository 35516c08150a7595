// Bulk batch search: one batch (paper §III-B) executed for R replicas at
// once on a BulkSearchState — the CPU shape of the paper's "bulk" in
// Diverse Adaptive *Bulk* Search, where a device runs many batch searches
// concurrently against one shared model.
//
// The bulk variant keeps the scalar BatchSearch's phase structure —
// straight-walk to the target, then greedy descents alternating with a
// diversifying main move until the per-replica flip budget b*n is spent —
// but replaces the per-replica argmin moves with *same-index sweeps* so
// every flip stays on the amortized bulk kernels:
//
//   walk    index-ordered: position k flips in the replicas whose bit k
//           differs from their target (one pass reaches every target),
//   greedy  Gauss-Seidel index sweeps via descend_chunk: a replica flips
//           position k iff Delta_k < 0 at its turn, repeated until no
//           replica moves (then every replica sits at a 1-flip local
//           minimum),
//   kick    ~s*n random positions; each still-unfinished replica joins a
//           position with probability 1/2 (lane-mask randomness is what
//           keeps replicas diverged despite the shared index stream).
//
// Like the scalar engine, the walk is unconditional (it must reach the
// target) and everything after it is budget-clamped; replicas stop being
// offered moves within kMaxChunk flips of their budget.  State persists
// across batches per replica, exactly like BatchSearch's SearchState.
//
// Each replica's evolution is an exact SearchState trajectory (energies,
// BEST folds, flip counts — see bulk_search_state.hpp); the *choice* of
// flips is the bulk-synchronous policy above, which intentionally differs
// from the scalar per-replica argmin policy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "qubo/qubo_model.hpp"
#include "rng/xorshift.hpp"
#include "search/batch_search.hpp"
#include "search/bulk_search_state.hpp"

namespace dabs {

class BulkBatchSearch {
 public:
  BulkBatchSearch(const QuboModel& model, const BatchParams& params,
                  std::size_t replicas, std::uint64_t seed);

  /// Executes one batch per target: replica r walks toward targets[r].
  /// targets.size() may be anything in [1, replica_count()]; the remaining
  /// replicas keep their state untouched.  Returns one BatchResult per
  /// target (BEST of this batch, its energy, flips spent).
  std::vector<BatchResult> run(std::span<const BitVector> targets);

  const BulkSearchState& state() const noexcept { return state_; }
  std::size_t replica_count() const noexcept { return state_.replica_count(); }
  const BatchParams& params() const noexcept { return params_; }

 private:
  /// Queues (k, mask) and flushes full chunks; descend=true routes through
  /// descend_chunk and accumulates applied flips.
  struct ChunkQueue;

  BulkSearchState state_;
  BatchParams params_;
  Rng rng_;
  std::vector<std::uint64_t> target_words_;  // bit-sliced targets [b*n + k]
  std::vector<ScanResult> scan_scratch_;
};

}  // namespace dabs
