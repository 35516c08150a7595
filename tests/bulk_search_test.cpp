// Tests for the bulk-parallel replica engine: BulkSearchState must be
// bit-exact against R independent SearchStates fed the same per-replica
// flip sequences — on both backends, at every delta width (int16/32/64),
// with ragged lane counts (R % 64 != 0) —
// plus BulkBatchSearch policy/budget sanity and cancellation under the
// bulk device path.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/solve_report.hpp"
#include "core/solver.hpp"
#include "core/solver_registry.hpp"
#include "search/bulk_batch_search.hpp"
#include "search/bulk_search_state.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using testing::naive_energy;
using testing::random_model;
using testing::random_solution;

constexpr std::size_t kLanes = BulkSearchState::kLanesPerBlock;

/// Reference harness: R scalar SearchStates driven in lockstep with one
/// BulkSearchState, comparing all observable state after every operation.
struct Harness {
  BulkSearchState bulk;
  std::vector<std::unique_ptr<SearchState>> refs;
  std::size_t blocks;

  Harness(const QuboModel& m, std::size_t replicas)
      : bulk(m, replicas), blocks(bulk.block_count()) {
    refs.reserve(replicas);
    for (std::size_t r = 0; r < replicas; ++r) {
      refs.push_back(std::make_unique<SearchState>(m));
    }
  }

  std::size_t replicas() const { return refs.size(); }

  bool lane(const std::vector<std::uint64_t>& masks, std::size_t pos,
            std::size_t r) const {
    return (masks[pos * blocks + r / kLanes] >> (r % kLanes)) & 1;
  }

  /// Random per-position lane masks for a chunk of `count` positions.
  std::vector<std::uint64_t> random_masks(std::size_t count, Rng& rng) {
    std::vector<std::uint64_t> m(count * blocks);
    for (auto& w : m) w = rng();
    return m;
  }

  /// Distinct random indices.
  std::vector<VarIndex> random_chunk(std::size_t count, Rng& rng) {
    const std::size_t n = bulk.size();
    std::vector<VarIndex> idx;
    while (idx.size() < count) {
      const auto i = static_cast<VarIndex>(rng.next_index(n));
      if (std::find(idx.begin(), idx.end(), i) == idx.end()) {
        idx.push_back(i);
      }
    }
    return idx;
  }

  void apply_flip_chunk(std::span<const VarIndex> idx,
                        const std::vector<std::uint64_t>& masks) {
    bulk.flip_chunk(idx, masks);
    for (std::size_t p = 0; p < idx.size(); ++p) {
      for (std::size_t r = 0; r < replicas(); ++r) {
        if (lane(masks, p, r)) refs[r]->flip(idx[p]);
      }
    }
  }

  void apply_descend_chunk(std::span<const VarIndex> idx,
                           const std::vector<std::uint64_t>& masks,
                           std::vector<std::uint64_t>* applied_out = nullptr) {
    std::vector<std::uint64_t> applied(masks.size(), ~std::uint64_t{0});
    bulk.descend_chunk(idx, masks, applied);
    for (std::size_t p = 0; p < idx.size(); ++p) {
      for (std::size_t r = 0; r < replicas(); ++r) {
        const bool selected = lane(masks, p, r);
        const bool should = selected && refs[r]->delta(idx[p]) < 0;
        if (should) refs[r]->flip(idx[p]);
        ASSERT_EQ(should, lane(applied, p, r))
            << "applied mask mismatch at pos " << p << " replica " << r;
      }
    }
    if (applied_out != nullptr) *applied_out = std::move(applied);
  }

  void apply_scan() {
    std::vector<ScanResult> out(replicas());
    bulk.scan(out);
    for (std::size_t r = 0; r < replicas(); ++r) {
      const ScanResult want = refs[r]->scan();
      ASSERT_EQ(want.min_delta, out[r].min_delta) << "replica " << r;
      ASSERT_EQ(want.max_delta, out[r].max_delta) << "replica " << r;
      ASSERT_EQ(want.argmin, out[r].argmin) << "replica " << r;
    }
  }

  void apply_flip_and_scan(VarIndex i,
                           const std::vector<std::uint64_t>& mask) {
    std::vector<ScanResult> out(replicas());
    bulk.flip_and_scan(i, mask, out);
    for (std::size_t r = 0; r < replicas(); ++r) {
      if (lane(mask, 0, r)) refs[r]->flip(i);
      const ScanResult want = refs[r]->scan();
      ASSERT_EQ(want.min_delta, out[r].min_delta) << "replica " << r;
      ASSERT_EQ(want.argmin, out[r].argmin) << "replica " << r;
    }
  }

  /// Compares every observable per-replica quantity.
  void check_all(const char* where) {
    const std::size_t n = bulk.size();
    for (std::size_t r = 0; r < replicas(); ++r) {
      const SearchState& ref = *refs[r];
      ASSERT_EQ(ref.energy(), bulk.energy(r)) << where << " replica " << r;
      ASSERT_EQ(ref.best_energy(), bulk.best_energy(r))
          << where << " replica " << r;
      ASSERT_EQ(ref.flip_count(), bulk.flip_count(r))
          << where << " replica " << r;
      ASSERT_EQ(ref.solution(), bulk.solution(r)) << where << " replica " << r;
      ASSERT_EQ(ref.best(), bulk.best(r)) << where << " replica " << r;
      ASSERT_EQ(ref.is_local_minimum(), bulk.is_local_minimum(r))
          << where << " replica " << r;
      for (VarIndex k = 0; k < static_cast<VarIndex>(n); ++k) {
        ASSERT_EQ(ref.delta(k), bulk.delta(r, k))
            << where << " replica " << r << " k " << k;
        ASSERT_EQ(ref.solution().get(k), bulk.get(r, k))
            << where << " replica " << r << " k " << k;
      }
    }
  }

  /// A deterministic mixed-op script exercising every bulk operation.
  void run_script(std::uint64_t seed, std::size_t rounds) {
    Rng rng(seed);
    // Diverge the replicas first.
    for (std::size_t r = 0; r < replicas(); ++r) {
      const BitVector x = random_solution(bulk.size(), rng);
      bulk.reset_to(r, x);
      refs[r]->reset_to(x);
    }
    check_all("after reset_to");
    for (std::size_t round = 0; round < rounds; ++round) {
      const std::size_t count = 1 + rng.next_index(BulkSearchState::kMaxChunk);
      const std::vector<VarIndex> idx = random_chunk(count, rng);
      switch (rng.next_index(5)) {
        case 0:
          apply_flip_chunk(idx, random_masks(count, rng));
          break;
        case 1:
          apply_descend_chunk(idx, random_masks(count, rng));
          break;
        case 2:
          apply_scan();
          break;
        case 3:
          apply_flip_and_scan(idx[0], random_masks(1, rng));
          break;
        case 4: {
          const auto r = rng.next_index(replicas());
          bulk.reset_best(r);
          refs[r]->reset_best();
          break;
        }
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    check_all("after script");
  }
};

TEST(BulkSearchState, BitExactAgainstScalarReplicas) {
  // n % 64 != 0 and R values covering one partial block (1, 3), one full
  // block (64), and several blocks with a ragged tail (200).
  for (const QuboBackend backend : {QuboBackend::kDense, QuboBackend::kCsr}) {
    const QuboModel m = random_model(129, 0.3, 9, 42, backend);
    for (const std::size_t replicas : {1u, 3u, 64u, 200u}) {
      SCOPED_TRACE(::testing::Message()
                   << "backend " << static_cast<int>(backend) << " R "
                   << replicas);
      Harness h(m, replicas);
      h.run_script(1000 + replicas, 40);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(BulkSearchState, BitExactOnDenserModel) {
  const QuboModel m = random_model(300, 0.6, 9, 43, QuboBackend::kDense);
  Harness h(m, 70);
  h.run_script(7, 30);
}

TEST(BulkSearchState, BitExactOverEveryRowReading) {
  // The rank-B pass reads a chunk's dense rows in place when they are
  // stored at the lane width and through a widened per-chunk copy
  // otherwise.  x1 gives int16 lanes over int8 rows (copied), x128 int16
  // lanes over int16 rows (in place), x1000 int32 lanes over int16 rows
  // (copied).
  for (const Weight scale : {1, 128, 1000}) {
    SCOPED_TRACE(scale);
    const QuboModel m =
        random_model(64, 0.3, 9, 46, QuboBackend::kDense, scale);
    ASSERT_EQ(m.row_width(), scale == 1 ? RowWidth::kInt8 : RowWidth::kInt16);
    ASSERT_EQ(m.delta_width(),
              scale == 1000 ? DeltaWidth::kInt64 : DeltaWidth::kInt16);
    Harness h(m, 65);
    h.run_script(10, 25);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(BulkSearchState, Int32DeltaPathIsExact) {
  // Weights up to 1e5 push the worst-case |Delta| bound past int16.
  const QuboModel m = random_model(80, 0.5, 100000, 44, QuboBackend::kDense);
  Harness h(m, 66);
  h.run_script(8, 25);
}

TEST(BulkSearchState, Int64DeltaPathIsExact) {
  // Weights near 2^29 on 16 variables push the bound past int32.
  const QuboModel m =
      random_model(16, 1.0, 1 << 29, 45, QuboBackend::kDense);
  Harness h(m, 10);
  h.run_script(9, 25);
}

TEST(BulkSearchState, RejectsInvalidArguments) {
  const QuboModel m = random_model(20, 0.5, 9, 48);
  EXPECT_THROW(BulkSearchState(m, 0), std::invalid_argument);
  BulkSearchState s(m, 3);
  const std::vector<VarIndex> dup = {1, 1};
  const std::vector<std::uint64_t> masks(2, ~std::uint64_t{0});
  EXPECT_THROW(s.flip_chunk(dup, masks), std::invalid_argument);
  const std::vector<VarIndex> big = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::vector<std::uint64_t> masks9(9, ~std::uint64_t{0});
  EXPECT_THROW(s.flip_chunk(big, masks9), std::invalid_argument);
  EXPECT_THROW(s.energy(3), std::invalid_argument);
}

TEST(BulkBatchSearch, ResultsAreConsistentAndBudgeted) {
  const QuboModel m = random_model(120, 0.4, 9, 49);
  BatchParams p;
  p.search_flip_factor = 0.2;
  p.batch_flip_factor = 1.0;
  constexpr std::size_t kReplicas = 70;
  BulkBatchSearch bulk(m, p, kReplicas, 50);

  Rng rng(51);
  std::vector<BitVector> targets;
  for (std::size_t r = 0; r < 40; ++r) {  // fewer targets than replicas
    targets.push_back(random_solution(m.size(), rng));
  }
  const std::vector<BatchResult> results = bulk.run(targets);
  ASSERT_EQ(results.size(), targets.size());
  const auto budget = static_cast<std::uint64_t>(
      p.batch_flip_factor * static_cast<double>(m.size()));
  for (std::size_t r = 0; r < results.size(); ++r) {
    // Reported energy must match an independent evaluation of the vector.
    EXPECT_EQ(naive_energy(m, results[r].best), results[r].best_energy);
    // The batch starts at the zero vector, so the walk costs
    // popcount(target); everything after is budget-clamped with at most
    // kMaxChunk overshoot per replica.
    std::uint64_t hamming = 0;
    for (std::size_t k = 0; k < m.size(); ++k) {
      hamming += targets[r].get(k) ? 1 : 0;
    }
    EXPECT_GE(results[r].flips, hamming);
    EXPECT_LE(results[r].flips,
              hamming + budget + BulkSearchState::kMaxChunk);
    // The best found cannot be worse than the raw target.
    EXPECT_LE(results[r].best_energy, naive_energy(m, targets[r]));
  }

  // State persists: a second batch keeps accumulating per-replica flips,
  // while replicas outside the new (smaller) target set stay untouched.
  const std::uint64_t after_first = bulk.state().flip_count(0);
  const std::uint64_t untouched = bulk.state().flip_count(30);
  EXPECT_GT(after_first, 0u);
  const std::vector<BatchResult> again =
      bulk.run(std::span<const BitVector>(targets.data(), 8));
  ASSERT_EQ(again.size(), 8u);
  EXPECT_GT(bulk.state().flip_count(0), after_first);
  EXPECT_EQ(bulk.state().flip_count(30), untouched);
}

TEST(BulkBatchSearch, SingleReplicaSingleTargetWorks) {
  const QuboModel m = random_model(60, 0.5, 9, 52);
  BatchParams p;
  BulkBatchSearch bulk(m, p, 1, 53);
  Rng rng(54);
  const BitVector target = random_solution(m.size(), rng);
  const std::vector<BatchResult> r = bulk.run({&target, 1});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(naive_energy(m, r[0].best), r[0].best_energy);
}

TEST(BulkBatchSearch, RejectsBadTargetCounts) {
  const QuboModel m = random_model(30, 0.5, 9, 55);
  BatchParams p;
  BulkBatchSearch bulk(m, p, 4, 56);
  std::vector<BitVector> none;
  EXPECT_THROW(bulk.run(none), std::invalid_argument);
  std::vector<BitVector> five(5, BitVector(30));
  EXPECT_THROW(bulk.run(five), std::invalid_argument);
}

TEST(BulkDevice, CancellationUnderBulkReplicas) {
  // The threaded dabs pipeline with bulk blocks must still unwind within
  // the grace period when the StopToken fires mid-run.
  const QuboModel m = random_model(150, 0.5, 9, 57);
  const std::unique_ptr<Solver> solver = SolverRegistry::global().create(
      "dabs", SolverOptions{{"replicas", "8"}, {"devices", "1"},
                            {"blocks", "2"}});
  SolveRequest req;
  req.model = &m;
  req.stop.time_limit_seconds = 30.0;  // backstop only; token should win
  req.seed = 58;
  StopToken token = req.stop_token;
  std::thread firer([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    token.request_stop();
  });
  const SolveReport report = solver->solve(req);
  firer.join();
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(m.energy(report.best_solution), report.best_energy);
}

}  // namespace
}  // namespace dabs
