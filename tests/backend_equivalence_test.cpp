// Dense-vs-CSR backend equivalence: both kernel backends must be bit-exact
// on every observable — energy, delta_all, post-flip incremental deltas,
// scan results, BEST bookkeeping, and whole solve reports — across sizes
// (including the n % 64 != 0 tail-word cases) and densities.  All
// arithmetic is integral, so "close" is not acceptable: EXPECT_EQ only.
#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/dabs_solver.hpp"
#include "qubo/qubo_builder.hpp"
#include "qubo/search_state.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using testing::random_model;
using testing::random_solution;
using testing::solve_on;

class BackendEquivalence
    : public ::testing::TestWithParam<std::tuple<int, double>> {
 protected:
  // Same seed => identical terms; only the backend differs.
  QuboModel csr(std::uint64_t salt = 0) const {
    const auto [n, density] = GetParam();
    return random_model(n, density, 9, 9000 + n + salt, QuboBackend::kCsr);
  }
  QuboModel dense(std::uint64_t salt = 0) const {
    const auto [n, density] = GetParam();
    return random_model(n, density, 9, 9000 + n + salt, QuboBackend::kDense);
  }
};

TEST_P(BackendEquivalence, ForcedBackendsAreHonored) {
  EXPECT_EQ(csr().backend(), QuboBackend::kCsr);
  EXPECT_EQ(dense().backend(), QuboBackend::kDense);
  EXPECT_TRUE(dense().has_dense_rows());
  EXPECT_FALSE(csr().has_dense_rows());
}

TEST_P(BackendEquivalence, DenseRowsMatchCsrWeights) {
  const QuboModel a = csr(), b = dense();
  ASSERT_EQ(a.size(), b.size());
  const auto n = static_cast<VarIndex>(a.size());
  // Weights in [-9, 9]: the rows are stored at int8.
  ASSERT_EQ(b.row_width(), RowWidth::kInt8);
  b.with_dense_rows([&](const auto* w) {
    for (VarIndex i = 0; i < n; ++i) {
      for (VarIndex j = 0; j < n; ++j) {
        EXPECT_EQ(Weight{w[std::size_t{i} * n + j]}, i == j ? 0 : a.weight(i, j))
            << i << "," << j;
      }
    }
  });
}

TEST_P(BackendEquivalence, EnergyAndDeltaAllAreBitIdentical) {
  const QuboModel a = csr(), b = dense();
  Rng rng(std::get<0>(GetParam()) * 23 + 1);
  for (int trial = 0; trial < 10; ++trial) {
    const BitVector x = random_solution(a.size(), rng);
    EXPECT_EQ(a.energy(x), b.energy(x));
    std::vector<Energy> da, db;
    a.delta_all(x, da);
    b.delta_all(x, db);
    EXPECT_EQ(da, db);
  }
}

TEST_P(BackendEquivalence, RandomWalkKeepsIdenticalState) {
  const QuboModel a = csr(), b = dense();
  SearchState sa(a), sb(b);
  Rng rng(std::get<0>(GetParam()) * 29 + 5);
  const BitVector start = random_solution(a.size(), rng);
  sa.reset_to(start);
  sb.reset_to(start);
  const auto n = a.size();
  for (int step = 0; step < 200; ++step) {
    const auto i = static_cast<VarIndex>(rng.next_index(n));
    sa.flip(i);
    sb.flip(i);
  }
  EXPECT_EQ(sa.solution(), sb.solution());
  EXPECT_EQ(sa.energy(), sb.energy());
  EXPECT_EQ(sa.best(), sb.best());
  EXPECT_EQ(sa.best_energy(), sb.best_energy());
  for (VarIndex k = 0; k < n; ++k) {
    ASSERT_EQ(sa.delta(k), sb.delta(k)) << "k=" << k;
    ASSERT_EQ(sa.sigmas()[k], sb.sigmas()[k]) << "k=" << k;
  }
}

TEST_P(BackendEquivalence, FlipAndScanEqualsFlipThenScan) {
  // On *both* backends, the fused entry point must be exactly
  // flip(); scan(); — same ScanResult, same deltas, same BEST.
  for (const QuboBackend backend : {QuboBackend::kCsr, QuboBackend::kDense}) {
    const auto [n, density] = GetParam();
    const QuboModel m =
        random_model(n, density, 9, 9100 + n, backend);
    SearchState fused(m), stepped(m);
    Rng rng(n * 31 + 7);
    const BitVector start = random_solution(m.size(), rng);
    fused.reset_to(start);
    stepped.reset_to(start);
    for (int step = 0; step < 60; ++step) {
      const auto i = static_cast<VarIndex>(rng.next_index(m.size()));
      const ScanResult f = fused.flip_and_scan(i);
      stepped.flip(i);
      const ScanResult s = stepped.scan();
      ASSERT_EQ(f.min_delta, s.min_delta);
      ASSERT_EQ(f.max_delta, s.max_delta);
      ASSERT_EQ(f.argmin, s.argmin);
    }
    EXPECT_EQ(fused.solution(), stepped.solution());
    EXPECT_EQ(fused.energy(), stepped.energy());
    EXPECT_EQ(fused.best(), stepped.best());
    EXPECT_EQ(fused.best_energy(), stepped.best_energy());
    for (VarIndex k = 0; k < m.size(); ++k) {
      ASSERT_EQ(fused.delta(k), stepped.delta(k)) << "k=" << k;
    }
  }
}

// Sizes deliberately straddle the bit-vector word boundary (63/64/65/129)
// to cover the n % 64 != 0 tail-word edge case.
INSTANTIATE_TEST_SUITE_P(
    Sweep, BackendEquivalence,
    ::testing::Combine(::testing::Values(2, 33, 63, 64, 65, 100, 129),
                       ::testing::Values(0.1, 0.5, 1.0)));

// ---------------------------------------------------------------------------
// Every (Delta width, row width) pair the builder produces, dense against
// CSR.  An int16 Delta bounds every |W_ij| by INT16_MAX, so int16 Delta
// never meets int32 rows; int64 Delta over int8 rows comes from one large
// diagonal.  n = 1100 spans two scan blocks and ends mid-word.
struct WidthPair {
  const char* name;
  DeltaWidth delta;
  RowWidth rows;
  Weight lo, hi;  // |W_ij| is drawn from [lo, hi], its sign at random
  double density;
  Weight heavy;   // added to W_00
};

const WidthPair kWidthPairs[] = {
    {"d16_r8", DeltaWidth::kInt16, RowWidth::kInt8, 1, 9, 0.5, 0},
    {"d16_r16", DeltaWidth::kInt16, RowWidth::kInt16, 128, 160, 0.1, 0},
    {"d64_r8", DeltaWidth::kInt64, RowWidth::kInt8, 1, 9, 0.5, 40000},
    {"d64_r16", DeltaWidth::kInt64, RowWidth::kInt16, 128, 1000, 0.5, 40000},
    {"d64_r32", DeltaWidth::kInt64, RowWidth::kInt32, 40000, 1 << 20, 0.5,
     0},
};

QuboModel width_pair_model(const WidthPair& p, std::size_t n,
                           QuboBackend backend) {
  Rng rng(4100 + n);
  QuboBuilder b(n);
  b.set_backend(backend);
  const auto draw = [&] {
    const auto w = static_cast<Weight>(
        p.lo + static_cast<Weight>(rng.next_index(
                   static_cast<std::size_t>(p.hi - p.lo) + 1)));
    return rng.next_bit() ? w : -w;
  };
  b.add_linear(0, p.heavy);
  for (VarIndex i = 0; i < n; ++i) {
    b.add_linear(i, static_cast<Weight>(rng.next_index(19)) - 9);
    for (VarIndex j = i + 1; j < n; ++j) {
      if (rng.next_unit() < p.density) b.add_quadratic(i, j, draw());
    }
  }
  return b.build();
}

/// off[k] for the walk's masked scans: D's lowest value marks a candidate.
template <class D>
std::vector<D> random_off(std::size_t n, Rng& rng) {
  std::vector<D> off(n);
  for (D& o : off) {
    o = rng.next_bit() ? std::numeric_limits<D>::min()
                       : std::numeric_limits<D>::max();
  }
  return off;
}

template <class D>
void expect_same_kernels(const QuboModel& a, const QuboModel& b) {
  const std::size_t n = a.size();
  Rng rng(n * 37 + 3);
  for (int trial = 0; trial < 3; ++trial) {
    const BitVector x = random_solution(n, rng);
    ASSERT_EQ(a.energy(x), b.energy(x));
    std::vector<Energy> da, db;
    a.delta_all(x, da);
    b.delta_all(x, db);
    ASSERT_EQ(da, db);
  }
  SearchState sa(a), sb(b);
  const BitVector start = random_solution(n, rng);
  sa.reset_to(start);
  sb.reset_to(start);
  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE(step);
    const auto i = static_cast<VarIndex>(rng.next_index(n));
    switch (step % 3) {
      case 0:
        sa.flip(i);
        sb.flip(i);
        break;
      case 1: {
        const ScanResult ra = sa.flip_and_scan(i);
        const ScanResult rb = sb.flip_and_scan(i);
        ASSERT_EQ(ra.min_delta, rb.min_delta);
        ASSERT_EQ(ra.max_delta, rb.max_delta);
        ASSERT_EQ(ra.argmin, rb.argmin);
        break;
      }
      default: {
        const std::vector<D> off = random_off<D>(n, rng);
        const MaskedScan ra = sa.flip_and_scan(i, std::span<const D>(off));
        const MaskedScan rb = sb.flip_and_scan(i, std::span<const D>(off));
        ASSERT_EQ(ra.scan.min_delta, rb.scan.min_delta);
        ASSERT_EQ(ra.scan.max_delta, rb.scan.max_delta);
        ASSERT_EQ(ra.scan.argmin, rb.scan.argmin);
        ASSERT_EQ(ra.masked_min, rb.masked_min);
        ASSERT_EQ(ra.masked_arg, rb.masked_arg);
      }
    }
    ASSERT_EQ(sa.energy(), sb.energy());
    ASSERT_EQ(sa.best_energy(), sb.best_energy());
  }
  EXPECT_EQ(sa.solution(), sb.solution());
  EXPECT_EQ(sa.best(), sb.best());
  for (VarIndex k = 0; k < n; ++k) {
    ASSERT_EQ(sa.delta(k), sb.delta(k)) << "k=" << k;
  }
}

class RowWidthPairs
    : public ::testing::TestWithParam<std::tuple<WidthPair, std::size_t>> {};

TEST_P(RowWidthPairs, DenseMatchesCsr) {
  const auto [pair, n] = GetParam();
  const QuboModel csr = width_pair_model(pair, n, QuboBackend::kCsr);
  const QuboModel dense = width_pair_model(pair, n, QuboBackend::kDense);
  ASSERT_EQ(dense.delta_width(), pair.delta);
  ASSERT_EQ(dense.row_width(), pair.rows);
  ASSERT_TRUE(dense.has_dense_rows());
  if (pair.delta == DeltaWidth::kInt16) {
    expect_same_kernels<std::int16_t>(csr, dense);
  } else {
    expect_same_kernels<Energy>(csr, dense);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, RowWidthPairs,
    ::testing::Combine(::testing::ValuesIn(kWidthPairs),
                       ::testing::Values(std::size_t{65}, std::size_t{1100})),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

// Every row reader, dense against CSR, over the same terms: the visitor's
// (j, w) sequence, degree(), weight(), flip_bound(), delta() and energy().
// Variable n / 2 couples to nothing, so its dense row is all zero.
TEST(BackendReaders, AgreeAtEveryRowWidth) {
  const struct {
    Weight hi;  // weights drawn from [-hi, hi]
    RowWidth rows;
  } widths[] = {{9, RowWidth::kInt8},
                {1000, RowWidth::kInt16},
                {1 << 20, RowWidth::kInt32}};
  for (const auto& [hi, rows] : widths) {
    for (const std::size_t n : {63, 64, 65, 130}) {
      SCOPED_TRACE(::testing::Message() << "hi=" << hi << " n=" << n);
      const auto empty = static_cast<VarIndex>(n / 2);
      const auto build = [&](QuboBackend backend) {
        Rng rng(static_cast<std::uint64_t>(hi) * 1000 + n);
        const auto draw = [&] {
          return static_cast<Weight>(
              static_cast<Weight>(rng.next_index(
                  2 * static_cast<std::size_t>(hi) + 1)) -
              hi);
        };
        QuboBuilder b(n);
        b.set_backend(backend);
        for (VarIndex i = 0; i < n; ++i) b.add_linear(i, draw());
        for (VarIndex i = 0; i < n; ++i) {
          for (VarIndex j = i + 1; j < n; ++j) {
            if (i != empty && j != empty && rng.next_unit() < 0.6) {
              b.add_quadratic(i, j, draw());
            }
          }
        }
        return b.build();
      };
      const QuboModel csr = build(QuboBackend::kCsr);
      const QuboModel dense = build(QuboBackend::kDense);
      ASSERT_TRUE(dense.has_dense_rows());
      ASSERT_EQ(dense.row_width(), rows);
      ASSERT_EQ(csr.row_width(), rows);
      EXPECT_EQ(dense.edge_count(), csr.edge_count());
      EXPECT_EQ(dense.max_degree(), csr.max_degree());
      EXPECT_EQ(dense.delta_bound(), csr.delta_bound());
      EXPECT_TRUE(testing::couplings(dense, empty).empty());
      EXPECT_EQ(dense.degree(empty), 0u);
      for (VarIndex i = 0; i < n; ++i) {
        ASSERT_EQ(testing::couplings(dense, i), testing::couplings(csr, i));
        ASSERT_EQ(dense.degree(i), csr.degree(i));
        ASSERT_EQ(dense.flip_bound(i), csr.flip_bound(i));
        for (VarIndex j = 0; j < n; ++j) {
          ASSERT_EQ(dense.weight(i, j), csr.weight(i, j)) << i << "," << j;
        }
      }
      Rng rng(n);
      for (int trial = 0; trial < 4; ++trial) {
        const BitVector x = random_solution(n, rng);
        ASSERT_EQ(dense.energy(x), csr.energy(x));
        for (VarIndex k = 0; k < n; ++k) {
          ASSERT_EQ(dense.delta(x, k), csr.delta(x, k)) << k;
        }
      }
    }
  }
}

TEST(BackendSelection, AutoPicksDenseAboveThresholdAndCsrBelow) {
  const QuboModel dense = random_model(40, 1.0, 5, 1);
  EXPECT_EQ(dense.backend(), QuboBackend::kDense);
  EXPECT_NE(dense.describe().find("backend=dense"), std::string::npos);
  const QuboModel sparse = random_model(40, 0.05, 5, 1);
  EXPECT_EQ(sparse.backend(), QuboBackend::kCsr);
  EXPECT_NE(sparse.describe().find("backend=csr"), std::string::npos);
}

TEST(BackendSelection, DenseRequestBeyondMemoryBudgetIsRejected) {
  // n = 8200 puts the n x n matrix just past kDenseMaxBytes (256 MiB at
  // int32 weights caps n at 8192): a forced kDense must be rejected at
  // build() time, before anything is allocated.  kAuto uses the same
  // fits-check and falls back to CSR instead.
  const std::size_t n = 8200;
  ASSERT_GT(n * n * sizeof(Weight), QuboModel::kDenseMaxBytes);
  QuboBuilder b(n);
  b.add_quadratic(0, 1, 1);
  b.set_backend(QuboBackend::kDense);
  EXPECT_THROW((void)b.build(), std::invalid_argument);
}

TEST(BackendSelection, BuilderResetsOverrideAfterBuild) {
  QuboBuilder b(4);
  b.add_quadratic(0, 1, 1).set_backend(QuboBackend::kDense);
  EXPECT_EQ(b.build().backend(), QuboBackend::kDense);
  // build() leaves the builder empty and back on kAuto.
  EXPECT_EQ(b.backend(), QuboBackend::kAuto);
}

TEST(BackendSelection, QuadraticInt32MinIsRejected) {
  // The symmetric-coupling restriction that keeps the branchless dense
  // kernel overflow-free; INT32_MIN diagonals remain legal.
  QuboBuilder b(2);
  b.add_quadratic(0, 1, std::numeric_limits<Weight>::min());
  EXPECT_THROW((void)b.build(), std::invalid_argument);
  QuboBuilder ok(2);
  ok.add_quadratic(0, 1, -std::numeric_limits<Weight>::max());
  ok.add_linear(0, std::numeric_limits<Weight>::min());
  const QuboModel m = ok.build();
  EXPECT_EQ(m.weight(0, 1), -std::numeric_limits<Weight>::max());
  EXPECT_EQ(m.diag(0), std::numeric_limits<Weight>::min());
}

TEST(BackendRegression, ReportBitIdenticalAcrossBackendSwitch) {
  // The determinism_test guarantee must survive the backend switch: the
  // same solver config on the same terms produces the same report
  // whether the kernel walks CSR rows or dense rows.
  const QuboModel a = random_model(64, 0.3, 9, 11004, QuboBackend::kCsr);
  const QuboModel b = random_model(64, 0.3, 9, 11004, QuboBackend::kDense);
  SolverConfig c;
  c.devices = 3;
  c.device.blocks = 2;
  c.mode = ExecutionMode::kSynchronous;
  c.stop.max_batches = 120;
  c.seed = 0xD1CED1CE;
  const SolveReport ra = solve_on(DabsSolver(c), a);
  const SolveReport rb = solve_on(DabsSolver(c), b);
  EXPECT_EQ(ra.best_energy, rb.best_energy);
  EXPECT_EQ(ra.best_solution, rb.best_solution);
  EXPECT_EQ(ra.batches, rb.batches);
  EXPECT_EQ(ra.restarts, rb.restarts);
  EXPECT_EQ(ra.reached_target, rb.reached_target);
  EXPECT_EQ(ra.extras, rb.extras);
}

}  // namespace
}  // namespace dabs
