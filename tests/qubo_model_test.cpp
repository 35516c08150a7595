// Unit + property tests for the QUBO model, builder, and Ising conversion.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "qubo/conversion.hpp"
#include "qubo/ising_model.hpp"
#include "qubo/qubo_builder.hpp"
#include "qubo/qubo_model.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using testing::naive_energy;
using testing::random_model;
using testing::random_solution;

TEST(QuboBuilder, AccumulatesDuplicateTerms) {
  QuboBuilder b(3);
  b.add_quadratic(0, 1, 2).add_quadratic(1, 0, 3);  // same edge, both orders
  b.add_linear(2, 5).add_linear(2, -1);
  const QuboModel m = b.build();
  EXPECT_EQ(m.weight(0, 1), 5);
  EXPECT_EQ(m.weight(1, 0), 5);
  EXPECT_EQ(m.diag(2), 4);
  EXPECT_EQ(m.edge_count(), 1u);
}

TEST(QuboBuilder, DropsZeroCouplings) {
  QuboBuilder b(2);
  b.add_quadratic(0, 1, 7).add_quadratic(0, 1, -7);
  const QuboModel m = b.build();
  EXPECT_EQ(m.edge_count(), 0u);
  EXPECT_EQ(m.weight(0, 1), 0);
}

TEST(QuboBuilder, RejectsInvalidIndices) {
  QuboBuilder b(2);
  EXPECT_THROW(b.add_linear(2, 1), std::invalid_argument);
  EXPECT_THROW(b.add_quadratic(0, 2, 1), std::invalid_argument);
  EXPECT_THROW(b.add_quadratic(1, 1, 1), std::invalid_argument);
  EXPECT_THROW(QuboBuilder(0), std::invalid_argument);
}

// build() keeps terms that arrive in (i, j) order where they are, and
// otherwise orders them with a counting sort by row, sorting a row by
// column only when it arrives out of order.  A dense model fills and
// mirrors its matrix; a sparse one scatters each coupling into both rows.
// The reference coalescer is a std::map keyed by the normalized pair: the
// built model must hold exactly its nonzero sums, rows ascending by column,
// in for_each_coupling's rows, degree(), the dense rows, edge_count(),
// delta_bound(), max_degree() and row_width().
// Terms come shuffled or in (i, j) order, with duplicates, both index
// orders and sums that cancel to zero, at weights that need each row width.
TEST(QuboBuilder, MatchesReferenceCoalescer) {
  Rng rng(2500);
  std::map<RowWidth, int> widths_seen;
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t n = 1 + rng.next_index(trial < 100 ? 12 : 90);
    const QuboBackend backend = trial % 3 == 0   ? QuboBackend::kDense
                                : trial % 3 == 1 ? QuboBackend::kCsr
                                                 : QuboBackend::kAuto;
    const bool ordered = trial / 4 % 2 == 1;
    const Weight big = trial % 4 == 2   ? 150
                       : trial % 4 == 3 ? Weight{1} << 24
                                        : 5;
    QuboBuilder b(n);
    b.set_backend(backend);
    std::map<std::pair<VarIndex, VarIndex>, Energy> want;
    std::vector<Energy> diag(n, 0);
    std::vector<std::tuple<VarIndex, VarIndex, Weight>> quadratic;
    const std::size_t terms = rng.next_index(4 * n * n + 1);
    for (std::size_t t = 0; t < terms; ++t) {
      const auto i = static_cast<VarIndex>(rng.next_index(n));
      const auto j = static_cast<VarIndex>(rng.next_index(n));
      const auto w = static_cast<Weight>(
          static_cast<Weight>(rng.next_index(2 * std::size_t(big) + 1)) - big);
      if (i == j) {
        b.add_linear(i, w);
        diag[i] += w;
        continue;
      }
      quadratic.emplace_back(i, j, w);
      want[{std::min(i, j), std::max(i, j)}] += w;
      if (rng.next_index(4) == 0) {  // a term that cancels the sum so far
        const auto back = static_cast<Weight>(-want[{std::min(i, j),
                                                      std::max(i, j)}]);
        quadratic.emplace_back(j, i, back);
        want[{std::min(i, j), std::max(i, j)}] += back;
      }
    }
    if (ordered) {
      for (auto& [i, j, w] : quadratic) {
        if (i > j) std::swap(i, j);
      }
      std::stable_sort(quadratic.begin(), quadratic.end(),
                       [](const auto& x, const auto& y) {
                         return std::tie(std::get<0>(x), std::get<1>(x)) <
                                std::tie(std::get<0>(y), std::get<1>(y));
                       });
    }
    for (const auto& [i, j, w] : quadratic) b.add_quadratic(i, j, w);
    const QuboModel m = b.build();

    std::vector<std::vector<std::pair<VarIndex, Weight>>> rows(n);
    std::size_t edges = 0;
    std::uint64_t max_coupling = 0;
    for (const auto& [ij, w] : want) {
      if (w == 0) continue;
      ++edges;
      rows[ij.first].push_back({ij.second, static_cast<Weight>(w)});
      rows[ij.second].push_back({ij.first, static_cast<Weight>(w)});
      max_coupling = std::max(max_coupling,
                              static_cast<std::uint64_t>(std::abs(w)));
    }
    std::uint64_t bound = 0;
    std::size_t max_degree = 0;
    ASSERT_EQ(m.edge_count(), edges);
    for (VarIndex i = 0; i < n; ++i) {
      std::sort(rows[i].begin(), rows[i].end());
      ASSERT_EQ(m.diag(i), diag[i]);
      ASSERT_EQ(m.degree(i), rows[i].size());
      max_degree = std::max(max_degree, rows[i].size());
      std::uint64_t row_abs = static_cast<std::uint64_t>(std::abs(diag[i]));
      EXPECT_EQ(testing::couplings(m, i), rows[i]);
      for (const auto& [j, w] : rows[i]) {
        row_abs += static_cast<std::uint64_t>(std::abs(w));
      }
      bound = std::max(bound, row_abs);
      if (m.has_dense_rows()) {
        std::vector<Weight> dense(n, 0);
        for (const auto& [j, w] : rows[i]) dense[j] = w;
        m.with_dense_rows([&](const auto* w) {
          EXPECT_TRUE(std::equal(dense.begin(), dense.end(), w + i * n));
        });
      }
    }
    EXPECT_EQ(m.delta_bound(), bound);
    EXPECT_EQ(m.max_degree(), max_degree);
    const RowWidth width = max_coupling <= 127     ? RowWidth::kInt8
                           : max_coupling <= 32767 ? RowWidth::kInt16
                                                   : RowWidth::kInt32;
    EXPECT_EQ(m.row_width(), width);
    ++widths_seen[width];
    EXPECT_EQ(m.has_dense_rows(), backend == QuboBackend::kDense ||
                                      (backend == QuboBackend::kAuto &&
                                       n >= 2 &&
                                       m.density() >=
                                           QuboModel::kDenseDensityThreshold));
  }
  EXPECT_GT(widths_seen[RowWidth::kInt8], 0);
  EXPECT_GT(widths_seen[RowWidth::kInt16], 0);
  EXPECT_GT(widths_seen[RowWidth::kInt32], 0);
}

TEST(QuboModel, CouplingsAreSymmetric) {
  for (const QuboBackend backend : {QuboBackend::kCsr, QuboBackend::kDense}) {
    const QuboModel m = random_model(20, 0.4, 5, 11, backend);
    for (VarIndex i = 0; i < m.size(); ++i) {
      m.for_each_coupling(i, [&](VarIndex j, Weight w) {
        EXPECT_EQ(m.weight(j, i), w);
        EXPECT_EQ(m.weight(i, j), w);
      });
    }
  }
}

TEST(QuboModel, DenseModelHasNoCsrRows) {
  // The matrix is the whole of a dense model: no CSR arrays are kept, and
  // asking for a CSR row throws rather than answering with an empty one.
  const QuboModel m = random_model(20, 0.9, 5, 11, QuboBackend::kDense);
  ASSERT_TRUE(m.has_dense_rows());
  EXPECT_THROW((void)m.csr_row(0), std::invalid_argument);
  EXPECT_EQ(m.memory_bytes(),
            sizeof(QuboModel) + 20 * sizeof(Weight) + 20 * 20);
}

TEST(QuboModel, DegreeAndMaxDegree) {
  QuboBuilder b(4);
  b.add_quadratic(0, 1, 1).add_quadratic(0, 2, 1).add_quadratic(0, 3, 1);
  const QuboModel m = b.build();
  EXPECT_EQ(m.degree(0), 3u);
  EXPECT_EQ(m.degree(1), 1u);
  EXPECT_EQ(m.max_degree(), 3u);
}

TEST(QuboModel, EnergyOfZeroAndOnesVectors) {
  QuboBuilder b(3);
  b.add_linear(0, 1).add_linear(1, 2).add_linear(2, 3);
  b.add_quadratic(0, 1, 10).add_quadratic(1, 2, -4);
  const QuboModel m = b.build();
  BitVector zero(3), ones(3);
  ones.fill(true);
  EXPECT_EQ(m.energy(zero), 0);
  EXPECT_EQ(m.energy(ones), 1 + 2 + 3 + 10 - 4);
}

TEST(QuboModel, EnergyRejectsWrongLength) {
  const QuboModel m = random_model(5, 0.5, 3, 1);
  EXPECT_THROW((void)m.energy(BitVector(4)), std::invalid_argument);
}

// Property sweep: energy() and delta() agree with naive references across
// sizes and densities.
class QuboModelProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(QuboModelProperty, EnergyMatchesNaive) {
  const auto [n, density] = GetParam();
  const QuboModel m = random_model(n, density, 9, 100 + n);
  Rng rng(n * 31 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVector x = random_solution(n, rng);
    EXPECT_EQ(m.energy(x), naive_energy(m, x));
  }
}

TEST_P(QuboModelProperty, DeltaMatchesEnergyDifference) {
  const auto [n, density] = GetParam();
  const QuboModel m = random_model(n, density, 9, 200 + n);
  Rng rng(n * 37 + 5);
  for (int trial = 0; trial < 5; ++trial) {
    BitVector x = random_solution(n, rng);
    const Energy e = m.energy(x);
    for (VarIndex k = 0; k < m.size(); ++k) {
      BitVector fx = x;
      fx.flip(k);
      EXPECT_EQ(m.delta(x, k), m.energy(fx) - e)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST_P(QuboModelProperty, DeltaAllMatchesPerBitDelta) {
  const auto [n, density] = GetParam();
  const QuboModel m = random_model(n, density, 9, 300 + n);
  Rng rng(n * 41 + 3);
  const BitVector x = random_solution(n, rng);
  std::vector<Energy> all;
  m.delta_all(x, all);
  ASSERT_EQ(all.size(), m.size());
  for (VarIndex k = 0; k < m.size(); ++k) {
    EXPECT_EQ(all[k], m.delta(x, k));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuboModelProperty,
    ::testing::Combine(::testing::Values(2, 3, 8, 17, 40, 64, 65),
                       ::testing::Values(0.1, 0.5, 1.0)));

TEST(QuboModel, FlipBoundDominatesDelta) {
  const QuboModel m = random_model(30, 0.5, 7, 55);
  Rng rng(9);
  const BitVector x = random_solution(30, rng);
  for (VarIndex k = 0; k < m.size(); ++k) {
    EXPECT_LE(std::abs(m.delta(x, k)), m.flip_bound(k));
  }
}

TEST(QuboModel, DescribeMentionsSizeAndDensity) {
  const QuboModel dense = random_model(10, 1.0, 3, 2);
  EXPECT_NE(dense.describe().find("n=10"), std::string::npos);
  EXPECT_NE(dense.describe().find("dense"), std::string::npos);
  const QuboModel sparse = random_model(50, 0.05, 3, 2);
  EXPECT_NE(sparse.describe().find("sparse"), std::string::npos);
}

TEST(QuboModel, DescribeNamesDeltaWidth) {
  EXPECT_NE(random_model(10, 1.0, 3, 2).describe().find("delta=int16"),
            std::string::npos);
  EXPECT_NE(random_model(10, 1.0, 3, 2, QuboBackend::kAuto, 1 << 20)
                .describe()
                .find("delta=int64"),
            std::string::npos);
}

TEST(QuboModel, DeltaBoundIsTheLargestFlipBound) {
  for (const double density : {0.1, 0.5, 1.0}) {
    const QuboModel m = random_model(40, density, 9, 56);
    Energy expected = 0;
    for (VarIndex k = 0; k < m.size(); ++k) {
      expected = std::max(expected, m.flip_bound(k));
    }
    EXPECT_EQ(m.delta_bound(), static_cast<std::uint64_t>(expected))
        << density;
  }
}

TEST(QuboModel, WidthSwitchesAboveInt16Max) {
  // Row 0 sums |2| + |-5| + |W_00|; the bound decides the Delta width
  // exactly at INT16_MAX.  The rows hold only |W_ij| <= 5, so the dense
  // matrix is stored once at int8 on both sides of that bound.
  constexpr Weight kMax16 = std::numeric_limits<std::int16_t>::max();
  for (const Weight extra : {0, 1}) {
    QuboBuilder b(3);
    b.add_linear(0, -(kMax16 - 7 + extra));
    b.add_quadratic(0, 1, 2).add_quadratic(0, 2, -5);
    b.set_backend(QuboBackend::kDense);
    const QuboModel m = b.build();
    EXPECT_EQ(m.delta_bound(), static_cast<std::uint64_t>(kMax16 + extra));
    EXPECT_EQ(m.delta_width(),
              extra == 0 ? DeltaWidth::kInt16 : DeltaWidth::kInt64);
    EXPECT_EQ(m.row_width(), RowWidth::kInt8);
    QuboBuilder csr(3);
    csr.add_linear(0, -(kMax16 - 7 + extra));
    csr.add_quadratic(0, 1, 2).add_quadratic(0, 2, -5);
    csr.set_backend(QuboBackend::kCsr);
    // A dense model owns its diagonal and its matrix, nothing else.
    EXPECT_EQ(m.memory_bytes(), sizeof(QuboModel) + 3 * sizeof(Weight) + 9);
    EXPECT_EQ(csr.build().memory_bytes(),
              sizeof(QuboModel) + 3 * sizeof(Weight) +
                  4 * sizeof(std::size_t) +
                  4 * (sizeof(VarIndex) + sizeof(Weight)));
    m.with_dense_rows([](const auto* w) { EXPECT_EQ(Weight{w[1]}, 2); });
  }
}

TEST(QuboModel, RowWidthIsTheNarrowestHoldingEveryCoupling) {
  // The largest off-diagonal |W_ij| decides: 127 fits int8, 128 and -128
  // do not (int8 excludes its lowest value, so a weight negates in place);
  // likewise 32767 / 32768 / -32768 at int16.  A diagonal far past every
  // bound never counts.
  struct Case {
    Weight w;
    RowWidth want;
    std::size_t bytes;
  };
  constexpr Weight kMax16 = std::numeric_limits<std::int16_t>::max();
  for (const Case& c : {Case{127, RowWidth::kInt8, 1},
                        Case{-127, RowWidth::kInt8, 1},
                        Case{128, RowWidth::kInt16, 2},
                        Case{-128, RowWidth::kInt16, 2},
                        Case{kMax16, RowWidth::kInt16, 2},
                        Case{-kMax16, RowWidth::kInt16, 2},
                        Case{kMax16 + 1, RowWidth::kInt32, 4},
                        Case{-kMax16 - 1, RowWidth::kInt32, 4}}) {
    SCOPED_TRACE(c.w);
    for (const QuboBackend backend : {QuboBackend::kDense,
                                      QuboBackend::kCsr}) {
      QuboBuilder b(3);
      b.add_linear(1, std::numeric_limits<Weight>::min());
      b.add_quadratic(0, 1, c.w).add_quadratic(1, 2, -1);
      b.set_backend(backend);
      const QuboModel m = b.build();
      EXPECT_EQ(m.row_width(), c.want);
      EXPECT_EQ(m.delta_width(), DeltaWidth::kInt64);
      if (backend == QuboBackend::kCsr) {
        EXPECT_EQ(m.describe().find("rows="), std::string::npos);
        continue;
      }
      EXPECT_NE(m.describe().find(std::string("rows=") + to_string(c.want)),
                std::string::npos);
      EXPECT_EQ(m.memory_bytes(),
                sizeof(QuboModel) + 3 * sizeof(Weight) + 9 * c.bytes);
      m.with_dense_rows([&](const auto* w) {
        EXPECT_EQ(sizeof(*w), c.bytes);
        EXPECT_EQ(Weight{w[1]}, c.w);  // W_01
        EXPECT_EQ(Weight{w[3]}, c.w);  // W_10
        EXPECT_EQ(Weight{w[4]}, 0);    // the diagonal slot
        EXPECT_EQ(Weight{w[5]}, -1);   // W_12
      });
      BitVector ones(3);
      ones.fill(true);
      EXPECT_EQ(m.energy(ones), Energy{std::numeric_limits<Weight>::min()} +
                                    c.w - 1);
    }
  }
}

/// Complete model with couplings of +-INT32_MAX and diagonals alternating
/// INT32_MIN / INT32_MAX: the int64 kernel and the widest sums.
QuboModel extreme_model(std::size_t n, QuboBackend backend) {
  constexpr Weight kMax = std::numeric_limits<Weight>::max();
  Rng rng(77);
  QuboBuilder b(n);
  b.set_backend(backend);
  for (VarIndex i = 0; i < n; ++i) {
    b.add_linear(i, i % 2 == 0 ? std::numeric_limits<Weight>::min() : kMax);
    for (VarIndex j = i + 1; j < n; ++j) {
      b.add_quadratic(i, j, rng.next_bit() ? kMax : -kMax);
    }
  }
  return b.build();
}

TEST(QuboModel, EnergyAndDeltasExactAtExtremeWeights) {
  // The branch-free dense (row mask) and CSR energy and Delta loops agree
  // with each other and with the naive reference at the int32 extremes.
  for (const std::size_t n : {2u, 63u, 130u}) {
    SCOPED_TRACE(n);
    const QuboModel dense = extreme_model(n, QuboBackend::kDense);
    const QuboModel csr = extreme_model(n, QuboBackend::kCsr);
    ASSERT_EQ(dense.delta_width(), DeltaWidth::kInt64);
    Rng rng(n);
    for (int trial = 0; trial < 6; ++trial) {
      BitVector x = random_solution(n, rng);
      if (trial == 0) x.fill(true);
      EXPECT_EQ(dense.energy(x), csr.energy(x));
      EXPECT_EQ(csr.energy(x), naive_energy(csr, x));
      std::vector<Energy> dd, dc;
      dense.delta_all(x, dd);
      csr.delta_all(x, dc);
      EXPECT_EQ(dd, dc);
      for (VarIndex k = 0; k < n; ++k) {
        ASSERT_EQ(dc[k], csr.delta(x, k)) << k;
      }
    }
  }
}

TEST(QuboModel, Int16DenseEnergyMatchesCsr) {
  for (const std::size_t n : {1u, 64u, 129u}) {
    const QuboModel dense = random_model(n, 0.7, 9, 57, QuboBackend::kDense);
    const QuboModel csr = random_model(n, 0.7, 9, 57, QuboBackend::kCsr);
    ASSERT_EQ(dense.delta_width(), DeltaWidth::kInt16);
    Rng rng(n + 3);
    for (int trial = 0; trial < 6; ++trial) {
      const BitVector x = random_solution(n, rng);
      EXPECT_EQ(dense.energy(x), csr.energy(x)) << n;
      std::vector<Energy> dd, dc;
      dense.delta_all(x, dd);
      csr.delta_all(x, dc);
      EXPECT_EQ(dd, dc) << n;
    }
  }
}

TEST(IsingModel, HamiltonianDirectEvaluation) {
  IsingModel ising(3);
  ising.add_coupling(0, 1, 2);
  ising.add_coupling(1, 2, -1);
  ising.set_bias(0, 3);
  // S = (+1, -1, +1): H = 2*(+1)(-1) + (-1)(-1)(+1) + 3*(+1) = -2+1+3 = 2.
  EXPECT_EQ(ising.hamiltonian({1, -1, 1}), 2);
}

TEST(IsingModel, RejectsBadSpins) {
  IsingModel ising(2);
  EXPECT_THROW((void)ising.hamiltonian({1, 0}), std::invalid_argument);
  EXPECT_THROW((void)ising.hamiltonian({1}), std::invalid_argument);
  EXPECT_THROW(ising.add_coupling(0, 0, 1), std::invalid_argument);
}

// Ising <-> QUBO equivalence: H(S) = E(X) + offset for every assignment.
class ConversionProperty : public ::testing::TestWithParam<int> {};

TEST_P(ConversionProperty, HamiltonianEqualsEnergyPlusOffset) {
  const int n = GetParam();
  Rng rng(n * 7 + 13);
  IsingModel ising(n);
  for (int i = 0; i + 1 < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.next_bernoulli(0.6)) {
        ising.add_coupling(i, j,
                           static_cast<Weight>(rng.next_index(9)) - 4);
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    ising.set_bias(i, static_cast<Weight>(rng.next_index(9)) - 4);
  }
  const auto [qubo, offset] = ising_to_qubo(ising);

  // Exhaustive over all 2^n assignments.
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << n); ++bits) {
    BitVector x(n);
    std::vector<int> s(n);
    for (int i = 0; i < n; ++i) {
      const bool v = (bits >> i) & 1;
      x.set(i, v);
      s[i] = v ? 1 : -1;
    }
    EXPECT_EQ(ising.hamiltonian(s), qubo.energy(x) + offset);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConversionProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 10));

TEST(Conversion, SpinBinaryRoundTrip) {
  Rng rng(3);
  const BitVector x = random_solution(67, rng);
  EXPECT_EQ(to_binary(to_spins(x)), x);
}

TEST(Conversion, SigmaMapping) {
  EXPECT_EQ(sigma(false), -1);
  EXPECT_EQ(sigma(true), 1);
}

}  // namespace
}  // namespace dabs
