// Tests for the MaxCut reduction and instance generators (paper §II-A).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baseline/exhaustive.hpp"
#include "problems/maxcut.hpp"
#include "qubo/qubo_builder.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

namespace pr = problems;
using testing::model_digest;
using testing::solve_on;

pr::MaxCutInstance tiny_instance() {
  // Triangle with weights 1, 2, -1 plus a pendant edge.
  pr::MaxCutInstance inst;
  inst.n = 4;
  inst.name = "tiny";
  inst.edges = {{0, 1, 1}, {1, 2, 2}, {0, 2, -1}, {2, 3, 3}};
  return inst;
}

TEST(MaxCut, CutValueCountsCrossingEdges) {
  const auto inst = tiny_instance();
  // Partition {0,2} vs {1,3}: crossing edges (0,1)=1, (1,2)=2, (2,3)=3.
  const BitVector part = BitVector::from_string("0101");
  EXPECT_EQ(inst.cut_value(part), 1 + 2 + 3);
  // All on one side: nothing crosses.
  EXPECT_EQ(inst.cut_value(BitVector(4)), 0);
}

TEST(MaxCut, CutValueMatchesTheBranchyLoop) {
  // cut_value adds each edge's weight under a mask; the reference branches
  // per edge.  Weights span +-w and zero, endpoints repeat, and the
  // partitions include all-zero and all-one.
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    pr::MaxCutInstance inst;
    inst.n = 1 + rng.next_index(150);
    const std::size_t m = rng.next_index(4 * inst.n + 1);
    for (std::size_t t = 0; t < m; ++t) {
      const auto u = static_cast<VarIndex>(rng.next_index(inst.n));
      const auto v = static_cast<VarIndex>(rng.next_index(inst.n));
      const Weight big = trial % 4 == 0 ? 1 << 20 : 5;
      const auto w = static_cast<Weight>(
          static_cast<Weight>(rng.next_index(2 * big + 1)) - big);
      inst.edges.push_back({u, v, t % 7 == 0 ? 0 : w});
    }
    for (int p = 0; p < 8; ++p) {
      BitVector x = testing::random_solution(inst.n, rng);
      if (p == 0) x = BitVector(inst.n);
      if (p == 1) x.fill(true);
      Energy want = 0;
      for (const pr::WeightedEdge& e : inst.edges) {
        if (x.get(e.u) != x.get(e.v)) want += e.w;
      }
      EXPECT_EQ(inst.cut_value(x), want);
    }
  }
}

TEST(MaxCut, EnergyEqualsNegativeCutForAllAssignments) {
  const auto inst = tiny_instance();
  const QuboModel m = pr::maxcut_to_qubo(inst);
  for (std::uint64_t bits = 0; bits < 16; ++bits) {
    BitVector x(4);
    for (int i = 0; i < 4; ++i) x.set(i, (bits >> i) & 1);
    EXPECT_EQ(m.energy(x), -inst.cut_value(x)) << "bits=" << bits;
  }
}

TEST(MaxCut, RandomInstancePropertyEnergyIsNegativeCut) {
  const auto inst = pr::make_random_maxcut(
      30, 60, pr::EdgeWeights::kPlusMinusOne, 99, "prop");
  const QuboModel m = pr::maxcut_to_qubo(inst);
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const BitVector x = testing::random_solution(30, rng);
    EXPECT_EQ(m.energy(x), -inst.cut_value(x));
  }
}

TEST(MaxCut, OptimumMatchesExhaustiveSearch) {
  const auto inst =
      pr::make_random_maxcut(12, 30, pr::EdgeWeights::kPlusMinusOne, 7, "x");
  const QuboModel m = pr::maxcut_to_qubo(inst);
  const SolveReport r = solve_on(ExhaustiveSolver(), m);
  // Maximum cut by brute force over partitions.
  Energy best_cut = 0;
  for (std::uint64_t bits = 0; bits < (1u << 12); ++bits) {
    BitVector x(12);
    for (int i = 0; i < 12; ++i) x.set(i, (bits >> i) & 1);
    best_cut = std::max(best_cut, inst.cut_value(x));
  }
  EXPECT_EQ(-r.best_energy, best_cut);
}

TEST(MaxCut, GeneratorProducesExactEdgeCount) {
  const auto inst =
      pr::make_random_maxcut(100, 500, pr::EdgeWeights::kPlusOne, 3, "gen");
  EXPECT_EQ(inst.n, 100u);
  EXPECT_EQ(inst.edges.size(), 500u);
  // No duplicates, no self loops, weights all +1.
  std::set<std::pair<VarIndex, VarIndex>> seen;
  for (const auto& e : inst.edges) {
    EXPECT_NE(e.u, e.v);
    EXPECT_EQ(e.w, 1);
    EXPECT_TRUE(seen.insert({std::min(e.u, e.v), std::max(e.u, e.v)}).second);
  }
}

TEST(MaxCut, GeneratorIsDeterministicInSeed) {
  const auto a =
      pr::make_random_maxcut(50, 100, pr::EdgeWeights::kPlusMinusOne, 5, "a");
  const auto b =
      pr::make_random_maxcut(50, 100, pr::EdgeWeights::kPlusMinusOne, 5, "b");
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].u, b.edges[i].u);
    EXPECT_EQ(a.edges[i].v, b.edges[i].v);
    EXPECT_EQ(a.edges[i].w, b.edges[i].w);
  }
}

TEST(MaxCut, CompleteGraphHasAllPairs) {
  const auto inst = pr::make_complete_maxcut(20, 1, "K20");
  EXPECT_EQ(inst.edge_count(), 20u * 19 / 2);
  int plus = 0, minus = 0;
  std::vector<std::pair<VarIndex, VarIndex>> pairs;
  inst.for_each_edge([&](const pr::WeightedEdge& e) {
    EXPECT_TRUE(e.w == 1 || e.w == -1);
    (e.w == 1 ? plus : minus)++;
    pairs.emplace_back(e.u, e.v);
  });
  EXPECT_GT(plus, 0);
  EXPECT_GT(minus, 0);
  // Every pair once, in ascending (u, v).
  ASSERT_EQ(pairs.size(), 20u * 19 / 2);
  std::size_t t = 0;
  for (VarIndex u = 0; u < 20; ++u) {
    for (VarIndex v = u + 1; v < 20; ++v, ++t) {
      EXPECT_EQ(pairs[t], std::make_pair(u, v));
    }
  }
}

TEST(MaxCut, PublishedInstanceShapes) {
  const auto k2000 = pr::make_k2000();
  EXPECT_EQ(k2000.n, 2000u);
  EXPECT_EQ(k2000.edge_count(), 2000u * 1999 / 2);
  EXPECT_EQ(k2000.name, "K2000");
  // One sign bit per pair and no edge list.
  EXPECT_TRUE(k2000.edges.empty());
  EXPECT_LE(k2000.signs.size() * sizeof(std::uint64_t), 250000u);

  const auto g22 = pr::make_g22_like();
  EXPECT_EQ(g22.n, 2000u);
  EXPECT_EQ(g22.edges.size(), 19990u);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(g22.edges[i].w, 1);

  const auto g39 = pr::make_g39_like();
  EXPECT_EQ(g39.n, 2000u);
  EXPECT_EQ(g39.edges.size(), 11778u);
}

// FNV-1a, one 64-bit value at a time, over an instance's edges as
// for_each_edge visits them: their count, then each edge's u, v and w.
std::uint64_t edges_digest(const pr::MaxCutInstance& inst) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::int64_t v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 0x100000001b3ULL;
  };
  mix(static_cast<std::int64_t>(inst.edge_count()));
  inst.for_each_edge([&](const pr::WeightedEdge& e) {
    mix(e.u);
    mix(e.v);
    mix(e.w);
  });
  return h;
}

// Every random instance, and so every model, golden and model-cache key
// built from one, is pinned by its edge list: the draw order and the
// rejection of self-loops and repeated pairs must not change.  The n=200
// m=2000 seeds are the service benchmark's specs; n=40 m=780 is the
// complete graph drawn at random (the longest rejection runs).
TEST(MaxCut, RandomGeneratorGolden) {
  constexpr auto kPm1 = pr::EdgeWeights::kPlusMinusOne;
  const std::array<std::uint64_t, 8> service = {
      0xd6aca2310f549aa4ULL, 0x5b84f9e6ac7f9e3dULL, 0x9df7df73e792214cULL,
      0xea87c80b8191a6a4ULL, 0xecb04c8fcae1df3aULL, 0x3ebbd7250cb209f0ULL,
      0x4a7582e0189ba5a7ULL, 0x7efa4f34a54b415bULL};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = pr::make_random_maxcut(200, 2000, kPm1, seed);
    EXPECT_EQ(edges_digest(inst), service[seed - 1])
        << "seed " << seed << ": 0x" << std::hex << edges_digest(inst);
  }
  const auto golden = [](const pr::MaxCutInstance& inst, std::uint64_t want) {
    EXPECT_EQ(edges_digest(inst), want)
        << inst.name << ": 0x" << std::hex << edges_digest(inst);
  };
  golden(pr::make_random_maxcut(100, 500, pr::EdgeWeights::kPlusOne, 1,
                                "n100"),
         0x326803ab585f7407ULL);
  golden(pr::make_random_maxcut(40, 780, kPm1, 3, "n40-complete"),
         0xc4e41224c581a01dULL);
  golden(pr::make_random_maxcut(10, 0, kPm1, 5, "m0"), 0xaf63bd4c8601b7dfULL);
  golden(pr::make_g22_like(), 0x2c22ebc44db1ddb4ULL);
  golden(pr::make_g39_like(), 0x863e29a18bd5cba3ULL);
}

// The complete graphs' weights, pinned while they were still an edge list:
// the sign bits must keep every weight, in order, of the serial chain of
// next_bit() draws.
TEST(MaxCut, CompleteGeneratorGolden) {
  const auto golden = [](const pr::MaxCutInstance& inst, std::uint64_t want) {
    EXPECT_EQ(edges_digest(inst), want)
        << inst.name << ": 0x" << std::hex << edges_digest(inst);
  };
  golden(pr::make_k2000(), 0xc45ce273a09aa701ULL);
  golden(pr::make_complete_maxcut(70, 5), 0x4bf938f0b3137f3aULL);
}

// The same graph as an edge list, read through for_each_edge.
pr::MaxCutInstance as_edge_list(const pr::MaxCutInstance& inst) {
  pr::MaxCutInstance out;
  out.n = inst.n;
  out.name = inst.name;
  inst.for_each_edge(
      [&](const pr::WeightedEdge& e) { out.edges.push_back(e); });
  return out;
}

// Sign-bit instances at row lengths around the 64-bit word and the
// 2048-draw chunk (n = 64 is all serial tail, 65 one chunk and a tail, 130
// four chunks) agree with the same graph as an edge list on the cut, the
// edge count and the model at every backend, and their bits are the serial
// next_bit() chain's.
TEST(MaxCutSignBits, MatchTheEdgeList) {
  for (const std::size_t n : {2, 3, 63, 64, 65, 130}) {
    SCOPED_TRACE(n);
    const pr::MaxCutInstance signs = pr::make_complete_maxcut(n, 40 + n);
    ASSERT_TRUE(signs.edges.empty());
    ASSERT_EQ(signs.signs.size(), pr::MaxCutInstance::sign_words(n));
    const pr::MaxCutInstance list = as_edge_list(signs);
    EXPECT_EQ(signs.edge_count(), n * (n - 1) / 2);
    EXPECT_EQ(list.edge_count(), signs.edge_count());

    Rng serial(40 + n);
    for (const pr::WeightedEdge& e : list.edges) {
      ASSERT_EQ(e.w, serial.next_bit() ? 1 : -1) << e.u << ' ' << e.v;
    }

    Rng rng(n);
    for (int p = 0; p < 20; ++p) {
      BitVector x = testing::random_solution(n, rng);
      if (p == 0) x = BitVector(n);
      if (p == 1) x.fill(true);
      EXPECT_EQ(signs.cut_value(x), list.cut_value(x)) << x.to_string();
    }
    for (const QuboBackend b : {QuboBackend::kAuto, QuboBackend::kCsr,
                                QuboBackend::kDense}) {
      EXPECT_EQ(model_digest(pr::maxcut_to_qubo(signs, b)),
                model_digest(pr::maxcut_to_qubo(list, b)))
          << static_cast<int>(b);
    }

    // Sign bits and a listed edge together are their union.
    pr::MaxCutInstance both = signs;
    both.edges.push_back({0, static_cast<VarIndex>(n - 1), 3});
    pr::MaxCutInstance both_list = list;
    both_list.edges.push_back(both.edges.back());
    EXPECT_EQ(both.edge_count(), both_list.edge_count());
    EXPECT_EQ(edges_digest(both), edges_digest(both_list));
    const BitVector x = testing::random_solution(n, rng);
    EXPECT_EQ(both.cut_value(x), both_list.cut_value(x));
    EXPECT_EQ(model_digest(pr::maxcut_to_qubo(both)),
              model_digest(pr::maxcut_to_qubo(both_list)));
  }
}

TEST(MaxCutSignBits, RejectsAMismatchedSignVector) {
  pr::MaxCutInstance inst = pr::make_complete_maxcut(70, 5);
  inst.signs.pop_back();
  EXPECT_THROW((void)inst.cut_value(BitVector(70)), std::invalid_argument);
  EXPECT_THROW((void)pr::maxcut_to_qubo(inst), std::invalid_argument);
}

// A digest of the paper's K2000 model: any change to how it is encoded (a
// weight, a row order, a bound, the width or the backend) shows here.
TEST(MaxCut, K2000EncodeGolden) {
  const QuboModel m = pr::maxcut_to_qubo(pr::make_k2000());
  ASSERT_EQ(m.backend(), QuboBackend::kDense);
  EXPECT_EQ(m.row_width(), RowWidth::kInt8);
  EXPECT_EQ(m.max_degree(), 1999u);
  EXPECT_EQ(model_digest(m), 0xce4a177a7b0109f7ULL)
      << std::hex << model_digest(m);

  EXPECT_EQ(m.edge_count(), 1999000u);
  EXPECT_LE(m.memory_bytes(), std::size_t{4100000});  // the int8 matrix

  // Forced CSR: the same diagonal, rows and bounds, without dense rows.
  const QuboModel csr =
      pr::maxcut_to_qubo(pr::make_k2000(), QuboBackend::kCsr);
  ASSERT_EQ(csr.backend(), QuboBackend::kCsr);
  EXPECT_EQ(csr.delta_bound(), m.delta_bound());
  EXPECT_EQ(csr.max_degree(), m.max_degree());
  EXPECT_EQ(csr.row_width(), m.row_width());
  for (VarIndex i = 0; i < m.size(); ++i) {
    ASSERT_EQ(csr.diag(i), m.diag(i)) << i;
    ASSERT_EQ(testing::couplings(csr, i), testing::couplings(m, i)) << i;
  }
}

TEST(MaxCut, ReductionRejectsBadInstances) {
  // n = 2 and one edge is density 1: these take the dense path.  The same
  // edges after a sparse prefix (40 nodes, 10 edges) take the term path.
  for (const std::size_t n : {std::size_t{2}, std::size_t{40}}) {
    SCOPED_TRACE(n);
    pr::MaxCutInstance inst;
    inst.n = n;
    for (VarIndex v = 2; v < std::min<std::size_t>(n, 12); ++v) {
      inst.edges.push_back({1, v, 1});
    }
    for (const pr::WeightedEdge bad :
         {pr::WeightedEdge{0, 0, 1}, pr::WeightedEdge{0, 45, 1},
          pr::WeightedEdge{0, 1, pr::kMaxEdgeWeight + 1},
          pr::WeightedEdge{0, 1, -pr::kMaxEdgeWeight - 1}}) {
      pr::MaxCutInstance with_bad = inst;
      with_bad.edges.push_back(bad);
      EXPECT_THROW((void)pr::maxcut_to_qubo(with_bad), std::invalid_argument);
    }
  }
}

// What an encode gives: the model's digest and edge count, or the message
// it throws.
std::string outcome(const std::function<QuboModel()>& encode) {
  try {
    const QuboModel m = encode();
    std::ostringstream os;
    os << "model " << std::hex << model_digest(m) << std::dec << " edges "
       << m.edge_count() << ' ' << m.describe();
    return os.str();
  } catch (const std::invalid_argument& e) {
    return std::string("throws ") + e.what();
  }
}

// The term path by hand: a QuboBuilder fed every edge's terms.
QuboModel encode_by_terms(const pr::MaxCutInstance& inst,
                          QuboBackend backend) {
  QuboBuilder b(inst.n);
  b.set_backend(backend);
  for (const pr::WeightedEdge& e : inst.edges) {
    b.add_quadratic(e.u, e.v, 2 * e.w);
    b.add_linear(e.u, -e.w);
    b.add_linear(e.v, -e.w);
  }
  return b.build();
}

void expect_same_encode(const pr::MaxCutInstance& inst,
                        QuboBackend backend = QuboBackend::kAuto) {
  EXPECT_EQ(outcome([&] { return pr::maxcut_to_qubo(inst, backend); }),
            outcome([&] { return encode_by_terms(inst, backend); }));
}

// A dense-sized graph (K_n at +-1) is written straight into its matrix.
// Each edit below must give the model, or the exception, that a
// QuboBuilder fed the same terms gives.
TEST(MaxCutDenseEncode, MatchesTheTermPath) {
  const pr::MaxCutInstance base =
      as_edge_list(pr::make_complete_maxcut(70, 5));
  const auto with = [&](std::vector<pr::WeightedEdge> extra) {
    pr::MaxCutInstance inst = base;
    inst.edges.insert(inst.edges.end(), extra.begin(), extra.end());
    return inst;
  };
  const auto weight_of = [&](VarIndex u, VarIndex v) {
    for (const pr::WeightedEdge& e : base.edges) {
      if (e.u == u && e.v == v) return e.w;
    }
    return Weight{0};
  };
  const Weight big = pr::kMaxEdgeWeight;
  struct Case {
    const char* name;
    pr::MaxCutInstance inst;
    const char* want;  // what the direct encode gives
  };
  const Case cases[] = {
      {"as generated", base, "rows=int8"},
      {"duplicate edge, endpoints swapped", with({{7, 3, 1}, {3, 7, 1}}),
       "rows=int8"},
      {"a pair that cancels to zero", with({{9, 5, -weight_of(5, 9)}}),
       "edges 2414"},
      {"int16 rows", with({{2, 60, 100}}), "rows=int16"},
      {"int16 term summed back to int8", with({{1, 2, 100}, {2, 1, -100}}),
       "rows=int8"},
      {"int32 rows", with({{4, 8, 40000}}), "rows=int32"},
      {"int32 term summed back to int16", with({{4, 8, 40000}, {4, 8, -39900}}),
       "rows=int16"},
      {"diagonal past INT32_MIN",
       with({{0, 1, big - 2}, {0, 2, big - 2}, {3, 0, big - 2}}),
       "linear coefficient overflows"},
      {"diagonal past INT32_MAX",
       with({{0, 1, 2 - big}, {0, 2, 2 - big}, {3, 0, 2 - big}}),
       "linear coefficient overflows"},
      {"coupling past INT32_MAX mid-sum",
       with({{0, 1, big}, {1, 0, big}, {0, 1, -big}}), "rows=int32"},
      {"coupling past INT32_MAX", with({{0, 1, big}, {1, 0, big}}),
       "coefficient overflows"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string got =
        outcome([&] { return pr::maxcut_to_qubo(c.inst); });
    EXPECT_NE(got.find(c.want), std::string::npos) << got;
    expect_same_encode(c.inst);
    expect_same_encode(c.inst, QuboBackend::kDense);
  }
}

TEST(MaxCutDenseEncode, CoalescedDensityDecidesTheBackend) {
  // 400 raw edges over 40 nodes are density 0.51, but they are 200 pairs
  // each listed twice: 0.26 once coalesced, so kAuto builds CSR, as the
  // term path does.  A forced kDense still gets the matrix.
  const pr::MaxCutInstance once =
      pr::make_random_maxcut(40, 200, pr::EdgeWeights::kPlusMinusOne, 3);
  pr::MaxCutInstance twice = once;
  twice.edges.insert(twice.edges.end(), once.edges.begin(), once.edges.end());
  EXPECT_EQ(pr::maxcut_to_qubo(twice).backend(), QuboBackend::kCsr);
  EXPECT_EQ(pr::maxcut_to_qubo(twice, QuboBackend::kDense).backend(),
            QuboBackend::kDense);
  for (const QuboBackend b :
       {QuboBackend::kAuto, QuboBackend::kCsr, QuboBackend::kDense}) {
    expect_same_encode(twice, b);
    expect_same_encode(once, b);
  }
}

TEST(MaxCutDenseEncode, RandomInstancesMatchTheTermPath) {
  // Dense-sized graphs with repeated pairs in both orders, zero weights
  // and weights at every row width, edges in random order.
  Rng rng(29);
  for (int trial = 0; trial < 150; ++trial) {
    SCOPED_TRACE(trial);
    pr::MaxCutInstance inst;
    inst.n = 2 + rng.next_index(45);
    const std::size_t pairs = inst.n * (inst.n - 1) / 2;
    const std::size_t m = pairs / 2 + rng.next_index(pairs + 1);
    const Weight scale = std::array<Weight, 4>{
        1, 60, 20000, pr::kMaxEdgeWeight / 4}[trial % 4];
    for (std::size_t t = 0; t < m; ++t) {
      const auto u = static_cast<VarIndex>(rng.next_index(inst.n));
      auto v = static_cast<VarIndex>(rng.next_index(inst.n - 1));
      if (v >= u) ++v;
      const auto w = static_cast<Weight>(rng.next_index(5)) - 2;
      inst.edges.push_back({u, v, w * scale});
    }
    expect_same_encode(inst);
    expect_same_encode(inst, QuboBackend::kDense);
  }
}

}  // namespace
}  // namespace dabs
