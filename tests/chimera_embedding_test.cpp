// Tests for the Chimera topology and clique minor-embedding.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baseline/exhaustive.hpp"
#include "core/dabs_solver.hpp"
#include "problems/chimera.hpp"
#include "problems/embedding.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

namespace pr = problems;
using testing::solve_on;

TEST(Chimera, NodeAndEdgeCountsClosedForm) {
  for (std::size_t m : {1u, 2u, 4u, 8u}) {
    const pr::ChimeraGraph g(m);
    EXPECT_EQ(g.node_count(), 8 * m * m);
    // 16 internal per cell + 4 vertical per column boundary + 4 horizontal.
    const std::size_t expected =
        16 * m * m + 2 * 4 * m * (m - 1);
    EXPECT_EQ(g.edges().size(), expected) << "m=" << m;
  }
}

TEST(Chimera, C16MatchesDWave2000Q) {
  const pr::ChimeraGraph g(16);
  EXPECT_EQ(g.node_count(), 2048u);  // the 2000Q qubit count
}

TEST(Chimera, NoDuplicateEdges) {
  const pr::ChimeraGraph g(3);
  std::set<std::pair<VarIndex, VarIndex>> seen;
  for (auto [a, b] : g.edges()) {
    EXPECT_NE(a, b);
    const auto key = std::minmax(a, b);
    EXPECT_TRUE(seen.insert({key.first, key.second}).second);
  }
}

TEST(Chimera, DegreesMatchStructure) {
  const pr::ChimeraGraph g(3);
  const auto deg = g.degrees();
  // Interior qubit: 4 internal + 2 external = 6; corners have 5.
  EXPECT_EQ(*std::max_element(deg.begin(), deg.end()), 6u);
  EXPECT_EQ(*std::min_element(deg.begin(), deg.end()), 5u);
}

TEST(Chimera, AdjacentAgreesWithEdgeList) {
  const pr::ChimeraGraph g(2);
  std::set<std::pair<VarIndex, VarIndex>> edge_set;
  for (auto [a, b] : g.edges()) {
    edge_set.insert(std::minmax(a, b));
  }
  for (VarIndex a = 0; a < g.node_count(); ++a) {
    for (VarIndex b = a + 1; b < g.node_count(); ++b) {
      EXPECT_EQ(g.adjacent(a, b), edge_set.count({a, b}) > 0)
          << a << "," << b;
    }
  }
}

TEST(Chimera, CoordinateRoundTrip) {
  const pr::ChimeraGraph g(4);
  for (VarIndex v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(g.node_id(g.coord(v)), v);
  }
}

TEST(CliqueEmbedding, ValidForAllSizesUpTo4m) {
  for (std::size_t m : {1u, 2u, 3u}) {
    const pr::ChimeraGraph g(m);
    for (std::size_t k = 1; k <= 4 * m; ++k) {
      const pr::Embedding emb = pr::chimera_clique_embedding(g, k);
      EXPECT_EQ(emb.logical_count(), k);
      EXPECT_NO_THROW(pr::validate_clique_embedding(g, emb))
          << "m=" << m << " k=" << k;
      EXPECT_EQ(emb.max_chain_length(), 2 * m);
    }
    EXPECT_THROW((void)pr::chimera_clique_embedding(g, 4 * m + 1),
                 std::invalid_argument);
  }
}

TEST(CliqueEmbedding, ValidatorCatchesBrokenChains) {
  const pr::ChimeraGraph g(2);
  pr::Embedding emb = pr::chimera_clique_embedding(g, 4);
  // Disconnect a chain by removing its middle qubits.
  pr::Embedding broken = emb;
  auto& chain = broken.chains[0];
  chain.erase(chain.begin() + 1, chain.begin() + 3);
  EXPECT_THROW(pr::validate_clique_embedding(g, broken),
               std::invalid_argument);
  // Overlapping chains.
  pr::Embedding overlap = emb;
  overlap.chains[1][0] = overlap.chains[0][0];
  EXPECT_THROW(pr::validate_clique_embedding(g, overlap),
               std::invalid_argument);
}

TEST(EmbedQubo, ChainConsistentStatesPreserveEnergy) {
  // For any logical X, the physical state that sets every chain to X's
  // value has physical energy == logical energy (penalties vanish).
  const QuboModel logical = testing::random_model(8, 1.0, 5, 42);
  const pr::ChimeraGraph g(2);
  const pr::Embedding emb = pr::chimera_clique_embedding(g, 8);
  const QuboModel physical = pr::embed_qubo(logical, g, emb, 100);

  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVector x = testing::random_solution(8, rng);
    BitVector phys(g.node_count());
    for (std::size_t i = 0; i < 8; ++i) {
      for (const VarIndex v : emb.chains[i]) phys.set(v, x.get(i));
    }
    EXPECT_EQ(physical.energy(phys), logical.energy(x));
    EXPECT_TRUE(pr::chains_intact(phys, emb));
    EXPECT_EQ(pr::unembed(phys, emb), x);
  }
}

TEST(EmbedQubo, BrokenChainPaysPenalty) {
  const QuboModel logical = testing::random_model(4, 1.0, 3, 43);
  const pr::ChimeraGraph g(1);
  const pr::Embedding emb = pr::chimera_clique_embedding(g, 4);
  const Weight strength = 1000;
  const QuboModel physical = pr::embed_qubo(logical, g, emb, strength);

  // All-agree state vs one flipped chain qubit.
  BitVector phys(g.node_count());
  for (const VarIndex v : emb.chains[0]) phys.set(v, true);
  const Energy agree = physical.energy(phys);
  BitVector broken = phys;
  broken.flip(emb.chains[0][0]);
  // Breaking one chain edge costs at least strength minus logical weights.
  EXPECT_GE(physical.energy(broken), agree + strength - 100);
  EXPECT_FALSE(pr::chains_intact(broken, emb));
}

TEST(EmbedQubo, PhysicalOptimumDecodesToLogicalOptimum) {
  // End-to-end: solve the embedded problem, decode, compare with the exact
  // logical optimum.
  const QuboModel logical = testing::random_model(6, 1.0, 4, 44);
  const Energy truth = solve_on(ExhaustiveSolver(), logical).best_energy;

  const pr::ChimeraGraph g(2);
  const pr::Embedding emb = pr::chimera_clique_embedding(g, 6);
  const QuboModel physical = pr::embed_qubo(logical, g, emb);  // auto S

  SolverConfig c;
  c.devices = 2;
  c.device.blocks = 2;
  c.mode = ExecutionMode::kSynchronous;
  c.stop.target_energy = truth;  // physical E == logical E when intact
  c.stop.max_batches = 4000;
  const SolveReport r = solve_on(DabsSolver(c), physical);
  ASSERT_TRUE(r.reached_target)
      << "best " << r.best_energy << " vs truth " << truth;
  const BitVector decoded = pr::unembed(r.best_solution, emb);
  EXPECT_EQ(logical.energy(decoded), truth);
}

TEST(EmbedQubo, AutoChainStrengthIsPositive) {
  const QuboModel logical = testing::random_model(4, 1.0, 7, 45);
  const pr::ChimeraGraph g(1);
  const pr::Embedding emb = pr::chimera_clique_embedding(g, 4);
  // Auto strength must embed without throwing and produce a model whose
  // optimum is chain-consistent (checked via exhaustive on 8 qubits).
  const QuboModel physical = pr::embed_qubo(logical, g, emb, 0);
  const SolveReport r = solve_on(ExhaustiveSolver(), physical);
  EXPECT_TRUE(pr::chains_intact(r.best_solution, emb));
  EXPECT_EQ(logical.energy(pr::unembed(r.best_solution, emb)),
            r.best_energy);
}

}  // namespace
}  // namespace dabs
