#include "problems/embedding.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>

#include "qubo/qubo_builder.hpp"
#include "util/assert.hpp"

namespace dabs::problems {

std::size_t Embedding::max_chain_length() const {
  std::size_t mx = 0;
  for (const auto& c : chains) mx = std::max(mx, c.size());
  return mx;
}

Embedding chimera_clique_embedding(const ChimeraGraph& g,
                                   std::size_t logical_vars) {
  const std::size_t m = g.m();
  DABS_CHECK(logical_vars >= 1 && logical_vars <= 4 * m,
             "clique embedding into C(m) supports at most 4m variables");
  Embedding emb;
  emb.physical_nodes = g.node_count();
  emb.chains.resize(logical_vars);
  for (std::size_t i = 0; i < logical_vars; ++i) {
    const auto c = static_cast<std::uint16_t>(i / 4);
    const auto k = static_cast<std::uint8_t>(i % 4);
    auto& chain = emb.chains[i];
    chain.reserve(2 * m);
    for (std::uint16_t y = 0; y < m; ++y) {
      chain.push_back(g.node_id({y, c, 0, k}));  // vertical strip, column c
    }
    for (std::uint16_t x = 0; x < m; ++x) {
      chain.push_back(g.node_id({c, x, 1, k}));  // horizontal strip, row c
    }
  }
  return emb;
}

namespace {

/// Chain connectivity check by BFS over the physical adjacency restricted
/// to the chain.
bool chain_connected(const ChimeraGraph& g,
                     const std::vector<VarIndex>& chain) {
  if (chain.empty()) return false;
  std::set<VarIndex> members(chain.begin(), chain.end());
  std::set<VarIndex> visited;
  std::queue<VarIndex> frontier;
  frontier.push(chain[0]);
  visited.insert(chain[0]);
  while (!frontier.empty()) {
    const VarIndex v = frontier.front();
    frontier.pop();
    for (const VarIndex w : members) {
      if (!visited.count(w) && g.adjacent(v, w)) {
        visited.insert(w);
        frontier.push(w);
      }
    }
  }
  return visited.size() == members.size();
}

}  // namespace

void validate_clique_embedding(const ChimeraGraph& g, const Embedding& emb) {
  std::set<VarIndex> used;
  for (std::size_t i = 0; i < emb.chains.size(); ++i) {
    const auto& chain = emb.chains[i];
    DABS_CHECK(!chain.empty(),
               "chain " + std::to_string(i) + " is empty");
    for (const VarIndex v : chain) {
      DABS_CHECK(v < g.node_count(), "chain qubit out of range");
      DABS_CHECK(used.insert(v).second,
                 "qubit " + std::to_string(v) + " used by two chains");
    }
    DABS_CHECK(chain_connected(g, chain),
               "chain " + std::to_string(i) + " is disconnected");
  }
  // Every logical pair must share at least one physical coupler.
  for (std::size_t i = 0; i < emb.chains.size(); ++i) {
    for (std::size_t j = i + 1; j < emb.chains.size(); ++j) {
      bool coupled = false;
      for (const VarIndex a : emb.chains[i]) {
        for (const VarIndex b : emb.chains[j]) {
          if (g.adjacent(a, b)) {
            coupled = true;
            break;
          }
        }
        if (coupled) break;
      }
      DABS_CHECK(coupled, "chains " + std::to_string(i) + " and " +
                              std::to_string(j) + " share no coupler");
    }
  }
}

QuboModel embed_qubo(const QuboModel& logical, const ChimeraGraph& g,
                     const Embedding& emb, Weight chain_strength) {
  const std::size_t n = logical.size();
  DABS_CHECK(n == emb.logical_count(),
             "embedding size does not match the logical model");

  if (chain_strength == 0) {
    // Breaking one chain edge can at best remove the variable's total
    // incident weight from the energy; exceed that.
    Energy worst = 0;
    for (VarIndex i = 0; i < n; ++i) {
      worst = std::max(worst, logical.flip_bound(i));
    }
    DABS_CHECK(worst + 1 <= std::numeric_limits<Weight>::max() / 2,
               "automatic chain strength overflows int32");
    chain_strength = static_cast<Weight>(worst + 1);
  }

  QuboBuilder b(g.node_count());

  // Linear terms: split across the chain (remainder on the first qubit).
  for (VarIndex i = 0; i < n; ++i) {
    const Weight w = logical.diag(i);
    if (w == 0) continue;
    const auto& chain = emb.chains[i];
    const auto len = static_cast<Weight>(chain.size());
    const Weight share = static_cast<Weight>(w / len);
    const Weight rem = static_cast<Weight>(w - share * len);
    for (std::size_t t = 0; t < chain.size(); ++t) {
      Weight piece = share;
      if (t == 0) piece = static_cast<Weight>(piece + rem);
      if (piece != 0) b.add_linear(chain[t], piece);
    }
  }

  // Quadratic terms: full weight on the first physical coupler found
  // between the two chains.
  for (VarIndex i = 0; i < n; ++i) {
    logical.for_each_coupling(i, [&](VarIndex j, Weight w) {
      if (j < i) return;  // each logical edge once
      bool placed = false;
      for (const VarIndex a : emb.chains[i]) {
        for (const VarIndex bq : emb.chains[j]) {
          if (g.adjacent(a, bq)) {
            b.add_quadratic(a, bq, w);
            placed = true;
            break;
          }
        }
        if (placed) break;
      }
      DABS_CHECK(placed, "no physical coupler for a logical edge");
    });
  }

  // Chain penalties on every physical edge inside a chain:
  // S * (x_a + x_b - 2 x_a x_b).
  for (const auto& chain : emb.chains) {
    for (std::size_t a = 0; a < chain.size(); ++a) {
      for (std::size_t c = a + 1; c < chain.size(); ++c) {
        if (!g.adjacent(chain[a], chain[c])) continue;
        b.add_quadratic(chain[a], chain[c],
                        static_cast<Weight>(-2 * chain_strength));
        b.add_linear(chain[a], chain_strength);
        b.add_linear(chain[c], chain_strength);
      }
    }
  }
  return b.build();
}

BitVector unembed(const BitVector& physical, const Embedding& emb) {
  BitVector logical(emb.logical_count());
  for (std::size_t i = 0; i < emb.chains.size(); ++i) {
    std::size_t ones = 0;
    for (const VarIndex v : emb.chains[i]) ones += physical.get(v);
    logical.set(i, 2 * ones > emb.chains[i].size());
  }
  return logical;
}

bool chains_intact(const BitVector& physical, const Embedding& emb) {
  for (const auto& chain : emb.chains) {
    const bool v0 = physical.get(chain[0]);
    for (const VarIndex v : chain) {
      if (physical.get(v) != v0) return false;
    }
  }
  return true;
}

}  // namespace dabs::problems
