// MaxCut -> QUBO reduction and benchmark instance generators (paper §II-A,
// §VI-A).
//
// Reduction: each edge (u, v, w) contributes w * (2 x_u x_v - x_u - x_v),
// which evaluates to -w when the edge is cut and 0 otherwise, so
// E(X) = -cut(X) for every X and minimizing energy maximizes the cut.
//
// Instances: generators reproducing the published constructions of the
// three benchmark graphs (K2000 and Gset G22/G39) by node/edge count and
// weight distribution; the real files can be loaded via io/gset.hpp when
// available.  See README "Substitutions" for the rationale.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "qubo/qubo_model.hpp"
#include "qubo/types.hpp"
#include "util/bit_vector.hpp"

namespace dabs::problems {

struct WeightedEdge {
  VarIndex u, v;
  Weight w;
};

/// A graph is an edge list, or, as make_complete_maxcut builds it, a
/// complete ±1 graph stored as one sign bit per pair: bit t of `signs`
/// stands for the t-th pair (u, v > u) in row-major order and is set when
/// its weight is +1.  Readers that may meet either go through edge_count()
/// and for_each_edge(); an instance holding both is their union.
struct MaxCutInstance {
  std::size_t n = 0;
  std::vector<WeightedEdge> edges;
  /// Empty, or sign_words(n) words with the bits past the last pair zero.
  std::vector<std::uint64_t> signs;
  std::string name;

  /// Words of `signs` for a complete graph on n nodes.
  static std::size_t sign_words(std::size_t n) {
    return (n * (n - 1) / 2 + 63) / 64;
  }

  /// The pairs the signs stand for, then the listed edges.
  std::size_t edge_count() const {
    return (signs.empty() ? 0 : n * (n - 1) / 2) + edges.size();
  }

  /// Calls f(WeightedEdge) for every sign-bit pair in ascending (u, v),
  /// then for every listed edge in list order.
  template <class F>
  void for_each_edge(F&& f) const {
    if (!signs.empty()) {
      std::size_t t = 0;
      for (VarIndex u = 0; u + 1 < n; ++u) {
        for (VarIndex v = u + 1; v < n; ++v, ++t) {
          const bool plus = (signs[t / 64] >> (t % 64)) & 1;
          f(WeightedEdge{u, v, plus ? Weight{1} : Weight{-1}});
        }
      }
    }
    for (const WeightedEdge& e : edges) f(e);
  }

  /// Total weight of edges crossing the partition (x_u != x_v).
  Energy cut_value(const BitVector& partition) const;
};

/// Largest |w| an edge may carry: its coupling 2w stays an int32.
inline constexpr Weight kMaxEdgeWeight =
    std::numeric_limits<Weight>::max() / 2;

/// Builds the QUBO model with E(X) = -cut(X).  `backend` forces the kernel
/// backend (kAuto picks dense for complete graphs like K2000).  A model
/// that resolves to dense is written straight into its matrix; the result
/// is the model a QuboBuilder fed every edge's terms builds, and so are the
/// exceptions (an endpoint out of range, a self-loop, |w| above
/// kMaxEdgeWeight, a diagonal or coupling past the int32 range).
QuboModel maxcut_to_qubo(const MaxCutInstance& inst,
                         QuboBackend backend = QuboBackend::kAuto);

/// Weight distribution for random instances.
enum class EdgeWeights : std::uint8_t {
  kPlusOne,     // all +1 (G22 style)
  kPlusMinusOne // uniform ±1 (K2000 / G39 style)
};

/// Random graph with exactly `m` distinct edges over `n` nodes.
MaxCutInstance make_random_maxcut(std::size_t n, std::size_t m,
                                  EdgeWeights weights, std::uint64_t seed,
                                  std::string name = "random");

/// Complete graph with i.i.d. ±1 weights, stored as its sign bits: the
/// weight of the t-th pair is +1 when the t-th next_bit() of Rng(seed) is.
MaxCutInstance make_complete_maxcut(std::size_t n, std::uint64_t seed,
                                    std::string name = "complete");

/// K2000 equivalent: 2000-node complete graph, ±1 weights [33].
MaxCutInstance make_k2000(std::uint64_t seed = 2000);

/// G22 equivalent: 2000 nodes, 19990 edges, +1 weights.
MaxCutInstance make_g22_like(std::uint64_t seed = 22);

/// G39 equivalent: 2000 nodes, 11778 edges, ±1 weights.
MaxCutInstance make_g39_like(std::uint64_t seed = 39);

}  // namespace dabs::problems
