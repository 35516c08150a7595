// Pegasus P(m) topology generator — the D-Wave Advantage quantum network
// (Boothby et al., "Next-generation topology of D-Wave quantum
// processors"), needed to construct QASP benchmark instances (paper §II-C).
//
// Qubits are addressed (u, w, k, z) with orientation u in {0,1}, perpendic-
// ular offset w in [0, m), track k in [0, 12), parallel offset z in
// [0, m-1); P(m) has 24 m (m-1) qubits.  Couplers:
//
//   external:  (u, w, k, z) ~ (u, w, k, z+1)
//   odd:       (u, w, 2j, z) ~ (u, w, 2j+1, z)
//   internal:  a vertical qubit (0, w, k, z) occupies grid column
//              X = 12 w + k spanning rows [12 z + S0[k], +11]; a horizontal
//              qubit (1, w', k', z') occupies row Y = 12 w' + k' spanning
//              columns [12 z' + S1[k'], +11]; they are coupled iff the two
//              segments geometrically cross.
//
// Interior qubits have degree 15 (12 internal + 2 external + 1 odd).
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "qubo/types.hpp"

namespace dabs::problems {

struct PegasusCoord {
  std::uint8_t u;  // 0 = vertical, 1 = horizontal
  std::uint16_t w;
  std::uint8_t k;
  std::uint16_t z;
};

class PegasusGraph {
 public:
  /// Builds ideal P(m); m >= 2.
  explicit PegasusGraph(std::size_t m);

  /// Qubits of ideal P(m), 24 m (m - 1), without building the graph;
  /// m >= 2.
  static std::size_t ideal_node_count(std::size_t m);

  std::size_t m() const noexcept { return m_; }
  std::size_t node_count() const noexcept { return nodes_; }
  const std::vector<std::pair<VarIndex, VarIndex>>& edges() const noexcept {
    return edges_;
  }

  /// Linear id of a coordinate and back.
  VarIndex node_id(const PegasusCoord& c) const;
  PegasusCoord coord(VarIndex id) const;

  /// Degree of each node (computed from the edge list).
  std::vector<std::uint32_t> degrees() const;

 private:
  std::size_t m_;
  std::size_t nodes_;
  std::vector<std::pair<VarIndex, VarIndex>> edges_;
};

/// A working graph after fault deletion: `keep[i]` is the original id of
/// relabeled node i, edges use the new labels.
struct WorkingGraph {
  std::size_t node_count = 0;
  std::vector<std::pair<VarIndex, VarIndex>> edges;
  std::vector<VarIndex> keep;
};

/// Deletes random nodes down to `target_nodes` (deterministic in `seed`)
/// and returns the induced, relabeled subgraph — the analogue of a QPU
/// working graph with faulty qubits removed.
WorkingGraph apply_faults(const PegasusGraph& g, std::size_t target_nodes,
                          std::uint64_t seed);

}  // namespace dabs::problems
