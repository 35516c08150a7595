#include "problems/pegasus.hpp"

#include <algorithm>
#include <numeric>

#include "rng/xorshift.hpp"
#include "util/assert.hpp"

namespace dabs::problems {

namespace {

// Track offsets of the standard Pegasus layout (dwave-networkx defaults).
constexpr int kS0[12] = {2, 2, 2, 2, 10, 10, 10, 10, 6, 6, 6, 6};
constexpr int kS1[12] = {6, 6, 6, 6, 2, 2, 2, 2, 10, 10, 10, 10};

}  // namespace

std::size_t PegasusGraph::ideal_node_count(std::size_t m) {
  DABS_CHECK(m >= 2, "Pegasus requires m >= 2");
  return 24 * m * (m - 1);
}

PegasusGraph::PegasusGraph(std::size_t m)
    : m_(m), nodes_(ideal_node_count(m)) {

  const auto zmax = m - 1;  // z in [0, m-1)
  auto id = [&](unsigned u, std::size_t w, unsigned k, std::size_t z) {
    return static_cast<VarIndex>(((u * m_ + w) * 12 + k) * zmax + z);
  };

  // External couplers: consecutive z along a track.
  for (unsigned u = 0; u < 2; ++u) {
    for (std::size_t w = 0; w < m; ++w) {
      for (unsigned k = 0; k < 12; ++k) {
        for (std::size_t z = 0; z + 1 < zmax; ++z) {
          edges_.emplace_back(id(u, w, k, z), id(u, w, k, z + 1));
        }
      }
    }
  }
  // Odd couplers: track pairs (2j, 2j+1).
  for (unsigned u = 0; u < 2; ++u) {
    for (std::size_t w = 0; w < m; ++w) {
      for (unsigned k = 0; k < 12; k += 2) {
        for (std::size_t z = 0; z < zmax; ++z) {
          edges_.emplace_back(id(u, w, k, z), id(u, w, k + 1, z));
        }
      }
    }
  }
  // Internal couplers by geometric crossing.  For vertical (0, w, k, z):
  // column X = 12w + k, rows [12z + S0[k], +11].  Each of the 12 row values
  // Y identifies one horizontal track (w' = Y/12, k' = Y%12); the crossing
  // horizontal's z' must satisfy 12z' + S1[k'] <= X <= 12z' + S1[k'] + 11.
  for (std::size_t w = 0; w < m; ++w) {
    for (unsigned k = 0; k < 12; ++k) {
      for (std::size_t z = 0; z < zmax; ++z) {
        const long long x = static_cast<long long>(12 * w + k);
        const long long ylo = static_cast<long long>(12 * z) + kS0[k];
        for (long long y = ylo; y < ylo + 12; ++y) {
          const auto wp = static_cast<std::size_t>(y / 12);
          const auto kp = static_cast<unsigned>(y % 12);
          if (wp >= m) continue;
          const long long zp12 = x - kS1[kp];
          if (zp12 < 0) continue;
          const auto zp = static_cast<std::size_t>(zp12 / 12);
          if (zp >= zmax) continue;
          edges_.emplace_back(id(0, w, k, z), id(1, wp, kp, zp));
        }
      }
    }
  }
}

VarIndex PegasusGraph::node_id(const PegasusCoord& c) const {
  const auto zmax = m_ - 1;
  DABS_CHECK(c.u < 2 && c.w < m_ && c.k < 12 && c.z < zmax,
             "Pegasus coordinate out of range");
  return static_cast<VarIndex>(((c.u * m_ + c.w) * 12 + c.k) * zmax + c.z);
}

PegasusCoord PegasusGraph::coord(VarIndex v) const {
  const auto zmax = m_ - 1;
  DABS_CHECK(v < node_count(), "node id out of range");
  PegasusCoord c;
  c.z = static_cast<std::uint16_t>(v % zmax);
  v = static_cast<VarIndex>(v / zmax);
  c.k = static_cast<std::uint8_t>(v % 12);
  v = static_cast<VarIndex>(v / 12);
  c.w = static_cast<std::uint16_t>(v % m_);
  c.u = static_cast<std::uint8_t>(v / m_);
  return c;
}

std::vector<std::uint32_t> PegasusGraph::degrees() const {
  std::vector<std::uint32_t> deg(node_count(), 0);
  for (const auto& [a, b] : edges_) {
    ++deg[a];
    ++deg[b];
  }
  return deg;
}

WorkingGraph apply_faults(const PegasusGraph& g, std::size_t target_nodes,
                          std::uint64_t seed) {
  DABS_CHECK(target_nodes >= 1 && target_nodes <= g.node_count(),
             "target node count out of range");
  // Fisher-Yates selection of the surviving nodes.
  std::vector<VarIndex> ids(g.node_count());
  std::iota(ids.begin(), ids.end(), 0);
  Rng rng(seed);
  for (std::size_t i = ids.size() - 1; i > 0; --i) {
    const std::size_t j = rng.next_index(i + 1);
    std::swap(ids[i], ids[j]);
  }
  ids.resize(target_nodes);
  std::sort(ids.begin(), ids.end());

  std::vector<VarIndex> relabel(g.node_count(),
                                static_cast<VarIndex>(g.node_count()));
  for (std::size_t i = 0; i < ids.size(); ++i) relabel[ids[i]] = static_cast<VarIndex>(i);

  WorkingGraph out;
  out.node_count = target_nodes;
  out.keep = ids;
  out.edges.reserve(g.edges().size());
  const auto dead = static_cast<VarIndex>(g.node_count());
  for (const auto& [a, b] : g.edges()) {
    if (relabel[a] != dead && relabel[b] != dead) {
      out.edges.emplace_back(relabel[a], relabel[b]);
    }
  }
  return out;
}

}  // namespace dabs::problems
