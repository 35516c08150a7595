#include "problems/maxcut.hpp"

#include <unordered_set>

#include "qubo/qubo_builder.hpp"
#include "rng/xorshift.hpp"
#include "util/assert.hpp"

namespace dabs::problems {

Energy MaxCutInstance::cut_value(const BitVector& partition) const {
  DABS_CHECK(partition.size() == n, "partition length mismatch");
  // One masked add per edge, no branch on the partition: an answer check
  // walks every edge (K2000: about 2M).
  Energy cut = 0;
  for (const WeightedEdge& e : edges) {
    const bool crosses = partition.get(e.u) != partition.get(e.v);
    cut += e.w & -Weight{crosses};
  }
  return cut;
}

QuboModel maxcut_to_qubo(const MaxCutInstance& inst, QuboBackend backend) {
  DABS_CHECK(inst.n > 0, "instance has no nodes");
  QuboBuilder b(inst.n);
  b.set_backend(backend);
  b.reserve(inst.edges.size());
  for (const WeightedEdge& e : inst.edges) {
    DABS_CHECK(e.u < inst.n && e.v < inst.n, "edge endpoint out of range");
    DABS_CHECK(e.u != e.v, "self-loops are not allowed in MaxCut");
    b.add_quadratic(e.u, e.v, static_cast<Weight>(2 * e.w));
    b.add_linear(e.u, static_cast<Weight>(-e.w));
    b.add_linear(e.v, static_cast<Weight>(-e.w));
  }
  return b.build();
}

namespace {

Weight draw_weight(EdgeWeights weights, Rng& rng) {
  switch (weights) {
    case EdgeWeights::kPlusOne:
      return 1;
    case EdgeWeights::kPlusMinusOne:
      return rng.next_bit() ? 1 : -1;
  }
  return 1;
}

}  // namespace

MaxCutInstance make_random_maxcut(std::size_t n, std::size_t m,
                                  EdgeWeights weights, std::uint64_t seed,
                                  std::string name) {
  DABS_CHECK(n >= 2, "need at least two nodes");
  DABS_CHECK(m <= n * (n - 1) / 2, "more edges than the complete graph");
  Rng rng(seed);
  MaxCutInstance inst;
  inst.n = n;
  inst.name = std::move(name);
  inst.edges.reserve(m);
  std::unordered_set<std::uint64_t> used;
  used.reserve(m * 2);
  while (inst.edges.size() < m) {
    auto u = static_cast<VarIndex>(rng.next_index(n));
    auto v = static_cast<VarIndex>(rng.next_index(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    const std::uint64_t key = (std::uint64_t{u} << 32) | v;
    if (!used.insert(key).second) continue;
    inst.edges.push_back({u, v, draw_weight(weights, rng)});
  }
  return inst;
}

MaxCutInstance make_complete_maxcut(std::size_t n, std::uint64_t seed,
                                    std::string name) {
  DABS_CHECK(n >= 2, "need at least two nodes");
  Rng rng(seed);
  MaxCutInstance inst;
  inst.n = n;
  inst.name = std::move(name);
  inst.edges.reserve(n * (n - 1) / 2);
  for (VarIndex u = 0; u + 1 < n; ++u) {
    for (VarIndex v = u + 1; v < n; ++v) {
      inst.edges.push_back({u, v, rng.next_bit() ? Weight{1} : Weight{-1}});
    }
  }
  return inst;
}

MaxCutInstance make_k2000(std::uint64_t seed) {
  return make_complete_maxcut(2000, seed, "K2000");
}

MaxCutInstance make_g22_like(std::uint64_t seed) {
  return make_random_maxcut(2000, 19990, EdgeWeights::kPlusOne, seed, "G22");
}

MaxCutInstance make_g39_like(std::uint64_t seed) {
  return make_random_maxcut(2000, 11778, EdgeWeights::kPlusMinusOne, seed,
                            "G39");
}

}  // namespace dabs::problems
