#include "problems/maxcut.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>

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

namespace {

/// The checks every edge passes on either encode path.  |w| <= INT32_MAX / 2
/// keeps its coupling 2w an int32 in the symmetric coupling range.
void check_edge(const MaxCutInstance& inst, const WeightedEdge& e) {
  DABS_CHECK(e.u < inst.n && e.v < inst.n, "edge endpoint out of range");
  DABS_CHECK(e.u != e.v, "self-loops are not allowed in MaxCut");
  DABS_CHECK(e.w >= -kMaxEdgeWeight && e.w <= kMaxEdgeWeight,
             "edge weight overflows the int32 coupling range (|w| must be "
             "at most INT32_MAX / 2)");
}

/// The term path: every edge's terms through a QuboBuilder.
QuboModel encode_terms(const MaxCutInstance& inst, QuboBackend backend) {
  QuboBuilder b(inst.n);
  b.set_backend(backend);
  b.reserve(inst.edges.size());
  for (const WeightedEdge& e : inst.edges) {
    check_edge(inst, e);
    b.add_quadratic(e.u, e.v, 2 * e.w);
    b.add_linear(e.u, -e.w);
    b.add_linear(e.v, -e.w);
  }
  return b.build();
}

/// The dense path: every edge checked and its coupling summed straight into
/// the upper triangle of the matrix at width T.  Returns nothing, for a
/// wider T or the term path to decide, when a sum leaves T's range.
template <class T>
std::optional<QuboModel> encode_dense(const MaxCutInstance& inst,
                                      QuboBackend backend) {
  constexpr Energy kMax = std::numeric_limits<T>::max();
  const std::size_t n = inst.n;
  std::vector<T> upper(n * n, 0);
  std::size_t edges = 0;  // nonzero slots: the coalesced edge count
  for (const WeightedEdge& e : inst.edges) {
    check_edge(inst, e);
    const auto [i, j] = std::minmax(e.u, e.v);
    T& slot = upper[std::size_t{i} * n + j];
    const Energy sum = Energy{slot} + 2 * Energy{e.w};
    if (sum > kMax || sum < -kMax) return std::nullopt;
    if (slot == 0 && sum != 0) ++edges;
    if (slot != 0 && sum == 0) --edges;
    slot = static_cast<T>(sum);
  }
  if (backend == QuboBackend::kAuto &&
      QuboModel::auto_backend(n, edges) != QuboBackend::kDense) {
    upper = std::vector<T>();  // duplicates coalesced below the threshold
    return encode_terms(inst, backend);
  }
  // Each edge adds -w to both endpoints' linear terms and 2w to their
  // coupling, so W_ii = -(sum_j W_ij) / 2 exactly: the row's part right of
  // the diagonal plus its column's part above it, summed in 64 bits.
  std::vector<Energy> linear(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const T* row = upper.data() + i * n;
    Energy right = 0;
    for (std::size_t j = i + 1; j < n; ++j) {
      right += row[j];
      linear[j] += row[j];
    }
    linear[i] += right;
  }
  for (Energy& l : linear) l = -l / 2;
  return QuboBuilder::build_dense(linear, std::move(upper));
}

}  // namespace

QuboModel maxcut_to_qubo(const MaxCutInstance& inst, QuboBackend backend) {
  DABS_CHECK(inst.n > 0, "instance has no nodes");
  // A model the raw edge count already makes dense (the count only falls
  // as duplicates coalesce) is written straight into its matrix, with no
  // per-term buffer, sort or CSR: at int8 first, and at the next width
  // whenever a sum leaves the current one.  Anything else, including a
  // density the coalescing takes below the threshold, takes the term path.
  const bool dense = backend == QuboBackend::kDense ||
                     (backend == QuboBackend::kAuto &&
                      QuboModel::auto_backend(inst.n, inst.edges.size()) ==
                          QuboBackend::kDense);
  if (!dense || !QuboModel::dense_fits(inst.n)) {
    return encode_terms(inst, backend);
  }
  std::optional<QuboModel> m = encode_dense<std::int8_t>(inst, backend);
  if (!m) m = encode_dense<std::int16_t>(inst, backend);
  if (!m) m = encode_dense<Weight>(inst, backend);
  return m ? std::move(*m) : encode_terms(inst, backend);
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
  // The pairs drawn so far, in one open-addressed table at most half full:
  // a multiplicative hash picks the first slot, linear probing the rest.
  // ~0 marks an empty slot; no key is ~0 because u < v.
  constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  std::vector<std::uint64_t> used(
      std::bit_ceil(std::max<std::size_t>(2 * m, 16)), kEmpty);
  const std::size_t mask = used.size() - 1;
  const int shift = 64 - std::countr_zero(used.size());
  while (inst.edges.size() < m) {
    auto u = static_cast<VarIndex>(rng.next_index(n));
    auto v = static_cast<VarIndex>(rng.next_index(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    const std::uint64_t key = (std::uint64_t{u} << 32) | v;
    std::size_t slot = (key * 0x9e3779b97f4a7c15ULL) >> shift;
    while (used[slot] != kEmpty && used[slot] != key) slot = (slot + 1) & mask;
    if (used[slot] == key) continue;
    used[slot] = key;
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
