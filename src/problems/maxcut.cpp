#include "problems/maxcut.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <optional>

#include "qubo/qubo_builder.hpp"
#include "rng/draw_lanes.hpp"
#include "rng/xorshift.hpp"
#include "util/assert.hpp"

namespace dabs::problems {

namespace {

void check_signs(const MaxCutInstance& inst) {
  DABS_CHECK(inst.signs.empty() ||
                 inst.signs.size() == MaxCutInstance::sign_words(inst.n),
             "sign bits do not match the node count");
}

/// The 64 bits of words[0, count) from bit b on, zero past the last word.
std::uint64_t bits_at(const std::uint64_t* words, std::size_t count,
                      std::size_t b) {
  const std::size_t i = b / 64;
  const std::size_t shift = b % 64;
  const std::uint64_t lo = words[i] >> shift;
  if (shift == 0 || i + 1 == count) return lo;
  return lo | (words[i + 1] << (64 - shift));
}

/// The low len bits, for len in [1, 64].
std::uint64_t low_bits(std::size_t len) {
  return ~std::uint64_t{0} >> (64 - len);
}

/// The cut of the sign-bit pairs.  Row u's pairs (u, v > u) cross where
/// x's bits past u differ from x_u; of those, the +1 pairs add and the -1
/// pairs subtract, 64 pairs per step.
Energy sign_cut(const MaxCutInstance& inst, const BitVector& x) {
  const std::size_t n = inst.n;
  Energy cut = 0;
  std::size_t row_bit = 0;  // the bit of row u's first pair
  for (std::size_t u = 0; u + 1 < n; ++u) {
    const std::uint64_t side = -std::uint64_t{x.get(u)};
    for (std::size_t v = u + 1; v < n; v += 64) {
      const std::uint64_t cross =
          (bits_at(x.words(), x.word_count(), v) ^ side) &
          low_bits(std::min<std::size_t>(64, n - v));
      const std::uint64_t plus = bits_at(
          inst.signs.data(), inst.signs.size(), row_bit + (v - u - 1));
      cut += std::popcount(cross & plus) - std::popcount(cross & ~plus);
    }
    row_bit += n - 1 - u;
  }
  return cut;
}

}  // namespace

Energy MaxCutInstance::cut_value(const BitVector& partition) const {
  DABS_CHECK(partition.size() == n, "partition length mismatch");
  check_signs(*this);
  Energy cut = signs.empty() ? 0 : sign_cut(*this, partition);
  // One masked add per edge, no branch on the partition.
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
  b.reserve(inst.edge_count());
  inst.for_each_edge([&](const WeightedEdge& e) {
    check_edge(inst, e);
    b.add_quadratic(e.u, e.v, 2 * e.w);
    b.add_linear(e.u, -e.w);
    b.add_linear(e.v, -e.w);
  });
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

/// Byte k is +2 when bit k of `bits` is set and -2 when it is clear.
/// Multiplying copies the low byte into every byte; keeping bit k of byte
/// k and adding 0x7f carries into byte k's top bit exactly when it is set.
std::uint64_t spread_signs(std::uint64_t bits) {
  constexpr std::uint64_t kEachByte = 0x0101010101010101ULL;
  const std::uint64_t kept =
      ((bits & 0xff) * kEachByte) & 0x8040201008040201ULL;
  const std::uint64_t set = ((kept + 0x7f * kEachByte) >> 7) & kEachByte;
  return (0xfe * kEachByte) ^ (set * 0xfc);  // -2 = 0xfe, +2 = 0x02
}

/// The dense path of a complete ±1 graph: each int8 row of the upper
/// triangle from its sign bits, 64 at a time (W_uv = +2 on a set bit, -2 on
/// a clear one).  Each edge adds -w to both endpoints' linear terms, so
/// W_ii = (n - 1) - 2 plus_i, where plus_i counts node i's +1 edges: the
/// set bits of its row and of its column.
QuboModel encode_signs(const MaxCutInstance& inst) {
  static_assert(std::endian::native == std::endian::little);
  const std::size_t n = inst.n;
  std::vector<std::int8_t> upper(n * n, 0);
  std::vector<std::int32_t> plus(n, 0);
  std::size_t row_bit = 0;  // the bit of row u's first pair
  for (std::size_t u = 0; u + 1 < n; ++u) {
    std::int8_t* row = upper.data() + u * n;
    for (std::size_t v = u + 1; v < n; v += 64) {
      const std::size_t len = std::min<std::size_t>(64, n - v);
      const std::uint64_t bits =
          bits_at(inst.signs.data(), inst.signs.size(),
                  row_bit + (v - u - 1)) &
          low_bits(len);
      plus[u] += std::popcount(bits);
      std::uint64_t bytes[8];
      for (std::size_t k = 0; k < 8; ++k) {
        bytes[k] = spread_signs(bits >> 8 * k);
      }
      std::memcpy(row + v, bytes, len);
    }
    for (std::size_t v = u + 1; v < n; ++v) plus[v] += row[v] > 0;
    row_bit += n - 1 - u;
  }
  std::vector<Energy> linear(n);
  for (std::size_t i = 0; i < n; ++i) {
    linear[i] = static_cast<Energy>(n - 1) - 2 * Energy{plus[i]};
  }
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
  check_signs(inst);
  const bool dense = backend == QuboBackend::kDense ||
                     (backend == QuboBackend::kAuto &&
                      QuboModel::auto_backend(inst.n, inst.edge_count()) ==
                          QuboBackend::kDense);
  if (!dense || !QuboModel::dense_fits(inst.n)) {
    return encode_terms(inst, backend);
  }
  // Sign bits alone are written from the bits; sign bits with listed
  // edges beside them take the term path, which sums the two.
  if (!inst.signs.empty()) {
    return inst.edges.empty() ? encode_signs(inst)
                              : encode_terms(inst, backend);
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
  inst.signs.assign(MaxCutInstance::sign_words(n), 0);
  // Chunks of 2048 draws run in the draw lanes, 16 lanes of 128 draws.  At
  // threshold 2^52 a draw is a candidate exactly when its next_bit() is 0,
  // so a sign word is the complement of its candidate word.  The tail
  // draws serially; the bits and rng's state are the serial chain's.
  constexpr std::size_t kChunk = 2048;
  const std::size_t pairs = n * (n - 1) / 2;
  const std::size_t chunks = pairs / kChunk;
  std::uint64_t* signs = inst.signs.data();
  if (chunks > 0) {
    const XorshiftJump jump(lane_length(kChunk));
    for (std::size_t c = 0; c < chunks; ++c) {
      std::uint64_t* words = signs + c * (kChunk / 64);
      draw_candidates(rng, jump, kChunk, std::uint64_t{1} << 52, words);
      for (std::size_t k = 0; k < kChunk / 64; ++k) words[k] = ~words[k];
    }
  }
  for (std::size_t t = chunks * kChunk; t < pairs; ++t) {
    signs[t / 64] |= std::uint64_t{rng.next_bit()} << (t % 64);
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
