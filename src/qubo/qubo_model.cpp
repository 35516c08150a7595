#include "qubo/qubo_model.hpp"

#include <sstream>
#include <type_traits>

#include "util/assert.hpp"

namespace dabs {

Weight QuboModel::weight(VarIndex i, VarIndex j) const {
  DABS_CHECK(i < size() && j < size(), "variable index out of range");
  if (i == j) return diag_[i];
  const auto nbrs = neighbors(i);
  const auto w = weights(i);
  for (std::size_t t = 0; t < nbrs.size(); ++t) {
    if (nbrs[t] == j) return w[t];
  }
  return 0;
}

namespace {

/// Row sums of int16 weights stay within delta_bound() <= INT16_MAX, so
/// they accumulate exactly in int32; int32 weights accumulate in int64.
template <class T>
using RowSum =
    std::conditional_t<std::is_same_v<T, std::int16_t>, std::int32_t, Energy>;

/// x as one all-ones/zero mask per variable at the dense row width, so a
/// row is masked with the solution instead of branching per neighbour.
template <class T>
std::vector<T> solution_masks(const BitVector& x) {
  std::vector<T> mask(x.size());
  for (std::size_t j = 0; j < mask.size(); ++j) {
    mask[j] = static_cast<T>(-T{x.get(j)});
  }
  return mask;
}

/// sum_{j in [b, n)} row[j] x_j over a dense row, branch-free.
template <class T>
Energy masked_row_sum(const T* __restrict row, const T* __restrict mask,
                      std::size_t b, std::size_t n) {
  RowSum<T> s = 0;
  for (std::size_t j = b; j < n; ++j) s += row[j] & mask[j];
  return s;
}

template <class T>
Energy dense_energy(const QuboModel& m, const BitVector& x) {
  const std::vector<T> mask = solution_masks<T>(x);
  const auto n = static_cast<VarIndex>(m.size());
  Energy e = 0;
  for (VarIndex i = 0; i < n; ++i) {
    if (!x.get(i)) continue;
    // Each edge once: only the (i, j > i) half of the row.
    e += m.diag(i) + masked_row_sum(m.dense_row<T>(i), mask.data(), i + 1, n);
  }
  return e;
}

template <class T, class D>
void dense_delta_all(const QuboModel& m, const BitVector& x, D* out) {
  const std::vector<T> mask = solution_masks<T>(x);
  const auto n = static_cast<VarIndex>(m.size());
  for (VarIndex k = 0; k < n; ++k) {
    // Slot k of row k is zero, so the whole row is the neighbour sum.
    const Energy s = masked_row_sum(m.dense_row<T>(k), mask.data(), 0, n);
    out[k] = static_cast<D>(-sigma(x.get(k)) * (s + Energy{m.diag(k)}));
  }
}

}  // namespace

Energy QuboModel::energy(const BitVector& x) const {
  DABS_CHECK(x.size() == size(), "solution length mismatch");
  if (has_dense_rows()) {
    return delta_width() == DeltaWidth::kInt16
               ? dense_energy<std::int16_t>(*this, x)
               : dense_energy<Weight>(*this, x);
  }
  Energy e = 0;
  const auto n = static_cast<VarIndex>(size());
  for (VarIndex i = 0; i < n; ++i) {
    if (!x.get(i)) continue;
    Energy row = diag_[i];
    const auto nbrs = neighbors(i);
    const auto w = weights(i);
    for (std::size_t t = 0; t < nbrs.size(); ++t) {
      // Count each edge once: only accumulate (i, j>i) pairs.
      const bool on = (nbrs[t] > i) & x.get(nbrs[t]);
      row += w[t] & -Weight{on};
    }
    e += row;
  }
  return e;
}

Energy QuboModel::delta(const BitVector& x, VarIndex k) const {
  DABS_CHECK(x.size() == size(), "solution length mismatch");
  DABS_CHECK(k < size(), "variable index out of range");
  // Eq. 3 folded: Delta_k(X) = -sigma(x_k) * (sum_{j != k} W_{j,k} x_j + W_{k,k}).
  Energy s = 0;
  const auto nbrs = neighbors(k);
  const auto w = weights(k);
  for (std::size_t t = 0; t < nbrs.size(); ++t) {
    s += w[t] & -Weight{x.get(nbrs[t])};
  }
  return -sigma(x.get(k)) * (s + Energy{diag_[k]});
}

template <class D>
void QuboModel::delta_all(const BitVector& x, std::span<D> out) const {
  DABS_CHECK(x.size() == size(), "solution length mismatch");
  DABS_CHECK(out.size() == size(), "delta buffer length mismatch");
  if (has_dense_rows()) {
    if (delta_width() == DeltaWidth::kInt16) {
      dense_delta_all<std::int16_t>(*this, x, out.data());
    } else {
      dense_delta_all<Weight>(*this, x, out.data());
    }
    return;
  }
  const auto n = static_cast<VarIndex>(size());
  for (VarIndex k = 0; k < n; ++k) out[k] = static_cast<D>(delta(x, k));
}

template void QuboModel::delta_all(const BitVector&,
                                   std::span<std::int16_t>) const;
template void QuboModel::delta_all(const BitVector&, std::span<Energy>) const;

void QuboModel::delta_all(const BitVector& x, std::vector<Energy>& out) const {
  out.resize(size());
  delta_all(x, std::span<Energy>(out));
}

Energy QuboModel::flip_bound(VarIndex i) const {
  Energy b = std::abs(Energy{diag_[i]});
  for (const Weight w : weights(i)) b += std::abs(Energy{w});
  return b;
}

std::string QuboModel::describe() const {
  std::ostringstream os;
  const std::size_t n = size();
  const std::size_t m = edge_count();
  os << "QUBO n=" << n << " edges=" << m;
  if (n >= 2) {
    // Same threshold the kAuto backend selection uses, so the label and
    // the backend= suffix can never contradict each other.
    os << (density() >= kDenseDensityThreshold ? " dense" : " sparse");
  }
  os << " backend=" << to_string(backend_)
     << " delta=" << to_string(delta_width());
  return os.str();
}

std::size_t QuboModel::memory_bytes() const noexcept {
  return sizeof(QuboModel) + diag_.size() * sizeof(Weight) +
         row_ptr_.size() * sizeof(std::size_t) +
         col_.size() * sizeof(VarIndex) + val_.size() * sizeof(Weight) +
         dense16_.size() * sizeof(std::int16_t) +
         dense32_.size() * sizeof(Weight);
}

}  // namespace dabs
