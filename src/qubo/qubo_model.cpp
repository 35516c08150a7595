#include "qubo/qubo_model.hpp"

#include <algorithm>
#include <sstream>
#include <type_traits>
#include <variant>

#include "util/assert.hpp"

namespace dabs {

Weight QuboModel::weight(VarIndex i, VarIndex j) const {
  DABS_CHECK(i < size() && j < size(), "variable index out of range");
  if (i == j) return diag_[i];
  if (has_dense_rows()) {
    return with_dense_rows(
        [&](const auto* w) { return Weight{w[std::size_t{i} * size() + j]}; });
  }
  const CsrRow row = csr_row(i);
  const auto it = std::lower_bound(row.cols.begin(), row.cols.end(), j);
  return it != row.cols.end() && *it == j ? row.vals[it - row.cols.begin()]
                                          : 0;
}

std::size_t QuboModel::degree(VarIndex i) const {
  DABS_CHECK(i < size(), "variable index out of range");
  if (!has_dense_rows()) return row_ptr_[i + 1] - row_ptr_[i];
  return with_dense_rows([&](const auto* w) {
    const auto* row = w + std::size_t{i} * size();
    return static_cast<std::size_t>(
        std::count_if(row, row + size(), [](auto v) { return v != 0; }));
  });
}

namespace {

/// A dense model has n <= 8192 (kDenseMaxBytes at int32 weights), so a
/// row of int8 or int16 weights sums exactly in int32; int32 weights
/// accumulate in int64.
static_assert(QuboModel::kDenseMaxBytes / sizeof(Weight) <=
                  (std::size_t{1} << 26),
              "n <= 2^13 bounds an int16 row sum by 2^28");
template <class T>
using RowSum = std::conditional_t<sizeof(T) < sizeof(Weight), std::int32_t,
                                  Energy>;

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

/// w is the dense matrix at its stored width T (QuboModel::with_dense_rows).
template <class T>
Energy dense_energy(const QuboModel& m, const T* w, const BitVector& x) {
  const std::vector<T> mask = solution_masks<T>(x);
  const std::size_t n = m.size();
  Energy e = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!x.get(i)) continue;
    // Each edge once: only the (i, j > i) half of the row.
    e += m.diag(static_cast<VarIndex>(i)) +
         masked_row_sum(w + i * n, mask.data(), i + 1, n);
  }
  return e;
}

template <class T, class D>
void dense_delta_all(const QuboModel& m, const T* w, const BitVector& x,
                     D* out) {
  const std::vector<T> mask = solution_masks<T>(x);
  const std::size_t n = m.size();
  for (std::size_t k = 0; k < n; ++k) {
    // Slot k of row k is zero, so the whole row is the neighbour sum.
    const Energy s = masked_row_sum(w + k * n, mask.data(), 0, n);
    out[k] = static_cast<D>(-sigma(x.get(k)) *
                            (s + Energy{m.diag(static_cast<VarIndex>(k))}));
  }
}

}  // namespace

Energy QuboModel::energy(const BitVector& x) const {
  DABS_CHECK(x.size() == size(), "solution length mismatch");
  if (has_dense_rows()) {
    return with_dense_rows(
        [&](const auto* w) { return dense_energy(*this, w, x); });
  }
  Energy e = 0;
  const auto n = static_cast<VarIndex>(size());
  for (VarIndex i = 0; i < n; ++i) {
    if (!x.get(i)) continue;
    Energy row = diag_[i];
    const auto [nbrs, w] = csr_row(i);
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
  for_each_coupling(k,
                    [&](VarIndex j, Weight w) { s += w & -Weight{x.get(j)}; });
  return -sigma(x.get(k)) * (s + Energy{diag_[k]});
}

template <class D>
void QuboModel::delta_all(const BitVector& x, std::span<D> out) const {
  DABS_CHECK(x.size() == size(), "solution length mismatch");
  DABS_CHECK(out.size() == size(), "delta buffer length mismatch");
  if (has_dense_rows()) {
    with_dense_rows(
        [&](const auto* w) { dense_delta_all(*this, w, x, out.data()); });
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
  DABS_CHECK(i < size(), "variable index out of range");
  Energy b = std::abs(Energy{diag_[i]});
  for_each_coupling(i, [&](VarIndex, Weight w) { b += std::abs(Energy{w}); });
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
  if (has_dense_rows()) os << " rows=" << to_string(row_width());
  return os.str();
}

std::size_t QuboModel::memory_bytes() const noexcept {
  return sizeof(QuboModel) + diag_.size() * sizeof(Weight) +
         row_ptr_.size() * sizeof(std::size_t) +
         col_.size() * sizeof(VarIndex) + val_.size() * sizeof(Weight) +
         std::visit(
             [](const auto& rows) {
               return rows.size() * sizeof(rows.front());
             },
             dense_);
}

}  // namespace dabs
