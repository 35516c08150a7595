// Immutable QUBO model W = (W_{i,j}) over n binary variables:
//
//   E(X) = sum_{(i,j) in E, i<j} W_{i,j} x_i x_j + sum_i W_{i,i} x_i   (Eq. 2)
//
// The diagonal is its own array.  The couplings are stored one of two ways,
// chosen once per model (QuboBackend in types.hpp):
//
//   - CSR (kCsr): the full symmetric adjacency, each edge in both endpoint
//     rows, ascending by column.  A flip walks exactly those rows (Eq. 4),
//     so it costs O(deg(i)).
//   - Dense (kDense): a row-major n x n matrix, diagonal slots zero, stored
//     once at the model's RowWidth: the narrowest of int8, int16 and int32
//     that holds every off-diagonal weight (K2000's ±2 couplings fit int8).
//     The flip kernel streams a contiguous row.  The matrix is the whole
//     model: a dense model keeps no CSR copy.
//
// Readers that need not care which way a model is stored walk a row with
// for_each_coupling(); kernels read csr_row() or with_dense_rows().
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "qubo/types.hpp"
#include "util/assert.hpp"
#include "util/bit_vector.hpp"

namespace dabs {

class QuboBuilder;

class QuboModel {
 public:
  QuboModel() = default;

  /// Number of binary variables.
  std::size_t size() const noexcept { return diag_.size(); }

  /// Number of off-diagonal couplings (each undirected edge counted once).
  std::size_t edge_count() const noexcept { return edge_count_; }

  /// Linear (diagonal) weight W_{i,i}.
  Weight diag(VarIndex i) const { return diag_[i]; }

  /// Row i of a CSR model: its neighbours, ascending, and the weights
  /// aligned with them.  A dense model has no CSR rows; asking for one
  /// throws std::invalid_argument (for_each_coupling walks either).
  struct CsrRow {
    std::span<const VarIndex> cols;
    std::span<const Weight> vals;
  };
  CsrRow csr_row(VarIndex i) const {
    DABS_CHECK(!has_dense_rows(), "a dense model has no CSR rows");
    const std::size_t b = row_ptr_[i], len = row_ptr_[i + 1] - b;
    return {{col_.data() + b, len}, {val_.data() + b, len}};
  }

  /// Calls f(j, W_{i,j}) for every coupling of row i (W_{i,j} != 0), in
  /// ascending j, whichever way the model is stored.
  template <class F>
  void for_each_coupling(VarIndex i, F&& f) const {
    if (!has_dense_rows()) {
      const CsrRow row = csr_row(i);
      for (std::size_t t = 0; t < row.cols.size(); ++t) {
        f(row.cols[t], row.vals[t]);
      }
      return;
    }
    with_dense_rows([&](const auto* w) {
      const std::size_t n = size();
      const auto* row = w + std::size_t{i} * n;
      for (std::size_t j = 0; j < n; ++j) {
        if (row[j] != 0) f(static_cast<VarIndex>(j), Weight{row[j]});
      }
    });
  }

  /// Number of couplings of variable i (O(1) for CSR, O(n) for dense).
  std::size_t degree(VarIndex i) const;
  std::size_t max_degree() const noexcept { return max_degree_; }

  /// Coupling weight W_{i,j} (0 when not adjacent; O(1) for dense,
  /// O(log deg) for CSR).
  Weight weight(VarIndex i, VarIndex j) const;

  /// Active kernel backend (kCsr or kDense, never kAuto).
  QuboBackend backend() const noexcept { return backend_; }
  bool has_dense_rows() const noexcept {
    return backend_ == QuboBackend::kDense;
  }
  /// Width the dense rows are stored at: the narrowest of int8, int16 and
  /// int32 that holds every off-diagonal |W_ij| (the diagonal never
  /// counts).  Defined for every model; only a dense one stores rows.
  RowWidth row_width() const noexcept {
    return static_cast<RowWidth>(dense_.index());
  }
  /// Calls f once with the dense matrix as a `const T*` at its stored width
  /// (T = std::int8_t, std::int16_t or Weight, per row_width()).  Row i
  /// starts at i * size() and holds W_{i,j} at slot j, zero on the
  /// diagonal.  A row loop written as a generic lambda thus compiles once
  /// per width and dispatches once per call.  Only valid when
  /// has_dense_rows().
  template <class F>
  decltype(auto) with_dense_rows(F&& f) const {
    switch (row_width()) {
      case RowWidth::kInt8:
        return f(std::get<0>(dense_).data());
      case RowWidth::kInt16:
        return f(std::get<1>(dense_).data());
      case RowWidth::kInt32:
        break;
    }
    return f(std::get<2>(dense_).data());
  }

  /// Worst-case |Delta_k| over every solution and every k:
  /// max_k (|W_{k,k}| + sum_j |W_{k,j}|).  Every Delta a flip kernel
  /// stores, and every partial row sum it forms, lies within this bound.
  std::uint64_t delta_bound() const noexcept { return delta_bound_; }
  /// kInt16 exactly when delta_bound() <= INT16_MAX.
  DeltaWidth delta_width() const noexcept {
    constexpr auto kNarrow =
        static_cast<std::uint64_t>(std::numeric_limits<std::int16_t>::max());
    return delta_bound_ <= kNarrow ? DeltaWidth::kInt16 : DeltaWidth::kInt64;
  }

  /// Edge density relative to the complete graph (0 for n < 2).
  double density() const noexcept { return density(size(), edge_count()); }
  static double density(std::size_t n, std::size_t edges) noexcept {
    return n >= 2 ? double(edges) / (double(n) * double(n - 1) / 2.0) : 0.0;
  }

  /// kAuto resolution policy: dense when density() >= this ...
  static constexpr double kDenseDensityThreshold = 0.4;
  /// ... and the n x n matrix stays within this budget (256 MiB).
  static constexpr std::size_t kDenseMaxBytes = std::size_t{256} << 20;

  /// Whether an n x n matrix fits kDenseMaxBytes.  The budget is checked
  /// at int32 whatever width the matrix is stored at, so the kAuto choice
  /// does not depend on the weights' magnitude.
  static bool dense_fits(std::size_t n) noexcept {
    // Overflow-safe test for n * n * sizeof(Weight) <= kDenseMaxBytes.
    return n <= kDenseMaxBytes / sizeof(Weight) / n;
  }
  /// The backend kAuto resolves to for n variables and `edges` coalesced
  /// couplings: kDense when the matrix fits and the density reaches the
  /// threshold, kCsr otherwise.
  static QuboBackend auto_backend(std::size_t n, std::size_t edges) noexcept {
    return dense_fits(n) && density(n, edges) >= kDenseDensityThreshold
               ? QuboBackend::kDense
               : QuboBackend::kCsr;
  }

  /// Full O(n + nnz) evaluation of Eq. 2.  Used for verification and for
  /// one-off energy queries; the search kernels never call this per flip.
  Energy energy(const BitVector& x) const;

  /// Delta_k(X) = E(f_k(X)) - E(X) for one k, from scratch (Eq. 3).
  Energy delta(const BitVector& x, VarIndex k) const;

  /// All Delta_k(X) from scratch; used to (re)initialize SearchState.
  void delta_all(const BitVector& x, std::vector<Energy>& out) const;
  /// The same into a buffer of size() elements at a storage width D
  /// (std::int16_t, valid when delta_width() is kInt16, or Energy).
  template <class D>
  void delta_all(const BitVector& x, std::span<D> out) const;

  /// Largest possible |E| change of a single flip: bound used by tests.
  Energy flip_bound(VarIndex i) const;

  /// Heap bytes the model owns (diagonal, plus the CSR arrays or the dense
  /// matrix at its stored width) plus the object itself.
  std::size_t memory_bytes() const noexcept;

  /// One-line description, e.g. "QUBO n=2000 edges=1999000 dense
  /// backend=dense delta=int16 rows=int8" (rows= only when dense).
  std::string describe() const;

 private:
  friend class QuboBuilder;

  std::vector<Weight> diag_;
  // CSR rows, filled when backend_ == kCsr (empty for a dense model).
  std::vector<std::size_t> row_ptr_;  // size n+1
  std::vector<VarIndex> col_;         // size 2*edges
  std::vector<Weight> val_;           // size 2*edges
  // Dense matrix, size n*n when backend_ == kDense (empty otherwise); the
  // alternative held is the model's RowWidth, in enum order.
  std::variant<std::vector<std::int8_t>, std::vector<std::int16_t>,
               std::vector<Weight>>
      dense_;
  std::size_t edge_count_ = 0;
  std::size_t max_degree_ = 0;
  std::uint64_t delta_bound_ = 0;
  QuboBackend backend_ = QuboBackend::kCsr;
};

}  // namespace dabs
