// Mutable accumulator for QUBO models.  Problem reductions add linear and
// quadratic terms in any order (duplicates accumulate); build() validates,
// coalesces, and freezes them into a QuboModel.  A reduction that writes a
// dense matrix itself hands it to build_dense() instead.
#pragma once

#include <cstddef>
#include <vector>

#include "qubo/qubo_model.hpp"
#include "qubo/types.hpp"

namespace dabs {

class QuboBuilder {
 public:
  explicit QuboBuilder(std::size_t n);

  std::size_t size() const noexcept { return diag_.size(); }

  /// Adds w to the linear coefficient W_{i,i}.  Accumulation happens in
  /// 64-bit; overflow of the final int32 coefficient is rejected at
  /// build() time.
  QuboBuilder& add_linear(VarIndex i, Weight w);

  /// Adds w to the quadratic coefficient W_{i,j} (i != j; order irrelevant).
  /// The accumulated coupling must land in the symmetric range
  /// [-INT32_MAX, INT32_MAX]; INT32_MIN is rejected at build() time so the
  /// dense flip kernel can negate weights branchlessly.
  QuboBuilder& add_quadratic(VarIndex i, VarIndex j, Weight w);

  /// Number of raw (non-coalesced) quadratic terms added so far.
  std::size_t term_count() const noexcept { return entries_.size(); }

  /// Reserves room for `terms` quadratic terms, for callers that know how
  /// many they will add.
  QuboBuilder& reserve(std::size_t terms);

  /// Overrides the kernel backend of the built model.  kAuto (default)
  /// selects kDense when the coalesced edge density reaches
  /// QuboModel::kDenseDensityThreshold and the row-major matrix fits
  /// QuboModel::kDenseMaxBytes; kCsr / kDense force the choice (kDense is
  /// rejected at build() time when the matrix would not fit the budget).
  /// Like the accumulated terms, the override is consumed by build(),
  /// which resets it to kAuto.
  QuboBuilder& set_backend(QuboBackend backend) noexcept {
    backend_ = backend;
    return *this;
  }
  QuboBackend backend() const noexcept { return backend_; }

  /// Coalesces duplicates, drops zero couplings, and produces the model.
  /// Terms added in (i, j) order skip the sort.  A model that resolves to
  /// the dense backend fills the upper triangle of its matrix and finishes
  /// like build_dense(); a sparse one scatters every coupling into both
  /// endpoint rows, ascending by column.  Throws std::invalid_argument
  /// when any accumulated coefficient overflows the int32 weight range.
  /// The builder is left empty afterwards.
  QuboModel build();

  /// A dense model from its 64-bit accumulated linear terms and a row-major
  /// n x n matrix (n = linear.size()) holding W_{i,j}, i < j, at slot
  /// i * n + j.  The other slots are overwritten: the lower triangle
  /// mirrors the upper one and the diagonal slots are zeroed.  The linear
  /// terms get build()'s int32 range check and every coupling its
  /// symmetric range check; the matrix is stored at the narrowest
  /// RowWidth that holds it.  T is std::int8_t, std::int16_t or Weight.
  /// The caller decides the backend (QuboModel::auto_backend).
  template <class T>
  static QuboModel build_dense(const std::vector<Energy>& linear,
                               std::vector<T> upper);

 private:
  struct Entry {
    VarIndex i, j;  // normalized i < j
    Energy w;       // 64-bit accumulation
  };

  std::vector<Energy> diag_;
  std::vector<Entry> entries_;
  QuboBackend backend_ = QuboBackend::kAuto;
};

}  // namespace dabs
