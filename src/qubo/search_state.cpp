#include "qubo/search_state.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <type_traits>
#include <utility>

#include "qubo/candidate_mask.hpp"
#include "util/assert.hpp"

namespace dabs {

namespace {

/// Dense row element type that goes with a Delta element type: the model
/// stores its rows at int16 exactly when its Deltas fit int16.
template <class D>
using RowOf =
    std::conditional_t<std::is_same_v<D, std::int16_t>, std::int16_t, Weight>;

/// Eq. 4 over one dense block [b0, b1) of Delta (row streamed, branchless):
/// Delta_k += W_{i,k} * sigma(x_i) * sigma(x_k).  The sign product is
/// applied as an xor-negate (m == 0 keeps w, m == -1 yields -w) because the
/// baseline x86-64 target has no vector 64-bit multiply — this form
/// auto-vectorizes under plain SSE2, and at int16 in 16-bit lanes.  Safe
/// because the builder rejects INT32_MIN couplings and an int16 row's
/// weights are bounded by delta_bound() <= INT16_MAX.  row[i] is 0, so
/// Delta_i is left for Eq. 5.  Every result is a true Delta, so the
/// narrowing store is exact.
template <class D, class W>
void dense_update_block(D* __restrict d, const W* __restrict row,
                        const std::int8_t* __restrict sg, std::int32_t si,
                        std::size_t b0, std::size_t b1) {
  if (si >= 0) {
    for (std::size_t k = b0; k < b1; ++k) {
      const W m = static_cast<W>(sg[k] >> 7);  // sg<0 ? -1 : 0
      d[k] = static_cast<D>(d[k] + static_cast<W>((row[k] ^ m) - m));
    }
  } else {
    for (std::size_t k = b0; k < b1; ++k) {
      const W m = static_cast<W>(~(sg[k] >> 7));  // sg<0 ? 0 : -1
      d[k] = static_cast<D>(d[k] + static_cast<W>((row[k] ^ m) - m));
    }
  }
}

/// Branchless min/max over one block.
template <class D>
void reduce_block(const D* __restrict d, std::size_t b0, std::size_t b1,
                  D& mn, D& mx) {
  D lo = d[b0], hi = d[b0];
  for (std::size_t k = b0 + 1; k < b1; ++k) {
    lo = d[k] < lo ? d[k] : lo;
    hi = d[k] > hi ? d[k] : hi;
  }
  mn = lo;
  mx = hi;
}

/// reduce_block plus the walk's masked minimum over the same elements,
/// min of max(d[k], off[k]), in the one pass.
template <class D>
void reduce_block(const D* __restrict d, const D* __restrict off,
                  std::size_t b0, std::size_t b1, D& mn, D& mx, D& masked) {
  D lo = d[b0], hi = d[b0], m = std::numeric_limits<D>::max();
  for (std::size_t k = b0; k < b1; ++k) {
    lo = d[k] < lo ? d[k] : lo;
    hi = d[k] > hi ? d[k] : hi;
    const D v = d[k] > off[k] ? d[k] : off[k];
    m = v < m ? v : m;
  }
  mn = lo;
  mx = hi;
  masked = m;
}

/// min over k in [b0, b1) of max(d[k], off[k]) alone.
template <class D>
D masked_min(const D* __restrict d, const D* __restrict off, std::size_t b0,
             std::size_t b1) {
  D m = std::numeric_limits<D>::max();
  for (std::size_t k = b0; k < b1; ++k) {
    const D v = d[k] > off[k] ? d[k] : off[k];
    m = v < m ? v : m;
  }
  return m;
}

/// Step 1's running reduction, folded one block at a time.  With an off
/// array it also carries the walk's masked minimum and the first block
/// attaining it.
template <class D>
struct Reduction {
  D mn = std::numeric_limits<D>::max();
  D mx = std::numeric_limits<D>::min();
  std::size_t mn_block = 0;
  D masked = std::numeric_limits<D>::max();
  std::size_t masked_block = 0;

  void fold(const D* d, const D* off, std::size_t b0, std::size_t b1) {
    D bmn, bmx, bmasked = std::numeric_limits<D>::max();
    if (off) {
      reduce_block(d, off, b0, b1, bmn, bmx, bmasked);
      if (bmasked < masked) {
        masked = bmasked;
        masked_block = b0;
      }
    } else {
      reduce_block(d, b0, b1, bmn, bmx);
    }
    if (bmn < mn) {
      mn = bmn;
      mn_block = b0;
    }
    mx = bmx > mx ? bmx : mx;
  }

  /// The first 64-variable word attaining the masked minimum, searched in
  /// the first block that attains it (block starts are multiples of 64).
  /// When nothing is below D's highest value the walk picks without it.
  std::size_t masked_word(const D* d, const D* off, std::size_t n) const {
    if (masked == std::numeric_limits<D>::max()) return masked_block / 64;
    std::size_t w0 = masked_block;
    for (;; w0 += 64) {
      DABS_ASSERT(w0 < n);
      if (w0 + 64 <= n ? masked_min(d + w0, off + w0, 0, 64) == masked
                       : masked_min(d, off, w0, n) == masked) {
        return w0 / 64;
      }
    }
  }
};

/// First k in [b0, b1) with d[k] == v, one 64-slot equality mask at a
/// time; v must occur in the range.
template <class D>
VarIndex first_equal(const D* __restrict d, std::size_t b0, std::size_t b1,
                     D v) {
  for (std::size_t base = b0;; base += 64) {
    DABS_ASSERT(base < b1);
    const std::size_t len = std::min<std::size_t>(64, b1 - base);
    const std::uint64_t m =
        pack_word(base, len, [&](std::size_t k) { return d[k] == v; });
    if (m != 0) return static_cast<VarIndex>(base + std::countr_zero(m));
  }
}

}  // namespace

SearchState::SearchState(const QuboModel& model)
    : model_(&model),
      x_(model.size()),
      width_(model.delta_width()),
      delta16_(width_ == DeltaWidth::kInt16 ? model.size() : 0),
      delta64_(width_ == DeltaWidth::kInt64 ? model.size() : 0),
      sigma_(model.size(), std::int8_t{-1}),
      best_(model.size()),
      scratch_(model.size()) {
  reset();
}

void SearchState::reset() {
  x_.clear();
  energy_ = 0;
  with_deltas([&](auto* d) {
    using D = std::remove_pointer_t<decltype(d)>;
    const auto n = static_cast<VarIndex>(size());
    // |W_kk| <= delta_bound(), so the narrowing is exact.
    for (VarIndex k = 0; k < n; ++k) d[k] = static_cast<D>(model_->diag(k));
  });
  std::fill(sigma_.begin(), sigma_.end(), std::int8_t{-1});
  flips_ = 0;
  reset_best();
}

void SearchState::reset_to(const BitVector& x) {
  DABS_CHECK(x.size() == size(), "solution length mismatch");
  x_ = x;
  energy_ = model_->energy(x_);
  with_deltas([&](auto* d) {
    model_->delta_all(x_, std::span(d, size()));
  });
  for (std::size_t k = 0; k < sigma_.size(); ++k) {
    sigma_[k] = static_cast<std::int8_t>(sigma(x_.get(k)));
  }
  flips_ = 0;
  reset_best();
}

void SearchState::reset_best() {
  best_ = x_;
  best_energy_ = energy_;
}

void SearchState::maybe_record_visited() {
  if (energy_ < best_energy_) {
    best_ = x_;
    best_energy_ = energy_;
  }
}

void SearchState::record_best_neighbor(VarIndex arg, Energy e) {
  scratch_ = x_;  // word copy into the preallocated buffer — no allocation
  scratch_.flip(arg);
  std::swap(best_, scratch_);
  best_energy_ = e;
}

template <class D>
void SearchState::finish_flip(D* d, VarIndex i, std::int32_t si) {
  energy_ += d[i];
  d[i] = static_cast<D>(-d[i]);  // Eq. 5
  sigma_[i] = static_cast<std::int8_t>(-si);
  x_.flip(i);
  ++flips_;
  maybe_record_visited();
}

template <class D>
void SearchState::flip_impl(D* d, VarIndex i) {
  DABS_ASSERT(i < size());
  const std::int32_t si = sigma_[i];  // sigma of the *old* value of bit i
  if (model_->has_dense_rows()) {
    dense_update_block(d, model_->dense_row<RowOf<D>>(i), sigma_.data(), si,
                       0, size());
  } else {
    const auto nbrs = model_->neighbors(i);
    const auto w = model_->weights(i);
    const std::int8_t* sg = sigma_.data();
    for (std::size_t t = 0; t < nbrs.size(); ++t) {
      const VarIndex k = nbrs[t];
      // Eq. 4: Delta_k(f_i(X)) = Delta_k(X) + W_{i,k} sigma(x_i) sigma(x_k).
      // |W_{i,k}| <= INT32_MAX, so the signed product is exact in int32.
      d[k] = static_cast<D>(d[k] + w[t] * (si * std::int32_t{sg[k]}));
    }
  }
  finish_flip(d, i, si);
}

void SearchState::flip(VarIndex i) {
  with_deltas([&](auto* d) { flip_impl(d, i); });
}

template <class D>
ScanResult SearchState::finish_scan(const D* d, D mn, D mx,
                                    std::size_t mn_block) {
  // The first-occurrence argmin lives in the first block that attained mn.
  const VarIndex arg =
      first_equal(d, mn_block, std::min(size(), mn_block + kScanBlock), mn);
  const Energy e = energy_ + mn;
  if (e < best_energy_) record_best_neighbor(arg, e);
  return {mn, mx, arg};
}

template <class D>
D* SearchState::deltas_at() {
  if constexpr (std::is_same_v<D, std::int16_t>) {
    DABS_CHECK(width_ == DeltaWidth::kInt16, "mask width differs from Delta's");
    return delta16_.data();
  } else {
    static_assert(std::is_same_v<D, Energy>);
    DABS_CHECK(width_ == DeltaWidth::kInt64, "mask width differs from Delta's");
    return delta64_.data();
  }
}

template <class D>
MaskedScan SearchState::scan_impl(const D* d,
                                  const std::type_identity_t<D>* off) {
  const std::size_t n = size();
  DABS_ASSERT(n > 0);
  Reduction<D> r;
  for (std::size_t b0 = 0; b0 < n; b0 += kScanBlock) {
    const std::size_t b1 = std::min(n, b0 + kScanBlock);
    r.fold(d, off, b0, b1);
  }
  return {finish_scan(d, r.mn, r.mx, r.mn_block), r.masked,
          off ? r.masked_word(d, off, n) : 0};
}

ScanResult SearchState::scan() {
  return with_deltas([&](auto* d) { return scan_impl(d, nullptr).scan; });
}

template <class D>
MaskedScan SearchState::scan(std::span<const D> off) {
  DABS_CHECK(off.size() == size(), "mask length mismatch");
  return scan_impl(deltas_at<D>(), off.data());
}

template <class D>
MaskedScan SearchState::flip_and_scan_impl(
    D* d, VarIndex i, const std::type_identity_t<D>* off) {
  if (!model_->has_dense_rows()) {
    // Sparse flips touch O(deg) scattered deltas; nothing to fuse.
    flip_impl(d, i);
    return scan_impl(d, off);
  }
  DABS_ASSERT(i < size());
  const std::size_t n = size();
  const std::int32_t si = sigma_[i];
  const RowOf<D>* row = model_->dense_row<RowOf<D>>(i);
  // Eq. 5 and the X/E/BEST bookkeeping come first: row[i] == 0 means the
  // blocked Eq. 4 sweep below never touches Delta_i, so the reduction sees
  // every delta in its final state while it is still cache-hot.
  finish_flip(d, i, si);
  Reduction<D> r;
  for (std::size_t b0 = 0; b0 < n; b0 += kScanBlock) {
    const std::size_t b1 = std::min(n, b0 + kScanBlock);
    dense_update_block(d, row, sigma_.data(), si, b0, b1);
    r.fold(d, off, b0, b1);
  }
  return {finish_scan(d, r.mn, r.mx, r.mn_block), r.masked,
          off ? r.masked_word(d, off, n) : 0};
}

ScanResult SearchState::flip_and_scan(VarIndex i) {
  return with_deltas(
      [&](auto* d) { return flip_and_scan_impl(d, i, nullptr).scan; });
}

template <class D>
MaskedScan SearchState::flip_and_scan(VarIndex i, std::span<const D> off) {
  DABS_CHECK(off.size() == size(), "mask length mismatch");
  return flip_and_scan_impl(deltas_at<D>(), i, off.data());
}

template MaskedScan SearchState::scan(std::span<const std::int16_t>);
template MaskedScan SearchState::scan(std::span<const Energy>);
template MaskedScan SearchState::flip_and_scan(VarIndex,
                                               std::span<const std::int16_t>);
template MaskedScan SearchState::flip_and_scan(VarIndex,
                                               std::span<const Energy>);

bool SearchState::is_local_minimum() const {
  return deltas().visit([](auto delta) {
    return std::none_of(delta.begin(), delta.end(),
                        [](auto d) { return d < 0; });
  });
}

}  // namespace dabs
