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

/// One block's share of Step 1: min and max of Delta and, for the walk,
/// the least max(Delta_k, off[k]) (D's highest value without an off array).
template <class D>
struct BlockFold {
  D mn, mx, masked;
};

/// dense_flip_block's sx for a flipped bit whose old spin is si.
constexpr std::int8_t sign_mask(std::int32_t si) noexcept {
  return si < 0 ? std::int8_t{-1} : std::int8_t{0};
}

/// The one dense flip loop: Eq. 4 over the block [b0, b1) of Delta, with
/// Step 1's reduction of the same slots folded into the same pass.  Eq. 4,
/// Delta_k += W_{i,k} * sigma(x_i) * sigma(x_k), applies the sign product
/// to the row element at its stored width R as an xor-negate (m == 0 keeps
/// w, m == -1 yields -w), then widens it to D: the baseline x86-64 target
/// has no vector 64-bit multiply, and this form auto-vectorizes under plain
/// SSE2, 16 int8 weights per register at int8.  sx is -1 when
/// sigma(x_i) = -1 and 0 otherwise, so (sg[k] ^ sx) is negative exactly
/// when the product is -1.  R excludes its lowest value, so the negation
/// is exact; row[i] is 0, so Delta_i is left for Eq. 5; every result is a
/// true Delta, so the store at D is exact.  Each new Delta is folded into
/// the block's min and max and, when kMasked, into the least
/// max(Delta_k, off[k]).  A caller that drops the result gets the update
/// alone.
template <bool kMasked, class D, class R>
BlockFold<D> dense_flip_block(D* __restrict d, const R* __restrict row,
                              const std::int8_t* __restrict sg,
                              std::int8_t sx,
                              const std::type_identity_t<D>* __restrict off,
                              std::size_t b0, std::size_t b1) {
  D lo = std::numeric_limits<D>::max();
  D hi = std::numeric_limits<D>::min();
  D ms = std::numeric_limits<D>::max();
  for (std::size_t k = b0; k < b1; ++k) {
    const auto m = static_cast<R>((sg[k] ^ sx) >> 7);
    const auto w = static_cast<D>(static_cast<R>((row[k] ^ m) - m));
    const auto v = static_cast<D>(d[k] + w);
    d[k] = v;
    lo = v < lo ? v : lo;
    hi = v > hi ? v : hi;
    if constexpr (kMasked) {
      const D t = v > off[k] ? v : off[k];
      ms = t < ms ? t : ms;
    }
  }
  return {lo, hi, ms};
}

/// Step 1's reduction of the block [b0, b1) with no update (scan(), and
/// every scan on the CSR backend).
template <bool kMasked, class D>
BlockFold<D> reduce_block(const D* __restrict d, const D* __restrict off,
                          std::size_t b0, std::size_t b1) {
  D lo = std::numeric_limits<D>::max();
  D hi = std::numeric_limits<D>::min();
  D ms = std::numeric_limits<D>::max();
  for (std::size_t k = b0; k < b1; ++k) {
    lo = d[k] < lo ? d[k] : lo;
    hi = d[k] > hi ? d[k] : hi;
    if constexpr (kMasked) {
      const D t = d[k] > off[k] ? d[k] : off[k];
      ms = t < ms ? t : ms;
    }
  }
  return {lo, hi, ms};
}

/// Step 1's running reduction, folded one block at a time in block order,
/// so each minimum keeps the first block attaining it.  With an off array
/// it also carries the walk's masked minimum and its first block.
template <class D>
struct Reduction {
  D mn = std::numeric_limits<D>::max();
  D mx = std::numeric_limits<D>::min();
  std::size_t mn_block = 0;
  D masked = std::numeric_limits<D>::max();
  std::size_t masked_block = 0;

  void fold(const BlockFold<D>& b, std::size_t b0) {
    if (b.mn < mn) {
      mn = b.mn;
      mn_block = b0;
    }
    mx = b.mx > mx ? b.mx : mx;
    if (b.masked < masked) {
      masked = b.masked;
      masked_block = b0;
    }
  }

  /// The first variable attaining the masked minimum, searched word by
  /// word from the first block that attains it (block starts are
  /// multiples of 64); n when nothing is below D's highest value.  A real
  /// Delta is above D's lowest value, so with off[k] at D's lowest or
  /// highest, max(Delta_k, off[k]) equals a masked minimum below D's
  /// highest exactly when Delta_k equals it and off[k] is at most it.
  VarIndex masked_arg(const D* d, const D* off, std::size_t n) const {
    if (masked == std::numeric_limits<D>::max()) {
      return static_cast<VarIndex>(n);
    }
    for (std::size_t base = masked_block;; base += 64) {
      DABS_ASSERT(base < n);
      const std::size_t len = std::min<std::size_t>(64, n - base);
      const std::uint64_t m =
          compare_mask<Compare::kEqual>(d + base, len, masked) &
          compare_mask<Compare::kLessEqual>(off + base, len, masked);
      if (m != 0) return static_cast<VarIndex>(base + std::countr_zero(m));
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
    const std::uint64_t m = compare_mask<Compare::kEqual>(d + base, len, v);
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
    const std::size_t n = size();
    model_->with_dense_rows([&](const auto* w) {
      (void)dense_flip_block<false>(d, w + std::size_t{i} * n, sigma_.data(),
                                    sign_mask(si), nullptr, 0, n);
    });
  } else {
    const auto [nbrs, w] = model_->csr_row(i);
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
    r.fold(off ? reduce_block<true>(d, off, b0, b1)
               : reduce_block<false>(d, off, b0, b1),
           b0);
  }
  return {finish_scan(d, r.mn, r.mx, r.mn_block), r.masked,
          off ? r.masked_arg(d, off, n) : 0};
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
  // Eq. 5 and the X/E/BEST bookkeeping come first: row[i] == 0 means the
  // Eq. 4 pass below never touches Delta_i, so it reduces every delta in
  // its final state as it stores it.
  finish_flip(d, i, si);
  Reduction<D> r;
  model_->with_dense_rows([&](const auto* w) {
    const auto* row = w + std::size_t{i} * n;
    const std::int8_t* sg = sigma_.data();
    const std::int8_t sx = sign_mask(si);
    for (std::size_t b0 = 0; b0 < n; b0 += kScanBlock) {
      const std::size_t b1 = std::min(n, b0 + kScanBlock);
      r.fold(off ? dense_flip_block<true>(d, row, sg, sx, off, b0, b1)
                 : dense_flip_block<false>(d, row, sg, sx, off, b0, b1),
             b0);
    }
  });
  return {finish_scan(d, r.mn, r.mx, r.mn_block), r.masked,
          off ? r.masked_arg(d, off, n) : 0};
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
