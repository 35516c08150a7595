// Incremental search state (paper §III-A).
//
// Maintains, for a current solution X:
//   - E(X)                       updated in O(1) per flip,
//   - Delta_k(X) for every k     updated in O(deg(i)) per flip of bit i
//                                via Eq. (4) (neighbors) and Eq. (5) (i itself),
//   - BEST / E(BEST)             the best 1-bit neighbor f_j(X) seen by any
//                                Step-1 scan (plus every visited X), which is
//                                what a batch search ultimately reports.
//
// Kernel engine: alongside the packed x_ the state caches sigma_ (int8 ±1,
// kept in sync with x_), so both flip kernels are branchless
// Delta_k += w * si * sigma_[k] loops the compiler can auto-vectorize —
// a contiguous row stream on the dense backend, a CSR gather on the sparse
// one.  scan() is the CPU equivalent of the paper's GPU Step 1: a blocked
// min/argmin/max reduction over Delta that opportunistically improves BEST.
// flip_and_scan() fuses Step 3 of one iteration with Step 1 of the next;
// on the dense backend one pass per block stores each new Delta and folds
// it into the reduction, so Delta is read once per flip.  Their masked overloads also reduce the straight walk's
// Step 2 in the same pass (MaskedScan), so the walk never re-reads Delta.
//
// Width: Delta is stored at the model's DeltaWidth — int16 when
// QuboModel::delta_bound() <= INT16_MAX, int64 otherwise — and E is always
// int64.  The dense rows are read at the model's own RowWidth (int8, int16
// or int32), each element widened to the Delta width in the kernel.  Every
// stored Delta is a true Delta of the current X, so it is bounded by
// delta_bound() and every width is exact: every backend, width pair and
// kernel variant is bit-identical.  The kernels are written once over the
// element types and dispatched once per call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "qubo/qubo_model.hpp"
#include "qubo/types.hpp"
#include "util/bit_vector.hpp"

namespace dabs {

struct ScanResult {
  Energy min_delta;
  Energy max_delta;
  VarIndex argmin;
};

/// Step 1 plus the straight walk's Step 2 (see the masked scan()):
/// masked_min is min_k max(Delta_k, off[k]); when it is below the storage
/// width's highest value, masked_arg is the first variable that attains
/// it, and size() otherwise.
struct MaskedScan {
  ScanResult scan;
  Energy masked_min;
  VarIndex masked_arg;
};

/// Read-only view of a SearchState's Delta array at its storage width.
/// visit(f) calls f once, with a std::span<const std::int16_t> or a
/// std::span<const Energy>, so a Step-2 loop written as a generic lambda
/// compiles once per width and dispatches once per call, not per element.
/// The spans stay valid, and see every later flip, for the state's
/// lifetime.
class DeltaView {
 public:
  DeltaView(std::span<const std::int16_t> narrow,
            std::span<const Energy> wide, DeltaWidth width) noexcept
      : narrow_(narrow), wide_(wide), width_(width) {}

  template <class F>
  decltype(auto) visit(F&& f) const {
    if (width_ == DeltaWidth::kInt16) return f(narrow_);
    return f(wide_);
  }

 private:
  std::span<const std::int16_t> narrow_;
  std::span<const Energy> wide_;
  DeltaWidth width_;
};

class SearchState {
 public:
  /// Binds to a model; starts at the zero vector (E=0, Delta_k = W_{k,k}).
  explicit SearchState(const QuboModel& model);

  const QuboModel& model() const noexcept { return *model_; }
  std::size_t size() const noexcept { return sigma_.size(); }

  /// Resets to the zero vector in O(n) without touching the matrix
  /// (the paper's batch-search starting point).
  void reset();

  /// Resets to an arbitrary vector; O(n + nnz) full recompute.
  void reset_to(const BitVector& x);

  const BitVector& solution() const noexcept { return x_; }
  Energy energy() const noexcept { return energy_; }
  Energy delta(VarIndex k) const {
    return width_ == DeltaWidth::kInt16 ? Energy{delta16_[k]} : delta64_[k];
  }
  DeltaView deltas() const noexcept {
    return {delta16_, delta64_, width_};
  }

  /// Cached spins sigma(x_k) as int8 ±1, always in sync with solution().
  std::span<const std::int8_t> sigmas() const noexcept { return sigma_; }

  /// Flips bit i: X <- f_i(X), updating E and every Delta_k incrementally.
  /// Also folds the *visited* X into BEST (an O(1) check).
  void flip(VarIndex i);

  /// Fused Step 3 + Step 1: flip(i) followed by scan(), except the dense
  /// backend reduces each Delta in the same pass that stores it.  Exactly
  /// equivalent to `flip(i); return scan();`.
  ScanResult flip_and_scan(VarIndex i);

  /// Total flips since construction or the last reset.
  std::uint64_t flip_count() const noexcept { return flips_; }

  /// Step 1: one pass over Delta computing min/argmin/max and updating
  /// BEST with the best 1-bit neighbor if it improves.
  ScanResult scan();

  /// Masked Step 1 for the straight walk.  off holds one value per
  /// variable at the Delta storage width D (std::int16_t at kInt16, Energy
  /// at kInt64): D's lowest value while bit k is a candidate, D's highest
  /// once it is not.  Besides scan(), the same pass over each cache-hot
  /// block reduces max(Delta_k, off[k]), so a masked_min below D's highest
  /// is the least candidate Delta; the first block attaining it is then
  /// searched word by word for its first occurrence, one equality and one
  /// <= mask per word.
  template <class D>
  MaskedScan scan(std::span<const D> off);
  /// flip(i) followed by the masked scan(off), fused like flip_and_scan().
  template <class D>
  MaskedScan flip_and_scan(VarIndex i, std::span<const D> off);

  /// BEST bookkeeping.
  const BitVector& best() const noexcept { return best_; }
  Energy best_energy() const noexcept { return best_energy_; }
  /// Re-anchors BEST at the current X (start of a fresh batch search).
  void reset_best();

  /// True when every Delta_k >= 0, i.e. X is a 1-flip local minimum.
  bool is_local_minimum() const;

 private:
  /// Reduction block width: big enough to amortize the per-block argmin
  /// bookkeeping, small enough that the first block attaining the minimum,
  /// re-read for its first occurrence, is still in L1/L2.
  static constexpr std::size_t kScanBlock = 1024;

  /// Calls f with the Delta array at its storage width (int16_t* or
  /// Energy*); the kernels below are instantiated once per width.
  template <class F>
  decltype(auto) with_deltas(F&& f) {
    if (width_ == DeltaWidth::kInt16) return f(delta16_.data());
    return f(delta64_.data());
  }

  void maybe_record_visited();
  /// Records BEST <- f_{arg}(X) with energy e through the scratch buffer
  /// (word copy + swap; no per-improvement allocation).
  void record_best_neighbor(VarIndex arg, Energy e);
  template <class D>
  void flip_impl(D* d, VarIndex i);
  /// The Delta array at storage width D, which must match width_.
  template <class D>
  D* deltas_at();
  /// The kernels below take off == nullptr for the unmasked variants.
  template <class D>
  MaskedScan scan_impl(const D* d, const std::type_identity_t<D>* off);
  template <class D>
  MaskedScan flip_and_scan_impl(D* d, VarIndex i,
                                const std::type_identity_t<D>* off);
  /// Shared tail of flip()/flip_and_scan(): Eq. 5 and the x/sigma updates.
  template <class D>
  void finish_flip(D* d, VarIndex i, std::int32_t si);
  /// Locates the first argmin in the block starting at mn_block and
  /// applies the BEST update.
  template <class D>
  ScanResult finish_scan(const D* d, D mn, D mx, std::size_t mn_block);

  const QuboModel* model_;
  BitVector x_;
  Energy energy_ = 0;
  DeltaWidth width_;
  // Delta_k at width_: exactly one of the two holds n elements.
  std::vector<std::int16_t> delta16_;
  std::vector<Energy> delta64_;
  std::vector<std::int8_t> sigma_;  // sigma_[k] == sigma(x_.get(k))
  std::uint64_t flips_ = 0;

  BitVector best_;
  BitVector scratch_;  // reusable buffer for BEST updates
  Energy best_energy_ = 0;
};

}  // namespace dabs
