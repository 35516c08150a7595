#include "search/bulk_search_state.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>

#include "util/assert.hpp"

namespace dabs {

namespace detail {

namespace {

constexpr std::size_t kLanes = BulkSearchState::kLanesPerBlock;
constexpr std::size_t kChunkMax = BulkSearchState::kMaxChunk;

/// Rank-B dense pass (the compute-bound core): for every k, accumulate the
/// B chunk rows weighted by the k-independent lane factors h, then fold in
/// sigma_k once.  B is a compile-time constant so the b-loop unrolls and
/// the r-loop vectorizes across the 64 contiguous lanes.  The rows arrive
/// at the model's RowWidth; each tile of them is first widened to DeltaT
/// in L1, so the inner loop broadcasts lane-width weights from memory (a
/// per-element widen there costs about 15% in BM_BulkFlipK2000).
template <typename DeltaT, typename RowT, int B>
void dense_chunk_pass(std::size_t n, const RowT* const* rows,
                      const DeltaT* h, DeltaT* __restrict d,
                      const DeltaT* __restrict s) {
  constexpr std::size_t kTile = 128;
  alignas(64) DeltaT wt[B][kTile];
  for (std::size_t k0 = 0; k0 < n; k0 += kTile) {
    const std::size_t len = std::min(kTile, n - k0);
    for (int b = 0; b < B; ++b) {
      for (std::size_t t = 0; t < len; ++t) {
        wt[b][t] = static_cast<DeltaT>(rows[b][k0 + t]);
      }
    }
    for (std::size_t t = 0; t < len; ++t) {
      DeltaT* __restrict dk = d + (k0 + t) * kLanes;
      const DeltaT* __restrict sk = s + (k0 + t) * kLanes;
      for (std::size_t r = 0; r < kLanes; ++r) {
        DeltaT acc = 0;
        for (int b = 0; b < B; ++b) {
          acc = static_cast<DeltaT>(
              acc + static_cast<DeltaT>(wt[b][t] * h[b * kLanes + r]));
        }
        dk[r] = static_cast<DeltaT>(dk[r] + static_cast<DeltaT>(acc * sk[r]));
      }
    }
  }
}

}  // namespace

/// Width-erased interface; BulkSearchState holds one of the three
/// instantiations below.  Virtual dispatch is per bulk op (thousands of
/// lane-flips each), so its cost is noise.
class BulkEngine {
 public:
  virtual ~BulkEngine() = default;

  const QuboModel& model() const noexcept { return *model_; }
  std::size_t size() const noexcept { return n_; }
  std::size_t replica_count() const noexcept { return replicas_; }
  std::size_t block_count() const noexcept { return blocks_; }

  virtual void reset() = 0;
  virtual void reset_to(std::size_t r, const BitVector& x) = 0;
  virtual Energy delta(std::size_t r, VarIndex k) const = 0;
  virtual std::uint64_t negative_delta_word(std::size_t b,
                                            VarIndex k) const = 0;
  virtual bool is_local_minimum(std::size_t r) const = 0;
  virtual void apply_chunk(std::span<const VarIndex> idx,
                           std::span<const std::uint64_t> lane_masks,
                           bool conditional,
                           std::span<std::uint64_t> applied) = 0;
  virtual void scan(std::span<ScanResult> out) = 0;
  virtual void flip_and_scan(VarIndex i,
                             std::span<const std::uint64_t> lane_mask,
                             std::span<ScanResult> out) = 0;

  Energy energy(std::size_t r) const { return energy_[r]; }
  Energy best_energy(std::size_t r) const { return best_energy_[r]; }
  std::uint64_t flip_count(std::size_t r) const { return flips_[r]; }

  bool get(std::size_t r, VarIndex k) const {
    return (x_[(r / kLanes) * n_ + k] >> (r % kLanes)) & 1u;
  }

  std::uint64_t solution_word(std::size_t b, VarIndex k) const {
    return x_[b * n_ + k];
  }

  BitVector extract(const std::uint64_t* sliced, std::size_t r) const {
    BitVector v(n_);
    const std::uint64_t* w = sliced + (r / kLanes) * n_;
    const std::uint64_t bit = std::uint64_t{1} << (r % kLanes);
    for (std::size_t k = 0; k < n_; ++k) {
      if (w[k] & bit) v.set(k, true);
    }
    return v;
  }
  BitVector solution(std::size_t r) const { return extract(x_.data(), r); }
  BitVector best(std::size_t r) const { return extract(best_.data(), r); }

  void reset_best(std::size_t r) {
    const std::size_t b = r / kLanes;
    const std::uint64_t m = std::uint64_t{1} << (r % kLanes);
    const std::uint64_t* xw = x_.data() + b * n_;
    std::uint64_t* bw = best_.data() + b * n_;
    for (std::size_t k = 0; k < n_; ++k) bw[k] = (bw[k] & ~m) | (xw[k] & m);
    best_energy_[r] = energy_[r];
  }

  void reset_best_all() {
    best_ = x_;
    best_energy_ = energy_;
  }

 protected:
  BulkEngine(const QuboModel& model, std::size_t replicas)
      : model_(&model),
        n_(model.size()),
        replicas_(replicas),
        blocks_((replicas + kLanes - 1) / kLanes),
        x_(blocks_ * model.size(), 0),
        best_(blocks_ * model.size(), 0),
        energy_(blocks_ * kLanes, 0),
        best_energy_(blocks_ * kLanes, 0),
        flips_(blocks_ * kLanes, 0) {
    DABS_CHECK(model.size() > 0, "bulk state needs a non-empty model");
    DABS_CHECK(replicas > 0, "bulk state needs at least one replica");
  }

  /// Lanes of block b that map to real replicas (the last block may be
  /// partial); every externally supplied mask is trimmed by this.
  std::uint64_t active_lanes(std::size_t b) const {
    const std::size_t remaining = replicas_ - b * kLanes;
    return remaining >= kLanes ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << remaining) - 1;
  }

  /// Runs fn(b) for every block, in block order.
  template <class Fn>
  void for_each_block(Fn&& fn) {
    for (std::size_t b = 0; b < blocks_; ++b) fn(b);
  }

  const QuboModel* model_;
  std::size_t n_;
  std::size_t replicas_;
  std::size_t blocks_;

  // Bit-sliced X / BEST: word [b * n_ + k] holds bit k of the 64 replicas
  // of block b (lane r at bit position r, LSB-first like util/bit_vector).
  std::vector<std::uint64_t> x_;
  std::vector<std::uint64_t> best_;
  std::vector<Energy> energy_;       // [b * 64 + lane]
  std::vector<Energy> best_energy_;  // [b * 64 + lane]
  std::vector<std::uint64_t> flips_; // [b * 64 + lane]
};

template <typename DeltaT>
class BulkEngineImpl final : public BulkEngine {
  // int16 lanes read same-width weights so the multiply-accumulate stays
  // in one vector width end to end: an int16 copy of the CSR values, and
  // dense rows widened tile by tile (dense_chunk_pass).  The wider engines
  // run only on models whose bound exceeds int16 and read the int32 CSR
  // values.
  using WeightT =
      std::conditional_t<std::is_same_v<DeltaT, std::int16_t>, std::int16_t,
                         Weight>;

 public:
  BulkEngineImpl(const QuboModel& model, std::size_t replicas)
      : BulkEngine(model, replicas),
        delta_(blocks_ * model.size() * kLanes),
        sval_(blocks_ * model.size() * kLanes) {
    if constexpr (std::is_same_v<DeltaT, std::int16_t>) {
      if (!model.has_dense_rows()) {
        offs_.resize(n_ + 1, 0);
        for (VarIndex i = 0; i < static_cast<VarIndex>(n_); ++i) {
          offs_[i + 1] = offs_[i] + model.degree(i);
        }
        val16_.resize(offs_[n_]);
        for (VarIndex i = 0; i < static_cast<VarIndex>(n_); ++i) {
          const auto w = model.csr_row(i).vals;
          for (std::size_t t = 0; t < w.size(); ++t) {
            val16_[offs_[i] + t] = static_cast<std::int16_t>(w[t]);
          }
        }
      }
    }
    reset();
  }

  void reset() override {
    std::fill(x_.begin(), x_.end(), 0);
    std::fill(energy_.begin(), energy_.end(), Energy{0});
    std::fill(flips_.begin(), flips_.end(), std::uint64_t{0});
    std::fill(sval_.begin(), sval_.end(), DeltaT{-1});
    for (std::size_t b = 0; b < blocks_; ++b) {
      DeltaT* d = delta_.data() + b * n_ * kLanes;
      for (std::size_t k = 0; k < n_; ++k) {
        const auto dk = static_cast<DeltaT>(
            model_->diag(static_cast<VarIndex>(k)));
        std::fill(d + k * kLanes, d + (k + 1) * kLanes, dk);
      }
    }
    reset_best_all();
  }

  void reset_to(std::size_t r, const BitVector& x) override {
    DABS_CHECK(x.size() == n_, "solution length mismatch");
    model_->delta_all(x, scratch_delta_);
    const std::size_t b = r / kLanes;
    const std::size_t lane = r % kLanes;
    const std::uint64_t bit = std::uint64_t{1} << lane;
    DeltaT* d = delta_.data() + b * n_ * kLanes + lane;
    DeltaT* s = sval_.data() + b * n_ * kLanes + lane;
    std::uint64_t* xw = x_.data() + b * n_;
    for (std::size_t k = 0; k < n_; ++k) {
      d[k * kLanes] = static_cast<DeltaT>(scratch_delta_[k]);
      const bool on = x.get(k);
      s[k * kLanes] = on ? DeltaT{1} : DeltaT{-1};
      xw[k] = on ? (xw[k] | bit) : (xw[k] & ~bit);
    }
    energy_[r] = model_->energy(x);
    flips_[r] = 0;
    reset_best(r);
  }

  Energy delta(std::size_t r, VarIndex k) const override {
    return delta_[(r / kLanes) * n_ * kLanes + std::size_t{k} * kLanes +
                  r % kLanes];
  }

  std::uint64_t negative_delta_word(std::size_t b, VarIndex k) const override {
    const DeltaT* dk =
        delta_.data() + b * n_ * kLanes + std::size_t{k} * kLanes;
    std::uint64_t m = 0;
    for (std::size_t r = 0; r < kLanes; ++r) {
      m |= std::uint64_t{dk[r] < 0} << r;
    }
    return m;
  }

  bool is_local_minimum(std::size_t r) const override {
    const DeltaT* d =
        delta_.data() + (r / kLanes) * n_ * kLanes + r % kLanes;
    for (std::size_t k = 0; k < n_; ++k) {
      if (d[k * kLanes] < 0) return false;
    }
    return true;
  }

  void apply_chunk(std::span<const VarIndex> idx,
                   std::span<const std::uint64_t> lane_masks, bool conditional,
                   std::span<std::uint64_t> applied) override {
    const ChunkContext ctx = make_context(idx, lane_masks, applied);
    for_each_block([&](std::size_t b) { chunk_block(ctx, conditional, b); });
  }

  void scan(std::span<ScanResult> out) override {
    DABS_CHECK(out.size() == replicas_, "scan output size mismatch");
    for_each_block([&](std::size_t b) { scan_block(b, out); });
  }

  void flip_and_scan(VarIndex i, std::span<const std::uint64_t> lane_mask,
                     std::span<ScanResult> out) override {
    DABS_CHECK(out.size() == replicas_, "scan output size mismatch");
    const VarIndex idx[1] = {i};
    const ChunkContext ctx = make_context({idx, 1}, lane_mask, {});
    // Fused per block: the scan reduces each block's deltas while they are
    // still resident from the chunk pass.
    for_each_block([&](std::size_t b) {
      chunk_block(ctx, /*conditional=*/false, b);
      scan_block(b, out);
    });
  }

 private:
  /// Per-call immutable inputs shared by every block worker.
  struct ChunkContext {
    std::span<const VarIndex> idx;
    std::span<const std::uint64_t> masks;
    std::span<std::uint64_t> applied;
    std::size_t chunk = 0;                     // B
    Weight wc[kChunkMax][kChunkMax] = {};      // chunk x chunk couplings
  };

  std::span<const WeightT> csr_row_weights(VarIndex i) const {
    if constexpr (std::is_same_v<DeltaT, std::int16_t>) {
      return {val16_.data() + offs_[i], offs_[i + 1] - offs_[i]};
    } else {
      return model_->csr_row(i).vals;
    }
  }

  ChunkContext make_context(std::span<const VarIndex> idx,
                            std::span<const std::uint64_t> lane_masks,
                            std::span<std::uint64_t> applied) const {
    const std::size_t chunk = idx.size();
    DABS_CHECK(chunk >= 1 && chunk <= kChunkMax, "chunk size out of range");
    DABS_CHECK(lane_masks.size() == chunk * blocks_,
               "lane mask span size mismatch");
    DABS_CHECK(applied.empty() || applied.size() == lane_masks.size(),
               "applied span size mismatch");
    ChunkContext ctx{idx, lane_masks, applied, chunk, {}};
    for (std::size_t p = 0; p < chunk; ++p) {
      DABS_CHECK(idx[p] < n_, "flip index out of range");
      for (std::size_t c = 0; c < p; ++c) {
        DABS_CHECK(idx[c] != idx[p], "chunk indices must be distinct");
      }
    }
    // Dense rows give O(1) chunk couplings; the CSR fallback's O(deg)
    // lookup is cheap on the sparse models it serves.
    const auto coupling = [&](VarIndex i, VarIndex j) {
      return model_->has_dense_rows()
                 ? model_->with_dense_rows([&](const auto* w) {
                     return static_cast<Weight>(w[std::size_t{i} * n_ + j]);
                   })
                 : model_->weight(i, j);
    };
    for (std::size_t p = 0; p < chunk; ++p) {
      for (std::size_t c = 0; c < chunk; ++c) {
        ctx.wc[p][c] = p == c ? 0 : coupling(idx[p], idx[c]);
      }
    }
    return ctx;
  }

  /// Applies one chunk to block b: scalar exact replay of the chunk
  /// indices, rank-B vector pass over everything else, bit-sliced X/BEST
  /// bookkeeping.  See the header comment for why this reproduces
  /// sequential SearchState semantics bit-exactly.
  void chunk_block(const ChunkContext& ctx, bool conditional, std::size_t b) {
    const std::size_t B = ctx.chunk;
    const std::uint64_t tail = active_lanes(b);
    std::uint64_t masks[kChunkMax];
    std::uint64_t lane_union = 0;
    for (std::size_t p = 0; p < B; ++p) {
      masks[p] = ctx.masks[p * blocks_ + b] & tail;
      lane_union |= masks[p];
    }
    DeltaT* d = delta_.data() + b * n_ * kLanes;
    DeltaT* s = sval_.data() + b * n_ * kLanes;
    std::uint64_t* xw = x_.data() + b * n_;
    std::uint64_t* bw = best_.data() + b * n_;
    Energy* en = energy_.data() + b * kLanes;
    Energy* bE = best_energy_.data() + b * kLanes;
    std::uint64_t* fl = flips_.data() + b * kLanes;

    // Snapshot the chunk rows: the vector pass below scribbles on them
    // (their k is inside the chunk, where order matters), so the exact
    // values are replayed here and written back afterwards.
    DeltaT dl[kChunkMax][kLanes];
    DeltaT sl[kChunkMax][kLanes];
    for (std::size_t p = 0; p < B; ++p) {
      std::memcpy(dl[p], d + std::size_t{ctx.idx[p]} * kLanes,
                  kLanes * sizeof(DeltaT));
      std::memcpy(sl[p], s + std::size_t{ctx.idx[p]} * kLanes,
                  kLanes * sizeof(DeltaT));
    }

    // Scalar per-lane sequential replay (energies, Eq. 5, visited-BEST).
    std::int8_t bstar[kLanes] = {};
    std::uint64_t improve = 0;
    for (std::size_t r = 0; r < kLanes; ++r) {
      const std::uint64_t bit = std::uint64_t{1} << r;
      if ((lane_union & bit) == 0) continue;
      Energy e = en[r];
      Energy be = bE[r];
      int bs = -1;
      std::uint64_t count = 0;
      for (std::size_t p = 0; p < B; ++p) {
        if ((masks[p] & bit) == 0) continue;
        if (conditional && dl[p][r] >= 0) {
          masks[p] &= ~bit;  // Delta went non-negative before its turn
          continue;
        }
        e += Energy{dl[p][r]};
        ++count;
        dl[p][r] = static_cast<DeltaT>(-dl[p][r]);  // Eq. 5
        for (std::size_t c = 0; c < B; ++c) {
          if (c == p) continue;
          // Eq. 4 restricted to the chunk: sigma values at flip time.
          dl[c][r] = static_cast<DeltaT>(
              dl[c][r] +
              static_cast<DeltaT>(ctx.wc[p][c] * (sl[p][r] * sl[c][r])));
        }
        sl[p][r] = static_cast<DeltaT>(-sl[p][r]);
        if (e < be) {
          be = e;
          bs = static_cast<int>(p);
        }
      }
      en[r] = e;
      bE[r] = be;
      fl[r] += count;
      if (bs >= 0) {
        improve |= bit;
        bstar[r] = static_cast<std::int8_t>(bs);
      }
    }

    // When the conditional pass dropped every lane nothing changed at all:
    // skip the O(n * 64) vector pass (common once a sweep nears the fixed
    // point where every lane sits at a local minimum).
    std::uint64_t applied_union = 0;
    for (std::size_t p = 0; p < B; ++p) applied_union |= masks[p];
    if (applied_union == 0) {
      if (!ctx.applied.empty()) {
        for (std::size_t p = 0; p < B; ++p) ctx.applied[p * blocks_ + b] = 0;
      }
      return;
    }

    // Lane factors h_p = sigma_{i_p} at flip time (the pre-chunk value:
    // each applied lane's sl was negated exactly once above), zero for
    // lanes that did not flip position p.
    alignas(64) DeltaT hv[kChunkMax][kLanes];
    for (std::size_t p = 0; p < B; ++p) {
      for (std::size_t r = 0; r < kLanes; ++r) {
        hv[p][r] = (masks[p] >> r) & 1u ? static_cast<DeltaT>(-sl[p][r])
                                        : DeltaT{0};
      }
    }

    if (model_->has_dense_rows()) {
      dense_pass(B, ctx.idx, &hv[0][0], d, s);
    } else {
      for (std::size_t p = 0; p < B; ++p) {
        if (masks[p] == 0) continue;
        const auto nbrs = model_->csr_row(ctx.idx[p]).cols;
        const std::span<const WeightT> w = csr_row_weights(ctx.idx[p]);
        const DeltaT* __restrict h = hv[p];
        for (std::size_t t = 0; t < nbrs.size(); ++t) {
          const WeightT wt = w[t];
          DeltaT* __restrict dk = d + std::size_t{nbrs[t]} * kLanes;
          const DeltaT* __restrict sk = s + std::size_t{nbrs[t]} * kLanes;
          for (std::size_t r = 0; r < kLanes; ++r) {
            dk[r] = static_cast<DeltaT>(
                dk[r] + static_cast<DeltaT>(static_cast<DeltaT>(wt * h[r]) *
                                            sk[r]));
          }
        }
      }
    }

    // Write back the exactly-replayed chunk rows and the solution bits.
    for (std::size_t p = 0; p < B; ++p) {
      std::memcpy(d + std::size_t{ctx.idx[p]} * kLanes, dl[p],
                  kLanes * sizeof(DeltaT));
      std::memcpy(s + std::size_t{ctx.idx[p]} * kLanes, sl[p],
                  kLanes * sizeof(DeltaT));
      xw[ctx.idx[p]] ^= masks[p];
      if (!ctx.applied.empty()) ctx.applied[p * blocks_ + b] = masks[p];
    }

    // Visited-BEST fold: an improving lane's best state is the post-chunk
    // X with the flips *after* its last improvement undone.
    if (improve != 0) {
      for (std::size_t k = 0; k < n_; ++k) {
        bw[k] = (bw[k] & ~improve) | (xw[k] & improve);
      }
      for (std::size_t r = 0; r < kLanes; ++r) {
        const std::uint64_t bit = std::uint64_t{1} << r;
        if ((improve & bit) == 0) continue;
        for (std::size_t p = static_cast<std::size_t>(bstar[r]) + 1; p < B;
             ++p) {
          if (masks[p] & bit) bw[ctx.idx[p]] ^= bit;
        }
      }
    }
  }

  /// The rank-B pass at the model's row width.  Kept out of line:
  /// inlining its three row-width instantiations into chunk_block slowed
  /// the code around them by about 10% (BM_BulkFlipK2000, CSR and dense).
  [[gnu::noinline]] void dense_pass(std::size_t B,
                                    std::span<const VarIndex> idx,
                                    const DeltaT* h, DeltaT* d,
                                    const DeltaT* s) {
    model_->with_dense_rows(
        [&](const auto* w) { dispatch_dense_pass(B, w, idx, h, d, s); });
  }

  /// w is the dense matrix at its stored width (with_dense_rows).
  template <typename RowT>
  void dispatch_dense_pass(std::size_t B, const RowT* w,
                           std::span<const VarIndex> idx, const DeltaT* h,
                           DeltaT* d, const DeltaT* s) {
    const RowT* rows[kChunkMax] = {};
    for (std::size_t p = 0; p < B; ++p) rows[p] = w + std::size_t{idx[p]} * n_;
    switch (B) {
      case 1: dense_chunk_pass<DeltaT, RowT, 1>(n_, rows, h, d, s); break;
      case 2: dense_chunk_pass<DeltaT, RowT, 2>(n_, rows, h, d, s); break;
      case 3: dense_chunk_pass<DeltaT, RowT, 3>(n_, rows, h, d, s); break;
      case 4: dense_chunk_pass<DeltaT, RowT, 4>(n_, rows, h, d, s); break;
      case 5: dense_chunk_pass<DeltaT, RowT, 5>(n_, rows, h, d, s); break;
      case 6: dense_chunk_pass<DeltaT, RowT, 6>(n_, rows, h, d, s); break;
      case 7: dense_chunk_pass<DeltaT, RowT, 7>(n_, rows, h, d, s); break;
      case 8: dense_chunk_pass<DeltaT, RowT, 8>(n_, rows, h, d, s); break;
      default: DABS_CHECK(false, "chunk size out of range");
    }
  }

  /// Step 1 over block b: branchless per-lane min/argmin/max (strict-less
  /// update == first-occurrence argmin) plus the BEST-neighbor fold.
  void scan_block(std::size_t b, std::span<ScanResult> out) {
    const DeltaT* d = delta_.data() + b * n_ * kLanes;
    const std::uint64_t* xw = x_.data() + b * n_;
    std::uint64_t* bw = best_.data() + b * n_;
    const Energy* en = energy_.data() + b * kLanes;
    Energy* bE = best_energy_.data() + b * kLanes;

    alignas(64) DeltaT mn[kLanes];
    alignas(64) DeltaT mx[kLanes];
    alignas(64) DeltaT am[kLanes];  // argmin as DeltaT: n fits by width gate
    std::memcpy(mn, d, kLanes * sizeof(DeltaT));
    std::memcpy(mx, d, kLanes * sizeof(DeltaT));
    std::memset(am, 0, sizeof(am));
    for (std::size_t k = 1; k < n_; ++k) {
      const DeltaT* __restrict dk = d + k * kLanes;
      const auto kk = static_cast<DeltaT>(k);
      for (std::size_t r = 0; r < kLanes; ++r) {
        const DeltaT v = dk[r];
        const bool lt = v < mn[r];
        am[r] = lt ? kk : am[r];
        mn[r] = lt ? v : mn[r];
        mx[r] = v > mx[r] ? v : mx[r];
      }
    }

    const std::uint64_t tail = active_lanes(b);
    std::uint64_t improve = 0;
    for (std::size_t r = 0; r < kLanes; ++r) {
      const std::uint64_t bit = std::uint64_t{1} << r;
      if ((tail & bit) == 0) break;
      const std::size_t replica = b * kLanes + r;
      out[replica] = {Energy{mn[r]}, Energy{mx[r]},
                      static_cast<VarIndex>(am[r])};
      if (en[r] + Energy{mn[r]} < bE[r]) {
        bE[r] = en[r] + Energy{mn[r]};
        improve |= bit;
      }
    }
    if (improve != 0) {
      // BEST <- X with the lane's argmin bit flipped (record_best_neighbor).
      for (std::size_t k = 0; k < n_; ++k) {
        bw[k] = (bw[k] & ~improve) | (xw[k] & improve);
      }
      for (std::size_t r = 0; r < kLanes; ++r) {
        const std::uint64_t bit = std::uint64_t{1} << r;
        if (improve & bit) bw[static_cast<std::size_t>(am[r])] ^= bit;
      }
    }
  }

  // Replica-major-blocked per-variable arrays: element [b*n + k][lane].
  std::vector<DeltaT> delta_;  // true Delta_k per lane
  std::vector<DeltaT> sval_;   // sigma(x_k) per lane, +-1
  // int16 engine's same-width CSR weight copy (unused by wider engines).
  std::vector<std::int16_t> val16_;
  std::vector<std::size_t> offs_;
  std::vector<Energy> scratch_delta_;  // reset_to workspace
};

namespace {

std::unique_ptr<BulkEngine> make_engine(const QuboModel& model,
                                        std::size_t replicas) {
  // Every intermediate the kernels compute (stored deltas, rank-B partial
  // sums, per-chunk replays) is a true Delta of some reachable state or a
  // partial row sum, so delta_bound() bounds it.  An int16-width model
  // whose rows are dense has n <= 8192 (the dense budget), so it always
  // lands on the int16 engine.
  const std::uint64_t bound = model.delta_bound();
  if (model.delta_width() == DeltaWidth::kInt16 && model.size() <= 32767) {
    return std::make_unique<BulkEngineImpl<std::int16_t>>(model, replicas);
  }
  if (bound <= static_cast<std::uint64_t>(
                   std::numeric_limits<std::int32_t>::max()) &&
      model.size() <= static_cast<std::size_t>(
                          std::numeric_limits<std::int32_t>::max())) {
    return std::make_unique<BulkEngineImpl<std::int32_t>>(model, replicas);
  }
  return std::make_unique<BulkEngineImpl<std::int64_t>>(model, replicas);
}

}  // namespace

}  // namespace detail

BulkSearchState::BulkSearchState(const QuboModel& model, std::size_t replicas)
    : engine_(detail::make_engine(model, replicas)) {}

BulkSearchState::~BulkSearchState() = default;
BulkSearchState::BulkSearchState(BulkSearchState&&) noexcept = default;
BulkSearchState& BulkSearchState::operator=(BulkSearchState&&) noexcept =
    default;

const QuboModel& BulkSearchState::model() const noexcept {
  return engine_->model();
}
std::size_t BulkSearchState::size() const noexcept { return engine_->size(); }
std::size_t BulkSearchState::replica_count() const noexcept {
  return engine_->replica_count();
}
std::size_t BulkSearchState::block_count() const noexcept {
  return engine_->block_count();
}

void BulkSearchState::reset() { engine_->reset(); }

void BulkSearchState::reset_to(std::size_t r, const BitVector& x) {
  DABS_CHECK(r < replica_count(), "replica index out of range");
  engine_->reset_to(r, x);
}

void BulkSearchState::reset_best(std::size_t r) {
  DABS_CHECK(r < replica_count(), "replica index out of range");
  engine_->reset_best(r);
}

void BulkSearchState::reset_best_all() { engine_->reset_best_all(); }

Energy BulkSearchState::energy(std::size_t r) const {
  DABS_CHECK(r < replica_count(), "replica index out of range");
  return engine_->energy(r);
}

Energy BulkSearchState::delta(std::size_t r, VarIndex k) const {
  DABS_CHECK(r < replica_count(), "replica index out of range");
  DABS_CHECK(k < size(), "variable index out of range");
  return engine_->delta(r, k);
}

bool BulkSearchState::get(std::size_t r, VarIndex k) const {
  DABS_CHECK(r < replica_count(), "replica index out of range");
  DABS_CHECK(k < size(), "variable index out of range");
  return engine_->get(r, k);
}

BitVector BulkSearchState::solution(std::size_t r) const {
  DABS_CHECK(r < replica_count(), "replica index out of range");
  return engine_->solution(r);
}

BitVector BulkSearchState::best(std::size_t r) const {
  DABS_CHECK(r < replica_count(), "replica index out of range");
  return engine_->best(r);
}

Energy BulkSearchState::best_energy(std::size_t r) const {
  DABS_CHECK(r < replica_count(), "replica index out of range");
  return engine_->best_energy(r);
}

std::uint64_t BulkSearchState::flip_count(std::size_t r) const {
  DABS_CHECK(r < replica_count(), "replica index out of range");
  return engine_->flip_count(r);
}

bool BulkSearchState::is_local_minimum(std::size_t r) const {
  DABS_CHECK(r < replica_count(), "replica index out of range");
  return engine_->is_local_minimum(r);
}

std::uint64_t BulkSearchState::solution_word(std::size_t b, VarIndex k) const {
  DABS_CHECK(b < block_count(), "block index out of range");
  DABS_CHECK(k < size(), "variable index out of range");
  return engine_->solution_word(b, k);
}

std::uint64_t BulkSearchState::negative_delta_word(std::size_t b,
                                                   VarIndex k) const {
  DABS_CHECK(b < block_count(), "block index out of range");
  DABS_CHECK(k < size(), "variable index out of range");
  return engine_->negative_delta_word(b, k);
}

void BulkSearchState::flip(VarIndex i) {
  std::vector<std::uint64_t> all(block_count(), ~std::uint64_t{0});
  flip(i, all);
}

void BulkSearchState::flip(VarIndex i,
                           std::span<const std::uint64_t> lane_mask) {
  const VarIndex idx[1] = {i};
  engine_->apply_chunk({idx, 1}, lane_mask, /*conditional=*/false, {});
}

void BulkSearchState::flip_chunk(std::span<const VarIndex> idx,
                                 std::span<const std::uint64_t> lane_masks) {
  engine_->apply_chunk(idx, lane_masks, /*conditional=*/false, {});
}

void BulkSearchState::descend_chunk(std::span<const VarIndex> idx,
                                    std::span<const std::uint64_t> lane_masks,
                                    std::span<std::uint64_t> applied) {
  engine_->apply_chunk(idx, lane_masks, /*conditional=*/true, applied);
}

void BulkSearchState::scan(std::span<ScanResult> out) { engine_->scan(out); }

void BulkSearchState::flip_and_scan(VarIndex i,
                                    std::span<const std::uint64_t> lane_mask,
                                    std::span<ScanResult> out) {
  engine_->flip_and_scan(i, lane_mask, out);
}

}  // namespace dabs
