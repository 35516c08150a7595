#include "qubo/qubo_builder.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <utility>
#include <variant>

#include "util/assert.hpp"

namespace dabs {

namespace {

Weight checked_narrow(Energy w, const char* what, Weight lo) {
  DABS_CHECK(w >= lo && w <= std::numeric_limits<Weight>::max(),
             std::string("accumulated ") + what +
                 " coefficient overflows the int32 weight range");
  return static_cast<Weight>(w);
}

// Couplings are restricted to the *symmetric* range [-INT32_MAX, INT32_MAX]
// so the dense flip kernel may negate a weight branchlessly without risking
// int32 overflow on INT32_MIN.  Diagonals never enter that kernel (they
// reach Delta through Eqs. 3/5 in 64-bit) and keep the full int32 range.
constexpr Weight kQuadraticLo = -std::numeric_limits<Weight>::max();
constexpr Weight kLinearLo = std::numeric_limits<Weight>::min();

std::uint64_t magnitude(Weight w) {
  return static_cast<std::uint64_t>(w < 0 ? -std::int64_t{w} : std::int64_t{w});
}

/// The narrowest RowWidth that holds every |W_ij| <= max_abs (each width
/// excludes its lowest value).
RowWidth row_width_for(std::uint64_t max_abs) {
  if (max_abs <= std::numeric_limits<std::int8_t>::max()) {
    return RowWidth::kInt8;
  }
  return max_abs <= std::numeric_limits<std::int16_t>::max() ? RowWidth::kInt16
                                                             : RowWidth::kInt32;
}

/// Calls f with a zero of the element type rows of width w are stored at,
/// so a generic lambda compiles once per width.
template <class F>
decltype(auto) with_row_type(RowWidth w, F&& f) {
  switch (w) {
    case RowWidth::kInt8:
      return f(std::int8_t{0});
    case RowWidth::kInt16:
      return f(std::int16_t{0});
    case RowWidth::kInt32:
      break;
  }
  return f(Weight{0});
}

std::vector<Weight> narrow_linear(const std::vector<Energy>& linear) {
  std::vector<Weight> diag(linear.size());
  for (std::size_t i = 0; i < diag.size(); ++i) {
    diag[i] = checked_narrow(linear[i], "linear", kLinearLo);
  }
  return diag;
}

/// Copies the upper triangle of the row-major n x n matrix w onto the lower
/// one and zeroes the diagonal.  A 64 x 64 tile at a time: each row of the
/// lower triangle is written in order while the 64 upper rows it reads
/// stay in cache.
template <class T>
void mirror_upper(T* w, std::size_t n) {
  constexpr std::size_t kTile = 64;
  for (std::size_t ib = 0; ib < n; ib += kTile) {
    const std::size_t ie = std::min(ib + kTile, n);
    for (std::size_t j = ib; j < n; ++j) {
      T* lower = w + j * n;
      for (std::size_t i = ib; i < std::min(ie, j); ++i) {
        lower[i] = w[i * n + j];
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) w[i * n + i] = 0;
}

/// Couplings, sum of |W_ij| and largest |W_ij| of one dense row.  A dense
/// model has n <= 8192 (kDenseMaxBytes at int32 weights), so a row of int8
/// or int16 weights sums exactly in int32; int32 weights sum in int64.
struct RowStats {
  std::size_t degree = 0;
  std::uint64_t abs = 0;
  std::uint64_t max_abs = 0;
};

template <class T>
RowStats row_stats(const T* row, std::size_t n) {
  using Acc =
      std::conditional_t<sizeof(T) < sizeof(Weight), std::int32_t, Energy>;
  Acc degree = 0, abs = 0, max_abs = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const Acc a = row[j] < 0 ? -Acc{row[j]} : Acc{row[j]};
    degree += a != 0;
    abs += a;
    max_abs = std::max(max_abs, a);
  }
  return {static_cast<std::size_t>(degree), static_cast<std::uint64_t>(abs),
          static_cast<std::uint64_t>(max_abs)};
}

/// Stores w in `rows` as a std::vector<U>, converting each weight when U is
/// narrower than T.
template <class U, class Rows, class T>
void store_rows(Rows& rows, std::vector<T>&& w) {
  if constexpr (std::is_same_v<U, T>) {
    rows.template emplace<std::vector<U>>(std::move(w));
  } else {
    auto& out = rows.template emplace<std::vector<U>>(w.size());
    std::transform(w.begin(), w.end(), out.begin(),
                   [](T v) { return static_cast<U>(v); });
  }
}

}  // namespace

QuboBuilder::QuboBuilder(std::size_t n) : diag_(n, 0) {
  DABS_CHECK(n > 0, "QUBO model needs at least one variable");
}

QuboBuilder& QuboBuilder::add_linear(VarIndex i, Weight w) {
  DABS_CHECK(i < size(), "variable index out of range");
  diag_[i] += w;
  return *this;
}

QuboBuilder& QuboBuilder::add_quadratic(VarIndex i, VarIndex j, Weight w) {
  DABS_CHECK(i < size() && j < size(), "variable index out of range");
  DABS_CHECK(i != j, "use add_linear for diagonal terms");
  if (i > j) std::swap(i, j);
  entries_.push_back({i, j, w});
  return *this;
}

QuboBuilder& QuboBuilder::reserve(std::size_t terms) {
  entries_.reserve(terms);
  return *this;
}

QuboModel QuboBuilder::build() {
  const std::size_t n = diag_.size();
  // Order the terms by (i, j).  Terms that already arrive in that order
  // (MaxCut's generators emit each edge once, row by row) are used where
  // they are.  Otherwise a stable counting sort by row in linear time, then
  // a sort by column only for rows that arrive out of order.
  const auto by_row_then_column = [](const Entry& a, const Entry& b) {
    return a.i != b.i ? a.i < b.i : a.j < b.j;
  };
  std::vector<Entry> edges;
  if (std::is_sorted(entries_.begin(), entries_.end(), by_row_then_column)) {
    edges = std::move(entries_);
  } else {
    edges.resize(entries_.size());
    std::vector<std::size_t> start(n + 1, 0);
    for (const Entry& e : entries_) ++start[e.i + 1];
    for (std::size_t i = 0; i < n; ++i) start[i + 1] += start[i];
    std::vector<std::size_t> next(start.begin(), start.end() - 1);
    for (const Entry& e : entries_) edges[next[e.i]++] = e;
    const auto by_column = [](const Entry& a, const Entry& b) {
      return a.j < b.j;
    };
    for (std::size_t i = 0; i < n; ++i) {
      const auto first = edges.begin() + static_cast<std::ptrdiff_t>(start[i]);
      const auto last =
          edges.begin() + static_cast<std::ptrdiff_t>(start[i + 1]);
      if (!std::is_sorted(first, last, by_column)) {
        std::sort(first, last, by_column);
      }
    }
  }
  std::vector<Weight> diag = narrow_linear(diag_);
  // Coalesce each run of equal (i, j) terms in place (64-bit accumulation).
  // A sum that cancels to zero is dropped; any other must fit the coupling
  // range.
  std::uint64_t max_coupling = 0;  // max |W_ij|, i != j
  std::size_t kept = 0;
  for (std::size_t t = 0; t < edges.size();) {
    Entry sum = edges[t];
    for (++t; t < edges.size() && edges[t].i == sum.i && edges[t].j == sum.j;
         ++t) {
      sum.w += edges[t].w;
    }
    if (sum.w == 0) continue;
    const Weight w = checked_narrow(sum.w, "quadratic", kQuadraticLo);
    max_coupling = std::max(max_coupling, magnitude(w));
    edges[kept++] = sum;
  }
  edges.resize(kept);

  const QuboBackend resolved = backend_ == QuboBackend::kAuto
                                   ? QuboModel::auto_backend(n, kept)
                                   : backend_;
  DABS_CHECK(resolved != QuboBackend::kDense || QuboModel::dense_fits(n),
             "dense backend requested but the n x n matrix exceeds "
             "QuboModel::kDenseMaxBytes");
  const std::vector<Energy> linear = std::move(diag_);
  entries_.clear();
  diag_.clear();
  backend_ = QuboBackend::kAuto;
  const RowWidth width = row_width_for(max_coupling);

  if (resolved == QuboBackend::kDense) {
    // The upper triangle of the matrix the flip kernel streams; every
    // |W_ij| <= max_coupling fits the row width.
    return with_row_type(width, [&](auto zero) {
      using T = decltype(zero);
      std::vector<T> upper(n * n, 0);
      for (const Entry& e : edges) {
        upper[std::size_t{e.i} * n + e.j] = static_cast<T>(e.w);
      }
      return build_dense(linear, std::move(upper));
    });
  }

  // Symmetric CSR: each edge contributes to both endpoint rows.
  QuboModel m;
  m.diag_ = std::move(diag);
  m.edge_count_ = kept;
  m.backend_ = QuboBackend::kCsr;
  with_row_type(width, [&](auto zero) {
    m.dense_.emplace<std::vector<decltype(zero)>>();
  });
  m.row_ptr_.assign(n + 1, 0);
  m.col_.resize(2 * kept);
  m.val_.resize(2 * kept);
  for (const Entry& e : edges) {
    ++m.row_ptr_[e.i + 1];
    ++m.row_ptr_[e.j + 1];
  }
  for (std::size_t i = 0; i < n; ++i) m.row_ptr_[i + 1] += m.row_ptr_[i];
  // row_abs[k] accumulates |W_kk| + sum_j |W_kj|; its maximum is the
  // model's delta_bound().
  std::vector<std::uint64_t> row_abs(n);
  for (std::size_t i = 0; i < n; ++i) row_abs[i] = magnitude(m.diag_[i]);
  std::vector<std::size_t> cursor(m.row_ptr_.begin(), m.row_ptr_.end() - 1);
  for (const Entry& e : edges) {
    const auto w = static_cast<Weight>(e.w);
    m.col_[cursor[e.i]] = e.j;
    m.val_[cursor[e.i]++] = w;
    m.col_[cursor[e.j]] = e.i;
    m.val_[cursor[e.j]++] = w;
    row_abs[e.i] += magnitude(w);
    row_abs[e.j] += magnitude(w);
  }
  for (std::size_t i = 0; i < n; ++i) {
    m.max_degree_ = std::max(m.max_degree_, m.row_ptr_[i + 1] - m.row_ptr_[i]);
  }
  m.delta_bound_ = *std::max_element(row_abs.begin(), row_abs.end());
  return m;
}

template <class T>
QuboModel QuboBuilder::build_dense(const std::vector<Energy>& linear,
                                   std::vector<T> upper) {
  const std::size_t n = linear.size();
  DABS_CHECK(n > 0, "QUBO model needs at least one variable");
  DABS_CHECK(QuboModel::dense_fits(n),
             "dense backend requested but the n x n matrix exceeds "
             "QuboModel::kDenseMaxBytes");
  DABS_CHECK(upper.size() == n * n, "dense matrix must be n x n");
  QuboModel m;
  m.diag_ = narrow_linear(linear);
  mirror_upper(upper.data(), n);
  std::size_t degree_sum = 0;
  std::uint64_t max_coupling = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const RowStats row = row_stats(upper.data() + i * n, n);
    degree_sum += row.degree;
    m.max_degree_ = std::max(m.max_degree_, row.degree);
    m.delta_bound_ =
        std::max(m.delta_bound_, magnitude(m.diag_[i]) + row.abs);
    max_coupling = std::max(max_coupling, row.max_abs);
  }
  DABS_CHECK(max_coupling <= static_cast<std::uint64_t>(
                                 std::numeric_limits<Weight>::max()),
             "accumulated quadratic coefficient overflows the int32 weight "
             "range");
  m.edge_count_ = degree_sum / 2;
  m.backend_ = QuboBackend::kDense;
  with_row_type(row_width_for(max_coupling), [&](auto zero) {
    store_rows<decltype(zero)>(m.dense_, std::move(upper));
  });
  return m;
}

template QuboModel QuboBuilder::build_dense(const std::vector<Energy>&,
                                            std::vector<std::int8_t>);
template QuboModel QuboBuilder::build_dense(const std::vector<Energy>&,
                                            std::vector<std::int16_t>);
template QuboModel QuboBuilder::build_dense(const std::vector<Energy>&,
                                            std::vector<Weight>);

}  // namespace dabs
