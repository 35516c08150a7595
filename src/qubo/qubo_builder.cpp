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
  QuboModel m;
  m.diag_.resize(n);
  // row_abs[k] accumulates |W_kk| + sum_j |W_kj|; its maximum is the
  // model's delta_bound().
  std::vector<std::uint64_t> row_abs(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.diag_[i] = checked_narrow(diag_[i], "linear", kLinearLo);
    row_abs[i] = magnitude(m.diag_[i]);
  }
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
  // The row width: |W_ij| <= the type's max excludes its lowest value.
  if (max_coupling <= std::numeric_limits<std::int8_t>::max()) {
    m.dense_.emplace<std::vector<std::int8_t>>();
  } else if (max_coupling <= std::numeric_limits<std::int16_t>::max()) {
    m.dense_.emplace<std::vector<std::int16_t>>();
  } else {
    m.dense_.emplace<std::vector<Weight>>();
  }
  m.row_ptr_.assign(n + 1, 0);
  m.col_.resize(2 * edges.size());
  m.val_.resize(2 * edges.size());

  // Resolve the kernel backend.  The budget is checked at int32 whatever
  // width the matrix is stored at, so the kAuto choice does not depend on
  // the weights' magnitude.
  // Overflow-safe test for n * n * sizeof(Weight) <= kDenseMaxBytes.
  const bool fits = n <= QuboModel::kDenseMaxBytes / sizeof(Weight) / n;
  QuboBackend resolved = backend_;
  if (resolved == QuboBackend::kAuto) {
    resolved = (fits && m.density() >= QuboModel::kDenseDensityThreshold)
                   ? QuboBackend::kDense
                   : QuboBackend::kCsr;
  }
  DABS_CHECK(resolved != QuboBackend::kDense || fits,
             "dense backend requested but the n x n matrix exceeds "
             "QuboModel::kDenseMaxBytes");
  m.backend_ = resolved;

  if (resolved == QuboBackend::kDense) {
    // Materialize the row-major matrix the flip kernel streams (diagonal
    // slots stay zero; the diagonal lives in diag_ and enters Delta via
    // Eq. 5, not the row walk), then read each CSR row off it in column
    // order: the same rows the scatter below builds, ascending, written
    // sequentially.  Every |W_ij| <= max_coupling fits the row width.
    std::visit(
        [&](auto& dense) {
          using T = typename std::decay_t<decltype(dense)>::value_type;
          dense.assign(n * n, 0);
          for (const Entry& e : edges) {
            const auto w = static_cast<T>(e.w);
            dense[std::size_t{e.i} * n + e.j] = w;
            dense[std::size_t{e.j} * n + e.i] = w;
          }
          std::size_t k = 0;
          for (std::size_t i = 0; i < n; ++i) {
            const T* row = dense.data() + i * n;
            std::uint64_t abs = 0;
            for (std::size_t j = 0; j < n; ++j) {
              if (row[j] == 0) continue;
              m.col_[k] = static_cast<VarIndex>(j);
              m.val_[k++] = row[j];
              abs += magnitude(row[j]);
            }
            row_abs[i] += abs;
            m.row_ptr_[i + 1] = k;
          }
        },
        m.dense_);
  } else {
    // Symmetric CSR: each edge contributes to both endpoint rows.
    for (const Entry& e : edges) {
      ++m.row_ptr_[e.i + 1];
      ++m.row_ptr_[e.j + 1];
    }
    for (std::size_t i = 0; i < n; ++i) m.row_ptr_[i + 1] += m.row_ptr_[i];
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
  }
  for (std::size_t i = 0; i < n; ++i) {
    m.max_degree_ = std::max(m.max_degree_, m.degree(static_cast<VarIndex>(i)));
  }
  m.delta_bound_ = *std::max_element(row_abs.begin(), row_abs.end());

  entries_.clear();
  diag_.clear();
  backend_ = QuboBackend::kAuto;
  return m;
}

}  // namespace dabs
