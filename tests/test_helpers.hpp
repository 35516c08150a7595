// Shared helpers for the test suite: random model generators, naive
// reference implementations used to cross-check the incremental machinery,
// and a one-call solve over the request protocol.
#pragma once

#include <utility>
#include <vector>

#include "core/solve_report.hpp"
#include "core/solver.hpp"
#include "qubo/qubo_builder.hpp"
#include "qubo/qubo_model.hpp"
#include "rng/xorshift.hpp"
#include "util/bit_vector.hpp"

namespace dabs::testing {

/// Random QUBO: every pair is an edge with probability `density`; weights
/// uniform in [-max_w, max_w] (zeros dropped by the builder), diagonals in
/// the same range, all multiplied by `scale`.  `backend` forces the kernel
/// backend (kAuto = pick by density, the production default).  The same
/// seed with another scale gives the same terms scaled, so a large scale
/// moves the same model onto the int64 kernel.
inline QuboModel random_model(std::size_t n, double density, int max_w,
                              std::uint64_t seed,
                              QuboBackend backend = QuboBackend::kAuto,
                              Weight scale = 1) {
  Rng rng(seed);
  QuboBuilder b(n);
  b.set_backend(backend);
  auto w = [&]() {
    return static_cast<Weight>(
        (static_cast<long long>(rng.next_index(2 * max_w + 1)) - max_w) *
        scale);
  };
  for (VarIndex i = 0; i < n; ++i) b.add_linear(i, w());
  for (VarIndex i = 0; i + 1 < n; ++i) {
    for (VarIndex j = i + 1; j < n; ++j) {
      if (rng.next_unit() < density) b.add_quadratic(i, j, w());
    }
  }
  return b.build();
}

/// Row i's couplings (j, W_ij) as QuboModel::for_each_coupling visits
/// them.
inline std::vector<std::pair<VarIndex, Weight>> couplings(const QuboModel& m,
                                                          VarIndex i) {
  std::vector<std::pair<VarIndex, Weight>> row;
  m.for_each_coupling(i, [&](VarIndex j, Weight w) { row.emplace_back(j, w); });
  return row;
}

/// FNV-1a, one 64-bit value at a time, over every part of a built model:
/// diagonal, each row's couplings as for_each_coupling visits them (its
/// length, then its columns, then its weights), the dense matrix (when
/// present), delta_bound, max_degree, row width and backend.
inline std::uint64_t model_digest(const QuboModel& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::int64_t v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 0x100000001b3ULL;
  };
  const auto n = static_cast<VarIndex>(m.size());
  mix(n);
  for (VarIndex i = 0; i < n; ++i) {
    mix(m.diag(i));
    const auto row = couplings(m, i);
    mix(static_cast<std::int64_t>(row.size()));
    for (const auto& [j, w] : row) mix(j);
    for (const auto& [j, w] : row) mix(w);
  }
  if (m.has_dense_rows()) {
    m.with_dense_rows([&](const auto* w) {
      for (std::size_t k = 0; k < std::size_t{n} * n; ++k) mix(w[k]);
    });
  }
  mix(static_cast<std::int64_t>(m.delta_bound()));
  mix(static_cast<std::int64_t>(m.max_degree()));
  mix(static_cast<std::int64_t>(m.row_width()));
  mix(static_cast<std::int64_t>(m.backend()));
  return h;
}

/// Naive O(n^2) evaluation of Eq. 2 straight off the weight accessor;
/// deliberately independent of QuboModel::energy's CSR loop.
inline Energy naive_energy(const QuboModel& m, const BitVector& x) {
  Energy e = 0;
  const auto n = static_cast<VarIndex>(m.size());
  for (VarIndex i = 0; i < n; ++i) {
    if (!x.get(i)) continue;
    e += m.diag(i);
    for (VarIndex j = i + 1; j < n; ++j) {
      if (x.get(j)) e += m.weight(i, j);
    }
  }
  return e;
}

/// Solves `m` through the request protocol with no overrides, so the
/// solver's own configured budget and seed decide the run.
template <typename S>
SolveReport solve_on(S&& solver, const QuboModel& m) {
  SolveRequest req;
  req.model = &m;
  return solver.solve(req);
}

/// Random solution vector from `rng`.
inline BitVector random_solution(std::size_t n, Rng& rng) {
  BitVector x(n);
  for (std::size_t i = 0; i < n; ++i) x.set(i, rng.next_bit());
  return x;
}

}  // namespace dabs::testing
