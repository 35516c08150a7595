#include "qubo/transforms.hpp"

#include <algorithm>

#include "qubo/qubo_builder.hpp"
#include "util/assert.hpp"

namespace dabs {

FixedModel fix_variable(const QuboModel& model, VarIndex i, bool value) {
  const std::size_t n = model.size();
  DABS_CHECK(i < n, "variable index out of range");
  DABS_CHECK(n >= 2, "cannot fix the last remaining variable");

  FixedModel out;
  out.mapping.reserve(n - 1);
  std::vector<VarIndex> to_reduced(n, 0);
  for (VarIndex v = 0; v < n; ++v) {
    if (v == i) continue;
    to_reduced[v] = static_cast<VarIndex>(out.mapping.size());
    out.mapping.push_back(v);
  }

  QuboBuilder b(n - 1);
  out.offset = 0;
  for (VarIndex v = 0; v < n; ++v) {
    if (v == i) continue;
    b.add_linear(to_reduced[v], model.diag(v));
  }
  if (value) out.offset += model.diag(i);

  for (VarIndex v = 0; v < n; ++v) {
    model.for_each_coupling(v, [&](VarIndex u, Weight w) {
      if (u < v) return;  // each edge once
      if (v == i || u == i) {
        // Coupling with the fixed bit: W * x_fixed * x_other.
        if (value) b.add_linear(to_reduced[v == i ? u : v], w);
      } else {
        b.add_quadratic(to_reduced[v], to_reduced[u], w);
      }
    });
  }
  out.model = b.build();
  return out;
}

SubQubo extract_subqubo(const QuboModel& model, const BitVector& x,
                        const std::vector<VarIndex>& subset) {
  const std::size_t n = model.size();
  DABS_CHECK(x.size() == n, "solution length mismatch");
  DABS_CHECK(!subset.empty(), "subset must be non-empty");

  std::vector<VarIndex> to_sub(n, static_cast<VarIndex>(n));
  for (std::size_t s = 0; s < subset.size(); ++s) {
    DABS_CHECK(subset[s] < n, "subset index out of range");
    DABS_CHECK(to_sub[subset[s]] == n, "duplicate subset index");
    to_sub[subset[s]] = static_cast<VarIndex>(s);
  }

  SubQubo out;
  out.subset = subset;

  QuboBuilder b(subset.size());
  // Linear terms: original diagonal plus couplings to clamped-one bits.
  for (std::size_t s = 0; s < subset.size(); ++s) {
    const VarIndex v = subset[s];
    Energy linear = model.diag(v);
    model.for_each_coupling(v, [&](VarIndex u, Weight w) {
      if (to_sub[u] == n && x.get(u)) linear += w;
    });
    DABS_CHECK(std::abs(linear) <= std::numeric_limits<Weight>::max(),
               "folded linear weight overflows int32");
    b.add_linear(static_cast<VarIndex>(s), static_cast<Weight>(linear));
  }
  // Quadratic terms among subset members.
  for (std::size_t s = 0; s < subset.size(); ++s) {
    const VarIndex v = subset[s];
    model.for_each_coupling(v, [&](VarIndex u, Weight w) {
      if (to_sub[u] != n && u > v) {
        b.add_quadratic(static_cast<VarIndex>(s), to_sub[u], w);
      }
    });
  }
  out.model = b.build();

  // Offset: energy of the clamped part alone = E_full with subset zeroed.
  BitVector clamped = x;
  for (const VarIndex v : subset) clamped.set(v, false);
  out.offset = model.energy(clamped);
  return out;
}

BitVector apply_subsolution(const BitVector& x, const SubQubo& sub,
                            const BitVector& y) {
  DABS_CHECK(y.size() == sub.subset.size(), "subset solution length mismatch");
  BitVector out = x;
  for (std::size_t s = 0; s < sub.subset.size(); ++s) {
    out.set(sub.subset[s], y.get(s));
  }
  return out;
}

}  // namespace dabs
