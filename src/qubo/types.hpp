// Shared scalar types for QUBO/Ising arithmetic.
//
// Weights are 32-bit integers (every benchmark in the paper uses integral
// coefficients: ±1 MaxCut weights, flow x distance QAP products, resolution-r
// Ising values scaled by 4).  Energies are 64-bit to keep sums of up to ~10^7
// weighted terms exact.  A single flip's Delta is stored narrower when the
// model allows it (DeltaWidth), but every Energy a caller sees is int64.
#pragma once

#include <cstdint>
#include <limits>

namespace dabs {

using Weight = std::int32_t;
using Energy = std::int64_t;
using VarIndex = std::uint32_t;

/// Sentinel energy for "no solution yet" pool slots (the paper initializes
/// pools with random vectors at +infinity energy).
inline constexpr Energy kInfiniteEnergy = std::numeric_limits<Energy>::max();

/// sigma(x) = 2x - 1 maps binary 0/1 to spin -1/+1 (paper §III).
inline constexpr int sigma(bool x) noexcept { return x ? 1 : -1; }

/// Storage backend for the coupling matrix walked by the flip kernel.
/// kAuto picks kDense when the edge density crosses a threshold and the
/// row-major matrix fits a sane memory budget, kCsr otherwise; both
/// backends are bit-exact (integer arithmetic, no reassociation).
enum class QuboBackend : std::uint8_t { kAuto, kCsr, kDense };

inline constexpr const char* to_string(QuboBackend b) noexcept {
  switch (b) {
    case QuboBackend::kAuto:
      return "auto";
    case QuboBackend::kCsr:
      return "csr";
    case QuboBackend::kDense:
      return "dense";
  }
  return "?";
}

/// Storage width of the scalar flip kernel, chosen once per model from its
/// worst-case |Delta| (QuboModel::delta_bound()): kInt16 stores Delta and
/// the dense rows as int16, kInt64 stores Delta as int64 and the dense
/// rows as int32.  Both are exact, so the choice never changes a result.
enum class DeltaWidth : std::uint8_t { kInt16, kInt64 };

inline constexpr const char* to_string(DeltaWidth w) noexcept {
  return w == DeltaWidth::kInt16 ? "int16" : "int64";
}

}  // namespace dabs
