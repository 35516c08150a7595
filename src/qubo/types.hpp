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

/// Storage width of the scalar flip kernel's Delta array, chosen once per
/// model from its worst-case |Delta| (QuboModel::delta_bound()): kInt16
/// when it fits int16, kInt64 otherwise.  Both are exact, so the choice
/// never changes a result.
enum class DeltaWidth : std::uint8_t { kInt16, kInt64 };

inline constexpr const char* to_string(DeltaWidth w) noexcept {
  return w == DeltaWidth::kInt16 ? "int16" : "int64";
}

/// Storage width of a dense model's rows, chosen once per model from its
/// largest off-diagonal |W_ij|, independently of DeltaWidth: the narrowest
/// of int8, int16 and int32 that holds it.  Each width excludes its own
/// lowest value (-128, INT16_MIN, INT32_MIN), so every stored weight can be
/// negated in place.  The kernels widen each element to the Delta width,
/// so every (Delta, row) pair is exact.
enum class RowWidth : std::uint8_t { kInt8, kInt16, kInt32 };

inline constexpr const char* to_string(RowWidth w) noexcept {
  switch (w) {
    case RowWidth::kInt8:
      return "int8";
    case RowWidth::kInt16:
      return "int16";
    case RowWidth::kInt32:
      return "int32";
  }
  return "?";
}

}  // namespace dabs
