#include "rng/xorshift.hpp"

#include <bit>

namespace dabs {

static_assert(Xorshift64Star::min() < Xorshift64Star::max());

XorshiftJump::XorshiftJump(std::uint64_t steps) : steps_(steps) {
  // Column c of A^steps is the image of the unit vector e_c; the 64
  // columns step side by side, which vectorizes.
  std::array<std::uint64_t, 64> column;
  for (std::size_t c = 0; c < 64; ++c) column[c] = std::uint64_t{1} << c;
  for (std::uint64_t i = 0; i < steps; ++i) {
    for (std::uint64_t& col : column) col = Xorshift64Star::advance(col);
  }
  for (std::size_t b = 0; b < 8; ++b) {
    table_[b][0] = 0;
    for (std::size_t v = 1; v < 256; ++v) {
      // v's lowest set bit selects one column; the rest is a smaller entry.
      const auto low = static_cast<std::size_t>(std::countr_zero(v));
      table_[b][v] = table_[b][v & (v - 1)] ^ column[8 * b + low];
    }
  }
}

}  // namespace dabs
