// Overflow-hardening tests for QuboBuilder.
#include <gtest/gtest.h>

#include <limits>

#include "qubo/qubo_builder.hpp"

namespace dabs {
namespace {

constexpr Weight kMaxW = std::numeric_limits<Weight>::max();

TEST(BuilderOverflow, LinearAccumulationOverflowIsRejected) {
  QuboBuilder b(2);
  b.add_linear(0, kMaxW).add_linear(0, 1);
  EXPECT_THROW((void)b.build(), std::invalid_argument);
}

TEST(BuilderOverflow, QuadraticAccumulationOverflowIsRejected) {
  QuboBuilder b(2);
  b.add_quadratic(0, 1, kMaxW).add_quadratic(0, 1, kMaxW);
  EXPECT_THROW((void)b.build(), std::invalid_argument);
}

TEST(BuilderOverflow, CancellingTermsAreFine) {
  // Intermediate sums may exceed int32 as long as the final value fits.
  QuboBuilder b(2);
  b.add_linear(0, kMaxW).add_linear(0, kMaxW).add_linear(0, -kMaxW);
  b.add_quadratic(0, 1, kMaxW).add_quadratic(0, 1, -kMaxW)
      .add_quadratic(0, 1, 5);
  const QuboModel m = b.build();
  EXPECT_EQ(m.diag(0), kMaxW);
  EXPECT_EQ(m.weight(0, 1), 5);
}

TEST(BuilderOverflow, ExactBoundaryValuesSurvive) {
  QuboBuilder b(2);
  b.add_linear(0, kMaxW);
  b.add_linear(1, std::numeric_limits<Weight>::min());
  const QuboModel m = b.build();
  EXPECT_EQ(m.diag(0), kMaxW);
  EXPECT_EQ(m.diag(1), std::numeric_limits<Weight>::min());
}

TEST(BuilderOverflow, DeltaBoundIsExactPastInt32) {
  // |INT32_MIN| + 3 * INT32_MAX needs 64 bits; the bound must not wrap.
  QuboBuilder b(4);
  b.add_linear(0, std::numeric_limits<Weight>::min());
  b.add_quadratic(0, 1, kMaxW).add_quadratic(0, 2, -kMaxW)
      .add_quadratic(0, 3, kMaxW);
  const QuboModel m = b.build();
  EXPECT_EQ(m.delta_bound(), (std::uint64_t{1} << 33) - 3);
  EXPECT_EQ(m.delta_width(), DeltaWidth::kInt64);
}

}  // namespace
}  // namespace dabs
