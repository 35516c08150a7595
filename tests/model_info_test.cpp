// Tests for model analysis.
#include <gtest/gtest.h>

#include "qubo/model_info.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using testing::random_model;

TEST(ModelInfo, BasicStatisticsOnHandBuiltModel) {
  QuboBuilder b(5);
  b.add_quadratic(0, 1, 3).add_quadratic(1, 2, -2).add_linear(0, -7);
  // Variables 3, 4 are isolated (no couplings, zero diagonal).
  const QuboModel m = b.build();
  const ModelInfo info = analyze_model(m);
  EXPECT_EQ(info.variables, 5u);
  EXPECT_EQ(info.couplings, 2u);
  EXPECT_EQ(info.min_degree, 0u);
  EXPECT_EQ(info.max_degree, 2u);
  EXPECT_EQ(info.isolated_variables, 2u);
  EXPECT_EQ(info.min_weight, -7);
  EXPECT_EQ(info.max_weight, 3);
  EXPECT_EQ(info.energy_scale, 7 + 3 + 2);
  // Components: {0,1,2}, {3}, {4}.
  EXPECT_EQ(info.components, 3u);
}

TEST(ModelInfo, DensityOfCompleteGraphIsOne) {
  const QuboModel m = random_model(12, 1.0, 1, 77);  // weights ±1, no zeros?
  const ModelInfo info = analyze_model(m);
  // Some couplings may have drawn weight 0 and been dropped; density <= 1.
  EXPECT_LE(info.density, 1.0);
  EXPECT_GT(info.density, 0.5);
  EXPECT_EQ(info.components, 1u);
}

TEST(ModelInfo, DescribeMentionsEveryBlock) {
  const QuboModel m = random_model(10, 0.5, 5, 78);
  const std::string s = describe_model(analyze_model(m));
  EXPECT_NE(s.find("variables"), std::string::npos);
  EXPECT_NE(s.find("couplings"), std::string::npos);
  EXPECT_NE(s.find("degree"), std::string::npos);
  EXPECT_NE(s.find("structure"), std::string::npos);
}

TEST(ModelInfo, SingleVariableModel) {
  QuboBuilder b(1);
  b.add_linear(0, 5);
  const ModelInfo info = analyze_model(b.build());
  EXPECT_EQ(info.variables, 1u);
  EXPECT_EQ(info.couplings, 0u);
  EXPECT_EQ(info.components, 1u);
  EXPECT_EQ(info.isolated_variables, 0u);  // non-zero diagonal counts
}

}  // namespace
}  // namespace dabs
