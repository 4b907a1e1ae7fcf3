#include "models/conve.h"

#include <gtest/gtest.h>

#include <cmath>

namespace kge {
namespace {

constexpr int32_t kEntities = 10;
constexpr int32_t kRelations = 3;
constexpr uint64_t kSeed = 71;

ConvEOptions SmallOptions() {
  ConvEOptions options;
  options.dim = 12;
  options.grid_height = 3;
  options.grid_width = 4;
  options.num_filters = 2;
  return options;
}

TEST(ConvETest, ShapeAndBlocks) {
  auto model = MakeConvE(kEntities, kRelations, SmallOptions(), kSeed);
  EXPECT_EQ(model->name(), "ConvE");
  EXPECT_EQ(model->dim(), 12);
  EXPECT_EQ(model->Blocks().size(), 7u);
  EXPECT_GT(model->NumParameters(), 0);
}

TEST(ConvETest, RejectsNonFactoringGrid) {
  ConvEOptions options = SmallOptions();
  options.grid_width = 5;  // 3*5 != 12
  EXPECT_DEATH({ MakeConvE(kEntities, kRelations, options, kSeed); },
               "KGE_CHECK");
}

TEST(ConvETest, ScoreAllTailsAgreesWithScore) {
  auto model = MakeConvE(kEntities, kRelations, SmallOptions(), kSeed);
  std::vector<float> scores(kEntities);
  model->ScoreAll(QuerySide::kTail, 1, 2, scores);
  for (EntityId t = 0; t < kEntities; ++t) {
    EXPECT_NEAR(scores[size_t(t)], model->Score({1, t, 2}), 1e-5);
  }
}

TEST(ConvETest, ScoreAllHeadsAgreesWithScore) {
  auto model = MakeConvE(kEntities, kRelations, SmallOptions(), kSeed);
  std::vector<float> scores(kEntities);
  model->ScoreAll(QuerySide::kHead, 7, 0, scores);
  for (EntityId h = 0; h < kEntities; ++h) {
    EXPECT_NEAR(scores[size_t(h)], model->Score({h, 7, 0}), 1e-5);
  }
}

TEST(ConvETest, EntityBiasShiftsScoresAdditively) {
  auto model = MakeConvE(kEntities, kRelations, SmallOptions(), kSeed);
  const Triple triple{0, 5, 1};
  const double before = model->Score(triple);
  model->Blocks()[ConvE::kEntityBias]->Row(5)[0] += 2.5f;
  EXPECT_NEAR(model->Score(triple), before + 2.5, 1e-5);
}

TEST(ConvETest, GradientsMatchFiniteDifferences) {
  auto model = MakeConvE(kEntities, kRelations, SmallOptions(), kSeed);
  GradientBuffer grads(model->Blocks());
  const Triple triple{2, 6, 1};
  const float dscore = 0.9f;
  model->AccumulateGradients(triple, dscore, &grads);

  struct Case {
    size_t block;
    int64_t row;
    size_t stride;
  };
  const std::vector<Case> cases = {
      {ConvE::kEntityBlock, 2, 1},      // head
      {ConvE::kEntityBlock, 6, 1},      // tail
      {ConvE::kRelationBlock, 1, 1},    // relation
      {ConvE::kConvFilters, 0, 2},      // first filter
      {ConvE::kConvBias, 0, 1},
      {ConvE::kProjectionWeights, 0, 5},
      {ConvE::kProjectionWeights, 3, 5},
      {ConvE::kProjectionBias, 0, 3},
      {ConvE::kEntityBias, 6, 1},
  };
  const double eps = 1e-3;
  for (const Case& c : cases) {
    const auto grad = grads.GradFor(c.block, c.row);
    auto params = model->Blocks()[c.block]->Row(c.row);
    for (size_t i = 0; i < params.size(); i += c.stride) {
      const float saved = params[i];
      params[i] = saved + float(eps);
      const double plus = model->Score(triple);
      params[i] = saved - float(eps);
      const double minus = model->Score(triple);
      params[i] = saved;
      EXPECT_NEAR(grad[i], dscore * (plus - minus) / (2 * eps), 2e-2)
          << "block " << c.block << " row " << c.row << " coord " << i;
    }
  }
}

TEST(ConvETest, AsymmetricScores) {
  auto model = MakeConvE(kEntities, kRelations, SmallOptions(), kSeed);
  EXPECT_GT(std::fabs(model->Score({1, 2, 0}) - model->Score({2, 1, 0})),
            1e-9);
}

TEST(ConvETest, LearnsToSeparateOnePair) {
  auto model = MakeConvE(kEntities, kRelations, SmallOptions(), kSeed);
  const Triple positive{0, 1, 0};
  const Triple negative{0, 2, 0};
  GradientBuffer grads(model->Blocks());
  for (int step = 0; step < 150; ++step) {
    grads.Clear();
    model->AccumulateGradients(positive, -0.1f, &grads);
    model->AccumulateGradients(negative, 0.1f, &grads);
    grads.ForEach(
        [&](size_t block, int64_t row, std::span<const float> grad) {
          auto params = model->Blocks()[block]->Row(row);
          for (size_t i = 0; i < grad.size(); ++i) {
            params[i] -= 0.1f * grad[i];
          }
        });
  }
  EXPECT_GT(model->Score(positive), model->Score(negative) + 0.5);
}

}  // namespace
}  // namespace kge
