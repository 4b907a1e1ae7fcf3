#include "models/rotate.h"

#include <gtest/gtest.h>

#include <cmath>

#include "math/vec_ops.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 14;
constexpr int32_t kRelations = 4;
constexpr int32_t kDim = 6;
constexpr uint64_t kSeed = 81;

TEST(RotatETest, ShapeAndBlocks) {
  auto model = MakeRotatE(kEntities, kRelations, kDim, kSeed);
  EXPECT_EQ(model->name(), "RotatE");
  EXPECT_EQ(model->dim(), kDim);
  EXPECT_EQ(model->NumParameters(),
            kEntities * 2 * kDim + kRelations * kDim);
}

TEST(RotatETest, ScoresAreNonPositive) {
  auto model = MakeRotatE(kEntities, kRelations, kDim, kSeed);
  for (EntityId h = 0; h < 5; ++h) EXPECT_LE(model->Score({h, 9, 1}), 0.0);
}

TEST(RotatETest, ZeroRotationReducesToTransEWithZeroTranslation) {
  // θ = 0: score = −||h − t||²; identical entities score 0.
  auto model = MakeRotatE(kEntities, kRelations, kDim, kSeed);
  auto theta = model->Blocks()[RotatE::kPhaseBlock]->Row(0);
  std::fill(theta.begin(), theta.end(), 0.0f);
  auto h = model->Blocks()[RotatE::kEntityBlock]->Row(0);
  auto t = model->Blocks()[RotatE::kEntityBlock]->Row(1);
  std::copy(h.begin(), h.end(), t.begin());
  EXPECT_NEAR(model->Score({0, 1, 0}), 0.0, 1e-9);
}

TEST(RotatETest, HalfTurnRotationModelsSymmetry) {
  // θ = π in every coordinate: rotating twice is the identity, so the
  // relation is exactly symmetric: S(h, t) == S(t, h).
  auto model = MakeRotatE(kEntities, kRelations, kDim, kSeed);
  auto theta = model->Blocks()[RotatE::kPhaseBlock]->Row(2);
  std::fill(theta.begin(), theta.end(), float(M_PI));
  EXPECT_NEAR(model->Score({3, 7, 2}), model->Score({7, 3, 2}), 1e-4);
}

TEST(RotatETest, GenericRotationIsAsymmetric) {
  auto model = MakeRotatE(kEntities, kRelations, kDim, kSeed);
  EXPECT_GT(std::fabs(model->Score({3, 7, 1}) - model->Score({7, 3, 1})),
            1e-6);
}

TEST(RotatETest, InverseRelationIsNegatedPhases) {
  // If r' has phases −θ then S(h, t, r) == S(t, h, r') exactly.
  auto model = MakeRotatE(kEntities, kRelations, kDim, kSeed);
  auto theta = model->Blocks()[RotatE::kPhaseBlock]->Row(0);
  auto theta_inv = model->Blocks()[RotatE::kPhaseBlock]->Row(1);
  for (size_t i = 0; i < theta.size(); ++i) theta_inv[i] = -theta[i];
  EXPECT_NEAR(model->Score({2, 5, 0}), model->Score({5, 2, 1}), 1e-4);
}

TEST(RotatETest, CompositionOfRotationsIsPhaseAddition) {
  // r3 = r1 ∘ r2 (θ3 = θ1 + θ2): rotating h by r1 then r2 equals
  // rotating by r3 — verified through scores against a fixed tail.
  auto model = MakeRotatE(kEntities, kRelations, kDim, kSeed);
  auto t1 = model->Blocks()[RotatE::kPhaseBlock]->Row(0);
  auto t2 = model->Blocks()[RotatE::kPhaseBlock]->Row(1);
  auto t3 = model->Blocks()[RotatE::kPhaseBlock]->Row(2);
  for (size_t i = 0; i < t1.size(); ++i) t3[i] = t1[i] + t2[i];
  // Build an intermediate entity m = h rotated by r1; then
  // S(m, t, r2) == S(h, t, r3) for every t.
  const auto h = model->Blocks()[RotatE::kEntityBlock]->Row(4);
  auto m = model->Blocks()[RotatE::kEntityBlock]->Row(5);
  for (int32_t i = 0; i < kDim; ++i) {
    const float c = std::cos(t1[size_t(i)]);
    const float s = std::sin(t1[size_t(i)]);
    m[size_t(i)] = h[size_t(i)] * c - h[size_t(kDim + i)] * s;
    m[size_t(kDim + i)] = h[size_t(i)] * s + h[size_t(kDim + i)] * c;
  }
  for (EntityId t = 0; t < 4; ++t) {
    EXPECT_NEAR(model->Score({5, t, 1}), model->Score({4, t, 2}), 1e-4);
  }
}

TEST(RotatETest, ScoreAllTailsAgreesWithScore) {
  auto model = MakeRotatE(kEntities, kRelations, kDim, kSeed);
  std::vector<float> scores(kEntities);
  model->ScoreAll(QuerySide::kTail, 2, 1, scores);
  for (EntityId t = 0; t < kEntities; ++t) {
    EXPECT_NEAR(scores[size_t(t)], model->Score({2, t, 1}), 1e-4);
  }
}

TEST(RotatETest, ScoreAllHeadsAgreesWithScore) {
  auto model = MakeRotatE(kEntities, kRelations, kDim, kSeed);
  std::vector<float> scores(kEntities);
  model->ScoreAll(QuerySide::kHead, 6, 3, scores);
  for (EntityId h = 0; h < kEntities; ++h) {
    EXPECT_NEAR(scores[size_t(h)], model->Score({h, 6, 3}), 1e-4);
  }
}

TEST(RotatETest, GradientsMatchFiniteDifferences) {
  auto model = MakeRotatE(kEntities, kRelations, kDim, kSeed);
  GradientBuffer grads(model->Blocks());
  const Triple triple{1, 8, 2};
  const float dscore = 1.2f;
  model->AccumulateGradients(triple, dscore, &grads);

  struct Case {
    size_t block;
    int64_t row;
  };
  for (const Case& c : {Case{RotatE::kEntityBlock, 1},
                        Case{RotatE::kEntityBlock, 8},
                        Case{RotatE::kPhaseBlock, 2}}) {
    const auto grad = grads.GradFor(c.block, c.row);
    auto params = model->Blocks()[c.block]->Row(c.row);
    const double eps = 1e-3;
    for (size_t i = 0; i < params.size(); ++i) {
      const float saved = params[i];
      params[i] = saved + float(eps);
      const double plus = model->Score(triple);
      params[i] = saved - float(eps);
      const double minus = model->Score(triple);
      params[i] = saved;
      EXPECT_NEAR(grad[i], dscore * (plus - minus) / (2 * eps), 2e-2)
          << "block " << c.block << " coord " << i;
    }
  }
}

TEST(RotatETest, SelfLoopGradientAccumulatesBothRoles) {
  auto model = MakeRotatE(kEntities, kRelations, kDim, kSeed);
  GradientBuffer grads(model->Blocks());
  const Triple triple{3, 3, 0};
  model->AccumulateGradients(triple, 1.0f, &grads);
  const auto grad = grads.GradFor(RotatE::kEntityBlock, 3);
  auto params = model->Blocks()[RotatE::kEntityBlock]->Row(3);
  const double eps = 1e-3;
  for (size_t i = 0; i < params.size(); i += 2) {
    const float saved = params[i];
    params[i] = saved + float(eps);
    const double plus = model->Score(triple);
    params[i] = saved - float(eps);
    const double minus = model->Score(triple);
    params[i] = saved;
    EXPECT_NEAR(grad[i], (plus - minus) / (2 * eps), 2e-2);
  }
}

}  // namespace
}  // namespace kge
