#include "models/transh.h"

#include <gtest/gtest.h>

#include "math/vec_ops.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 12;
constexpr int32_t kRelations = 3;
constexpr int32_t kDim = 6;
constexpr uint64_t kSeed = 41;

TEST(TransHTest, ShapeAndBlocks) {
  auto model = MakeTransH(kEntities, kRelations, kDim, kSeed);
  EXPECT_EQ(model->name(), "TransH");
  const auto blocks = model->Blocks();
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(model->NumParameters(),
            (kEntities + 2 * kRelations) * kDim);
}

TEST(TransHTest, NormalsAreUnitAfterInit) {
  auto model = MakeTransH(kEntities, kRelations, kDim, kSeed);
  for (RelationId r = 0; r < kRelations; ++r) {
    EXPECT_NEAR(Norm(model->Blocks()[TransH::kNormalBlock]->Row(r)), 1.0,
                1e-5);
  }
}

TEST(TransHTest, ScoresAreNonPositive) {
  auto model = MakeTransH(kEntities, kRelations, kDim, kSeed);
  for (EntityId h = 0; h < 5; ++h) {
    EXPECT_LE(model->Score({h, 7, 1}), 0.0);
  }
}

TEST(TransHTest, PerfectProjectedTranslationScoresZero) {
  auto model = MakeTransH(kEntities, kRelations, kDim, kSeed);
  // Make t = h + d with w orthogonal influence removed: set t so that
  // t⊥ = h⊥ + d. With t = h + d − (wᵀ(h + d) − wᵀt) w ... simplest:
  // choose t = h + d_projected where d is first projected onto the
  // hyperplane, making both sides' projections line up.
  auto h = model->Blocks()[TransH::kEntityBlock]->Row(0);
  auto t = model->Blocks()[TransH::kEntityBlock]->Row(1);
  auto d = model->Blocks()[TransH::kTranslationBlock]->Row(0);
  const auto w = model->Blocks()[TransH::kNormalBlock]->Row(0);
  // Project d onto the hyperplane so the translation stays within it.
  const double wd = Dot(w, d);
  for (size_t i = 0; i < d.size(); ++i) d[i] -= float(wd) * w[i];
  // Set t = h + d; then t⊥ = h⊥ + d (since d ⊥ w).
  for (size_t i = 0; i < t.size(); ++i) t[i] = h[i] + d[i];
  EXPECT_NEAR(model->Score({0, 1, 0}), 0.0, 1e-9);
}

TEST(TransHTest, ScoreAllTailsAgreesWithScore) {
  auto model = MakeTransH(kEntities, kRelations, kDim, kSeed);
  std::vector<float> scores(kEntities);
  model->ScoreAll(QuerySide::kTail, 2, 1, scores);
  for (EntityId t = 0; t < kEntities; ++t) {
    EXPECT_NEAR(scores[size_t(t)], model->Score({2, t, 1}), 1e-4);
  }
}

TEST(TransHTest, ScoreAllHeadsAgreesWithScore) {
  auto model = MakeTransH(kEntities, kRelations, kDim, kSeed);
  std::vector<float> scores(kEntities);
  model->ScoreAll(QuerySide::kHead, 4, 0, scores);
  for (EntityId h = 0; h < kEntities; ++h) {
    EXPECT_NEAR(scores[size_t(h)], model->Score({h, 4, 0}), 1e-4);
  }
}

TEST(TransHTest, GradientsMatchFiniteDifferences) {
  auto model = MakeTransH(kEntities, kRelations, kDim, kSeed);
  GradientBuffer grads(model->Blocks());
  const Triple triple{1, 8, 2};
  const float dscore = 1.1f;
  model->AccumulateGradients(triple, dscore, &grads);

  struct Case {
    size_t block;
    int64_t row;
  };
  for (const Case& c : {Case{TransH::kEntityBlock, 1},
                        Case{TransH::kEntityBlock, 8},
                        Case{TransH::kTranslationBlock, 2},
                        Case{TransH::kNormalBlock, 2}}) {
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

TEST(TransHTest, NormalizeEntitiesRenormalizesNormalsToo) {
  auto model = MakeTransH(kEntities, kRelations, kDim, kSeed);
  // Perturb a normal away from unit length (as an optimizer step would).
  auto w = model->Blocks()[TransH::kNormalBlock]->Row(1);
  for (float& x : w) x *= 3.0f;
  const std::vector<EntityId> ids = {0};
  model->NormalizeEntities(ids);
  EXPECT_NEAR(Norm(model->Blocks()[TransH::kNormalBlock]->Row(1)), 1.0, 1e-5);
  EXPECT_NEAR(Norm(model->Blocks()[TransH::kEntityBlock]->Row(0)), 1.0, 1e-5);
}

TEST(TransHTest, HyperplaneEnablesOneToManyUnlikeTransE) {
  // TransE forces all tails of a relation with a fixed head to one point;
  // TransH can score two different tails perfectly for the same (h, r) by
  // placing their difference along w. Construct that configuration.
  auto model = MakeTransH(kEntities, kRelations, kDim, kSeed);
  auto h = model->Blocks()[TransH::kEntityBlock]->Row(0);
  auto t1 = model->Blocks()[TransH::kEntityBlock]->Row(1);
  auto t2 = model->Blocks()[TransH::kEntityBlock]->Row(2);
  auto d = model->Blocks()[TransH::kTranslationBlock]->Row(0);
  const auto w = model->Blocks()[TransH::kNormalBlock]->Row(0);
  const double wd = Dot(w, d);
  for (size_t i = 0; i < d.size(); ++i) d[i] -= float(wd) * w[i];
  for (size_t i = 0; i < t1.size(); ++i) {
    t1[i] = h[i] + d[i] + 0.5f * w[i];  // differ only along the normal
    t2[i] = h[i] + d[i] - 0.7f * w[i];
  }
  EXPECT_NEAR(model->Score({0, 1, 0}), 0.0, 1e-9);
  EXPECT_NEAR(model->Score({0, 2, 0}), 0.0, 1e-9);
  // Yet t1 != t2 in embedding space.
  EXPECT_GT(LpDistance(t1, t2, 2), 0.1);
}

}  // namespace
}  // namespace kge
