#include "models/transe.h"

#include <gtest/gtest.h>

#include <cmath>

#include "math/vec_ops.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 12;
constexpr int32_t kRelations = 3;
constexpr int32_t kDim = 6;
constexpr uint64_t kSeed = 31;

TEST(TransETest, NamesIncludeNorm) {
  EXPECT_EQ(MakeTransE(kEntities, kRelations, kDim, 1, kSeed)->name(),
            "TransE-L1");
  EXPECT_EQ(MakeTransE(kEntities, kRelations, kDim, 2, kSeed)->name(),
            "TransE-L2");
}

TEST(TransETest, ScoreIsNegativeDistance) {
  auto model = MakeTransE(kEntities, kRelations, kDim, 2, kSeed);
  // All scores must be <= 0 and equal to -||h + r - t||².
  for (EntityId h = 0; h < 3; ++h) {
    const double score = model->Score({h, 5, 1});
    EXPECT_LE(score, 0.0);
  }
}

TEST(TransETest, PerfectTranslationScoresZero) {
  auto model = MakeTransE(kEntities, kRelations, kDim, 2, kSeed);
  // Force t = h + r exactly.
  auto h = model->Score({0, 1, 0});
  (void)h;
  auto& store = *model;
  (void)store;
  // Manually: copy embeddings so that tail = head + relation.
  auto head = model->Blocks()[TransE::kEntityBlock]->Row(0);
  auto tail = model->Blocks()[TransE::kEntityBlock]->Row(1);
  auto rel = model->Blocks()[TransE::kRelationBlock]->Row(0);
  for (size_t d = 0; d < head.size(); ++d) tail[d] = head[d] + rel[d];
  EXPECT_NEAR(model->Score({0, 1, 0}), 0.0, 1e-9);
}

TEST(TransETest, ScoreAllTailsAgreesWithScore) {
  for (int p : {1, 2}) {
    auto model = MakeTransE(kEntities, kRelations, kDim, p, kSeed);
    std::vector<float> scores(kEntities);
    model->ScoreAll(QuerySide::kTail, 2, 1, scores);
    for (EntityId t = 0; t < kEntities; ++t) {
      EXPECT_NEAR(scores[size_t(t)], model->Score({2, t, 1}), 1e-4)
          << "p=" << p;
    }
  }
}

TEST(TransETest, ScoreAllHeadsAgreesWithScore) {
  for (int p : {1, 2}) {
    auto model = MakeTransE(kEntities, kRelations, kDim, p, kSeed);
    std::vector<float> scores(kEntities);
    model->ScoreAll(QuerySide::kHead, 4, 0, scores);
    for (EntityId h = 0; h < kEntities; ++h) {
      EXPECT_NEAR(scores[size_t(h)], model->Score({h, 4, 0}), 1e-4)
          << "p=" << p;
    }
  }
}

TEST(TransETest, L2GradientsMatchFiniteDifferences) {
  auto model = MakeTransE(kEntities, kRelations, kDim, 2, kSeed);
  GradientBuffer grads(model->Blocks());
  const Triple triple{1, 7, 2};
  const float dscore = 1.3f;
  model->AccumulateGradients(triple, dscore, &grads);

  struct Case {
    size_t block;
    int64_t row;
  };
  for (const Case& c : {Case{TransE::kEntityBlock, 1},
                        Case{TransE::kEntityBlock, 7},
                        Case{TransE::kRelationBlock, 2}}) {
    const auto grad = grads.GradFor(c.block, c.row);
    auto params = model->Blocks()[c.block]->Row(c.row);
    const double eps = 1e-3;
    for (size_t d = 0; d < params.size(); ++d) {
      const float saved = params[d];
      params[d] = saved + float(eps);
      const double plus = model->Score(triple);
      params[d] = saved - float(eps);
      const double minus = model->Score(triple);
      params[d] = saved;
      EXPECT_NEAR(grad[d], dscore * (plus - minus) / (2 * eps), 1e-2);
    }
  }
}

TEST(TransETest, L1GradientSignsAreCorrect) {
  auto model = MakeTransE(kEntities, kRelations, kDim, 1, kSeed);
  GradientBuffer grads(model->Blocks());
  const Triple triple{0, 1, 0};
  model->AccumulateGradients(triple, 1.0f, &grads);
  const auto gh = grads.GradFor(TransE::kEntityBlock, 0);
  const auto h = model->Blocks()[TransE::kEntityBlock]->Row(0);
  const auto t = model->Blocks()[TransE::kEntityBlock]->Row(1);
  const auto r = model->Blocks()[TransE::kRelationBlock]->Row(0);
  for (size_t d = 0; d < h.size(); ++d) {
    const double diff = double(h[d]) + double(r[d]) - double(t[d]);
    if (diff > 0) {
      EXPECT_EQ(gh[d], -1.0f);
    }
    if (diff < 0) {
      EXPECT_EQ(gh[d], 1.0f);
    }
  }
}

TEST(TransETest, SymmetricRelationForcesZeroRelationVector) {
  // Structural limitation (paper §2.2.1): if both (a,b,r) and (b,a,r)
  // score perfectly, then r must be the zero vector.
  // Check the algebra: ||h + r - t|| = 0 and ||t + r - h|| = 0 implies
  // r = t - h = h - t, hence r = 0.
  auto model = MakeTransE(kEntities, kRelations, kDim, 2, kSeed);
  auto h = model->Blocks()[TransE::kEntityBlock]->Row(0);
  auto t = model->Blocks()[TransE::kEntityBlock]->Row(1);
  auto r = model->Blocks()[TransE::kRelationBlock]->Row(0);
  // Force both directions perfect.
  for (size_t d = 0; d < r.size(); ++d) {
    r[d] = 0.0f;
    t[d] = h[d];
  }
  EXPECT_NEAR(model->Score({0, 1, 0}), 0.0, 1e-9);
  EXPECT_NEAR(model->Score({1, 0, 0}), 0.0, 1e-9);
}

TEST(TransETest, NormalizeEntitiesWorks) {
  auto model = MakeTransE(kEntities, kRelations, kDim, 2, kSeed);
  const std::vector<EntityId> ids = {0, 5};
  model->NormalizeEntities(ids);
  EXPECT_NEAR(Norm(model->Blocks()[TransE::kEntityBlock]->Row(0)), 1.0, 1e-5);
  EXPECT_NEAR(Norm(model->Blocks()[TransE::kEntityBlock]->Row(5)), 1.0, 1e-5);
}

TEST(TransETest, RejectsBadNorm) {
  EXPECT_DEATH({ MakeTransE(kEntities, kRelations, kDim, 3, kSeed); },
               "KGE_CHECK");
}

}  // namespace
}  // namespace kge
