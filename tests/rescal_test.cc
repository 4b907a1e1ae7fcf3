#include "models/rescal.h"

#include <gtest/gtest.h>

#include "math/vec_ops.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 15;
constexpr int32_t kRelations = 3;
constexpr int32_t kDim = 6;
constexpr uint64_t kSeed = 77;

TEST(RescalTest, ShapeAndParameterCount) {
  auto model = MakeRescal(kEntities, kRelations, kDim, kSeed);
  EXPECT_EQ(model->name(), "RESCAL");
  EXPECT_EQ(model->num_entities(), kEntities);
  EXPECT_EQ(model->num_relations(), kRelations);
  // D per entity, D² per relation.
  EXPECT_EQ(model->NumParameters(),
            kEntities * kDim + kRelations * kDim * kDim);
}

TEST(RescalTest, ScoreMatchesNaiveBilinearForm) {
  auto model = MakeRescal(kEntities, kRelations, kDim, kSeed);
  const Triple triple{2, 9, 1};
  const auto h = model->Blocks()[Rescal::kEntityBlock]->Row(triple.head);
  const auto t = model->Blocks()[Rescal::kEntityBlock]->Row(triple.tail);
  const auto w = model->Blocks()[Rescal::kRelationBlock]->Row(triple.relation);
  double expected = 0.0;
  for (int32_t a = 0; a < kDim; ++a) {
    for (int32_t b = 0; b < kDim; ++b) {
      expected += double(h[size_t(a)]) * double(w[size_t(a * kDim + b)]) *
                  double(t[size_t(b)]);
    }
  }
  EXPECT_NEAR(model->Score(triple), expected, 1e-6);
}

TEST(RescalTest, ScoreAllTailsAgreesWithScore) {
  auto model = MakeRescal(kEntities, kRelations, kDim, kSeed);
  std::vector<float> scores(kEntities);
  model->ScoreAll(QuerySide::kTail, 3, 2, scores);
  for (EntityId t = 0; t < kEntities; ++t) {
    EXPECT_NEAR(scores[size_t(t)], model->Score({3, t, 2}), 1e-4);
  }
}

TEST(RescalTest, ScoreAllHeadsAgreesWithScore) {
  auto model = MakeRescal(kEntities, kRelations, kDim, kSeed);
  std::vector<float> scores(kEntities);
  model->ScoreAll(QuerySide::kHead, 7, 0, scores);
  for (EntityId h = 0; h < kEntities; ++h) {
    EXPECT_NEAR(scores[size_t(h)], model->Score({h, 7, 0}), 1e-4);
  }
}

TEST(RescalTest, GradientsMatchFiniteDifferences) {
  auto model = MakeRescal(kEntities, kRelations, kDim, kSeed);
  GradientBuffer grads(model->Blocks());
  const Triple triple{1, 5, 2};
  const float dscore = 0.7f;
  model->AccumulateGradients(triple, dscore, &grads);

  struct Case {
    size_t block;
    int64_t row;
  };
  for (const Case& c : {Case{Rescal::kEntityBlock, 1},
                        Case{Rescal::kEntityBlock, 5},
                        Case{Rescal::kRelationBlock, 2}}) {
    const auto grad = grads.GradFor(c.block, c.row);
    auto params = model->Blocks()[c.block]->Row(c.row);
    const double eps = 1e-3;
    // Sample a subset of coordinates for the D² relation matrix.
    const size_t stride = c.block == Rescal::kRelationBlock ? 7 : 1;
    for (size_t d = 0; d < params.size(); d += stride) {
      const float saved = params[d];
      params[d] = saved + float(eps);
      const double plus = model->Score(triple);
      params[d] = saved - float(eps);
      const double minus = model->Score(triple);
      params[d] = saved;
      EXPECT_NEAR(grad[d], dscore * (plus - minus) / (2 * eps), 1e-2)
          << "block " << c.block << " coord " << d;
    }
  }
}

TEST(RescalTest, CanExpressAsymmetricRelations) {
  // With a generic (non-symmetric) W, swapping h and t changes the score.
  auto model = MakeRescal(kEntities, kRelations, kDim, kSeed);
  EXPECT_GT(std::abs(model->Score({1, 2, 0}) - model->Score({2, 1, 0})),
            1e-6);
}

TEST(RescalTest, DiagonalRelationMatrixReducesToDistMult) {
  // RESCAL with W = diag(r) IS DistMult — the containment the paper's
  // Eq. (3) expresses.
  auto model = MakeRescal(kEntities, 1, kDim, kSeed);
  auto w = model->Blocks()[Rescal::kRelationBlock]->Row(0);
  std::vector<float> diag(kDim);
  for (int32_t i = 0; i < kDim; ++i) diag[size_t(i)] = 0.1f * float(i + 1);
  std::fill(w.begin(), w.end(), 0.0f);
  for (int32_t i = 0; i < kDim; ++i) w[size_t(i * kDim + i)] = diag[size_t(i)];

  const auto h = model->Blocks()[Rescal::kEntityBlock]->Row(3);
  const auto t = model->Blocks()[Rescal::kEntityBlock]->Row(8);
  EXPECT_NEAR(model->Score({3, 8, 0}), TrilinearDot(h, t, diag), 1e-5);
}

TEST(RescalTest, NormalizeEntitiesOnlyTouchesEntities) {
  auto model = MakeRescal(kEntities, kRelations, kDim, kSeed);
  const auto w_before = model->Blocks()[Rescal::kRelationBlock]->Row(0)[0];
  const std::vector<EntityId> ids = {2};
  model->NormalizeEntities(ids);
  EXPECT_NEAR(Norm(model->Blocks()[Rescal::kEntityBlock]->Row(2)), 1.0, 1e-5);
  EXPECT_EQ(model->Blocks()[Rescal::kRelationBlock]->Row(0)[0], w_before);
}

}  // namespace
}  // namespace kge
