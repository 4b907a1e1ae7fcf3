#include "models/ntn.h"

#include <gtest/gtest.h>

#include <cmath>

namespace kge {
namespace {

constexpr int32_t kEntities = 12;
constexpr int32_t kRelations = 3;
constexpr int32_t kDim = 5;
constexpr int32_t kSlices = 2;
constexpr uint64_t kSeed = 61;

TEST(NtnTest, ShapeAndParameterCount) {
  auto model = MakeNtn(kEntities, kRelations, kDim, kSlices, kSeed);
  EXPECT_EQ(model->name(), "NTN");
  EXPECT_EQ(model->num_slices(), kSlices);
  const int64_t per_relation =
      kSlices * kDim * kDim + kSlices * 2 * kDim + 2 * kSlices;
  EXPECT_EQ(model->NumParameters(),
            kEntities * kDim + kRelations * per_relation);
}

TEST(NtnTest, ScoreMatchesManualFormula) {
  auto model = MakeNtn(kEntities, kRelations, kDim, kSlices, kSeed);
  const Triple triple{1, 7, 2};
  const auto h = model->Blocks()[Ntn::kEntityBlock]->Row(triple.head);
  const auto t = model->Blocks()[Ntn::kEntityBlock]->Row(triple.tail);
  const auto row = model->Blocks()[Ntn::kRelationBlock]->Row(triple.relation);

  const size_t d = kDim, k = kSlices;
  double expected = 0.0;
  for (size_t slice = 0; slice < k; ++slice) {
    const float* w = row.data() + slice * d * d;
    const float* v = row.data() + k * d * d + slice * 2 * d;
    const float b = row[k * d * d + k * 2 * d + slice];
    const float u = row[k * d * d + k * 2 * d + k + slice];
    double z = double(b);
    for (size_t a = 0; a < d; ++a) {
      for (size_t c = 0; c < d; ++c) {
        z += double(h[a]) * double(w[a * d + c]) * double(t[c]);
      }
      z += double(v[a]) * h[a] + double(v[d + a]) * t[a];
    }
    expected += double(u) * std::tanh(z);
  }
  EXPECT_NEAR(model->Score(triple), expected, 1e-6);
}

TEST(NtnTest, ScoreAllTailsAgreesWithScore) {
  auto model = MakeNtn(kEntities, kRelations, kDim, kSlices, kSeed);
  std::vector<float> scores(kEntities);
  model->ScoreAll(QuerySide::kTail, 2, 1, scores);
  for (EntityId t = 0; t < kEntities; ++t) {
    EXPECT_NEAR(scores[size_t(t)], model->Score({2, t, 1}), 1e-5);
  }
}

TEST(NtnTest, ScoreAllHeadsAgreesWithScore) {
  auto model = MakeNtn(kEntities, kRelations, kDim, kSlices, kSeed);
  std::vector<float> scores(kEntities);
  model->ScoreAll(QuerySide::kHead, 9, 0, scores);
  for (EntityId h = 0; h < kEntities; ++h) {
    EXPECT_NEAR(scores[size_t(h)], model->Score({h, 9, 0}), 1e-5);
  }
}

TEST(NtnTest, GradientsMatchFiniteDifferences) {
  auto model = MakeNtn(kEntities, kRelations, kDim, kSlices, kSeed);
  GradientBuffer grads(model->Blocks());
  const Triple triple{3, 6, 1};
  const float dscore = 0.8f;
  model->AccumulateGradients(triple, dscore, &grads);

  struct Case {
    size_t block;
    int64_t row;
    size_t stride;
  };
  for (const Case& c : {Case{Ntn::kEntityBlock, 3, 1},
                        Case{Ntn::kEntityBlock, 6, 1},
                        Case{Ntn::kRelationBlock, 1, 3}}) {
    const auto grad = grads.GradFor(c.block, c.row);
    auto params = model->Blocks()[c.block]->Row(c.row);
    const double eps = 1e-3;
    for (size_t i = 0; i < params.size(); i += c.stride) {
      const float saved = params[i];
      params[i] = saved + float(eps);
      const double plus = model->Score(triple);
      params[i] = saved - float(eps);
      const double minus = model->Score(triple);
      params[i] = saved;
      EXPECT_NEAR(grad[i], dscore * (plus - minus) / (2 * eps), 1e-2)
          << "block " << c.block << " coord " << i;
    }
  }
}

TEST(NtnTest, SelfLoopGradientsAreConsistent) {
  // head == tail: gradients via both roles accumulate on one row and
  // must equal the total derivative.
  auto model = MakeNtn(kEntities, kRelations, kDim, kSlices, kSeed);
  GradientBuffer grads(model->Blocks());
  const Triple triple{4, 4, 0};
  model->AccumulateGradients(triple, 1.0f, &grads);
  const auto grad = grads.GradFor(Ntn::kEntityBlock, 4);
  auto params = model->Blocks()[Ntn::kEntityBlock]->Row(4);
  const double eps = 1e-3;
  for (size_t i = 0; i < params.size(); ++i) {
    const float saved = params[i];
    params[i] = saved + float(eps);
    const double plus = model->Score(triple);
    params[i] = saved - float(eps);
    const double minus = model->Score(triple);
    params[i] = saved;
    EXPECT_NEAR(grad[i], (plus - minus) / (2 * eps), 1e-2);
  }
}

TEST(NtnTest, AsymmetricByConstruction) {
  auto model = MakeNtn(kEntities, kRelations, kDim, kSlices, kSeed);
  EXPECT_GT(std::fabs(model->Score({1, 2, 0}) - model->Score({2, 1, 0})),
            1e-8);
}

TEST(NtnTest, GeneralizesRescalWhenLinearPartsVanish) {
  // With V = 0, b = 0 and small pre-activations, tanh(z) ≈ z, so NTN's
  // slice reduces to u * hᵀWt — a scaled RESCAL.
  auto model = MakeNtn(kEntities, 1, kDim, 1, kSeed);
  auto row = model->Blocks()[Ntn::kRelationBlock]->Row(0);
  const size_t d = kDim;
  // Zero V and b; set u = 1; scale W down so z stays tiny.
  for (size_t i = d * d; i < d * d + 2 * d + 1; ++i) row[i] = 0.0f;
  row[d * d + 2 * d + 1] = 1.0f;  // u
  for (size_t i = 0; i < d * d; ++i) row[i] *= 0.01f;

  const Triple triple{0, 1, 0};
  const auto h = model->Blocks()[Ntn::kEntityBlock]->Row(0);
  const auto t = model->Blocks()[Ntn::kEntityBlock]->Row(1);
  double bilinear = 0.0;
  for (size_t a = 0; a < d; ++a) {
    for (size_t c = 0; c < d; ++c) {
      bilinear += double(h[a]) * double(row[a * d + c]) * double(t[c]);
    }
  }
  EXPECT_NEAR(model->Score(triple), bilinear, 1e-5);
}

}  // namespace
}  // namespace kge
