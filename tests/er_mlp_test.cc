#include "models/er_mlp.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/dense_layer.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 10;
constexpr int32_t kRelations = 3;
constexpr int32_t kDim = 5;
constexpr int32_t kHidden = 7;
constexpr uint64_t kSeed = 51;

// ---- DenseLayer substrate ---------------------------------------------

TEST(DenseLayerTest, LinearForwardMatchesManualComputation) {
  DenseLayer layer("l", 3, 2, Activation::kLinear);
  // W = [[1,2,3],[4,5,6]], b = [0.5, -0.5].
  float* w = layer.weights()->Flat().data();
  for (int i = 0; i < 6; ++i) w[i] = float(i + 1);
  layer.bias()->Row(0)[0] = 0.5f;
  layer.bias()->Row(0)[1] = -0.5f;
  const std::vector<float> x = {1.0f, 0.0f, -1.0f};
  std::vector<float> out(2);
  layer.Forward(x, out);
  EXPECT_NEAR(out[0], 1 * 1 + 2 * 0 + 3 * -1 + 0.5, 1e-6);
  EXPECT_NEAR(out[1], 4 * 1 + 5 * 0 + 6 * -1 - 0.5, 1e-6);
}

TEST(DenseLayerTest, TanhForwardBounded) {
  DenseLayer layer("l", 4, 3, Activation::kTanh);
  Rng rng(1);
  layer.Init(&rng);
  const std::vector<float> x = {10.0f, -10.0f, 5.0f, -5.0f};
  std::vector<float> out(3);
  layer.Forward(x, out);
  for (float y : out) {
    EXPECT_GE(y, -1.0f);
    EXPECT_LE(y, 1.0f);
  }
}

TEST(DenseLayerTest, BackwardMatchesFiniteDifferences) {
  for (Activation activation : {Activation::kLinear, Activation::kTanh}) {
    DenseLayer layer("l", 4, 3, activation);
    Rng rng(2);
    layer.Init(&rng);
    std::vector<float> x = {0.3f, -0.7f, 0.2f, 0.9f};
    std::vector<float> out(3);
    layer.Forward(x, out);
    const std::vector<float> dout = {1.0f, -0.5f, 0.25f};

    GradientBuffer grads({layer.weights(), layer.bias()});
    std::vector<float> dx(4, 0.0f);
    layer.Backward(x, out, dout, &grads, 0, 1, dx);

    // L = Σ dout_o * layer(x)_o; finite-difference every parameter.
    auto loss = [&] {
      std::vector<float> y(3);
      layer.Forward(x, y);
      double l = 0.0;
      for (int o = 0; o < 3; ++o) l += double(dout[size_t(o)]) * y[size_t(o)];
      return l;
    };
    const double eps = 1e-3;
    for (int64_t row = 0; row < 3; ++row) {
      const auto grad = grads.GradFor(0, row);
      auto w = layer.weights()->Row(row);
      for (size_t i = 0; i < w.size(); ++i) {
        const float saved = w[i];
        w[i] = saved + float(eps);
        const double plus = loss();
        w[i] = saved - float(eps);
        const double minus = loss();
        w[i] = saved;
        EXPECT_NEAR(grad[i], (plus - minus) / (2 * eps), 1e-2);
      }
    }
    // Input gradient.
    for (size_t i = 0; i < x.size(); ++i) {
      const float saved = x[i];
      x[i] = saved + float(eps);
      const double plus = loss();
      x[i] = saved - float(eps);
      const double minus = loss();
      x[i] = saved;
      EXPECT_NEAR(dx[i], (plus - minus) / (2 * eps), 1e-2);
    }
  }
}

// ---- ER-MLP model -------------------------------------------------------

TEST(ErMlpTest, ShapeAndBlocks) {
  auto model = MakeErMlp(kEntities, kRelations, kDim, kHidden, kSeed);
  EXPECT_EQ(model->name(), "ER-MLP");
  EXPECT_EQ(model->Blocks().size(), 6u);
  EXPECT_EQ(model->NumParameters(),
            kEntities * kDim + kRelations * kDim +  // embeddings
                kHidden * 3 * kDim + kHidden +      // hidden layer
                kHidden + 1);                       // output layer
}

TEST(ErMlpTest, ScoreAllTailsAgreesWithScore) {
  auto model = MakeErMlp(kEntities, kRelations, kDim, kHidden, kSeed);
  std::vector<float> scores(kEntities);
  model->ScoreAll(QuerySide::kTail, 1, 2, scores);
  for (EntityId t = 0; t < kEntities; ++t) {
    EXPECT_NEAR(scores[size_t(t)], model->Score({1, t, 2}), 1e-5);
  }
}

TEST(ErMlpTest, ScoreAllHeadsAgreesWithScore) {
  auto model = MakeErMlp(kEntities, kRelations, kDim, kHidden, kSeed);
  std::vector<float> scores(kEntities);
  model->ScoreAll(QuerySide::kHead, 6, 1, scores);
  for (EntityId h = 0; h < kEntities; ++h) {
    EXPECT_NEAR(scores[size_t(h)], model->Score({h, 6, 1}), 1e-5);
  }
}

TEST(ErMlpTest, ScoreIsAsymmetricInHeadTail) {
  auto model = MakeErMlp(kEntities, kRelations, kDim, kHidden, kSeed);
  EXPECT_GT(std::fabs(model->Score({1, 2, 0}) - model->Score({2, 1, 0})),
            1e-8);
}

TEST(ErMlpTest, FullGradientMatchesFiniteDifferences) {
  auto model = MakeErMlp(kEntities, kRelations, kDim, kHidden, kSeed);
  GradientBuffer grads(model->Blocks());
  const Triple triple{2, 7, 1};
  const float dscore = 0.9f;
  model->AccumulateGradients(triple, dscore, &grads);

  struct Case {
    size_t block;
    int64_t row;
  };
  const std::vector<Case> cases = {
      {ErMlp::kEntityBlock, 2},   {ErMlp::kEntityBlock, 7},
      {ErMlp::kRelationBlock, 1}, {ErMlp::kHiddenWeights, 0},
      {ErMlp::kHiddenWeights, 3}, {ErMlp::kHiddenBias, 0},
      {ErMlp::kOutputWeights, 0}, {ErMlp::kOutputBias, 0},
  };
  const double eps = 1e-3;
  for (const Case& c : cases) {
    const auto grad = grads.GradFor(c.block, c.row);
    auto params = model->Blocks()[c.block]->Row(c.row);
    for (size_t i = 0; i < params.size(); i += 2) {
      const float saved = params[i];
      params[i] = saved + float(eps);
      const double plus = model->Score(triple);
      params[i] = saved - float(eps);
      const double minus = model->Score(triple);
      params[i] = saved;
      EXPECT_NEAR(grad[i], dscore * (plus - minus) / (2 * eps), 1e-2)
          << "block " << c.block << " row " << c.row << " coord " << i;
    }
  }
}

TEST(ErMlpTest, CanFitATinyAsymmetricPattern) {
  // Universal-approximator sanity: a few gradient steps should separate a
  // positive triple from a negative one.
  auto model = MakeErMlp(kEntities, kRelations, kDim, kHidden, kSeed);
  const Triple positive{0, 1, 0};
  const Triple negative{1, 0, 0};
  GradientBuffer grads(model->Blocks());
  for (int step = 0; step < 200; ++step) {
    grads.Clear();
    model->AccumulateGradients(positive, -0.1f, &grads);  // raise score
    model->AccumulateGradients(negative, 0.1f, &grads);   // lower score
    grads.ForEach([&](size_t block, int64_t row,
                      std::span<const float> grad) {
      auto params = model->Blocks()[block]->Row(row);
      for (size_t i = 0; i < grad.size(); ++i) params[i] -= 0.1f * grad[i];
    });
  }
  EXPECT_GT(model->Score(positive), model->Score(negative) + 0.5);
}

}  // namespace
}  // namespace kge
