#include "models/trilinear_models.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "models/quaternion_model.h"
#include "math/vec_ops.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 20;
constexpr int32_t kRelations = 4;
constexpr int32_t kDim = 8;
constexpr uint64_t kSeed = 11;

using ModelFactory = std::unique_ptr<MultiEmbeddingModel> (*)();

std::vector<std::unique_ptr<MultiEmbeddingModel>> AllModels() {
  std::vector<std::unique_ptr<MultiEmbeddingModel>> models;
  models.push_back(MakeDistMult(kEntities, kRelations, kDim, kSeed));
  models.push_back(MakeComplEx(kEntities, kRelations, kDim, kSeed));
  models.push_back(MakeCp(kEntities, kRelations, kDim, kSeed));
  models.push_back(MakeCph(kEntities, kRelations, kDim, kSeed));
  models.push_back(MakeQuaternionModel(kEntities, kRelations, kDim, kSeed));
  return models;
}

TEST(ModelsTest, NamesAndShapes) {
  const auto models = AllModels();
  EXPECT_EQ(models[0]->name(), "DistMult");
  EXPECT_EQ(models[1]->name(), "ComplEx");
  EXPECT_EQ(models[2]->name(), "CP");
  EXPECT_EQ(models[3]->name(), "CPh");
  EXPECT_EQ(models[4]->name(), "Quaternion");
  for (const auto& model : models) {
    EXPECT_EQ(model->num_entities(), kEntities);
    EXPECT_EQ(model->num_relations(), kRelations);
  }
}

TEST(ModelsTest, ParameterCountsMatchShapes) {
  const auto models = AllModels();
  // DistMult: (20 + 4) * 8.
  EXPECT_EQ(models[0]->NumParameters(), (kEntities + kRelations) * kDim);
  // ComplEx: 2 vectors everywhere.
  EXPECT_EQ(models[1]->NumParameters(), 2 * (kEntities + kRelations) * kDim);
  // CP: 2 entity vectors, 1 relation vector.
  EXPECT_EQ(models[2]->NumParameters(),
            (2 * kEntities + kRelations) * kDim);
  // Quaternion: 4 vectors everywhere.
  EXPECT_EQ(models[4]->NumParameters(), 4 * (kEntities + kRelations) * kDim);
}

TEST(ModelsTest, MatchedBudgetComparison) {
  // The paper's parameter matching: DistMult dim 400 vs ComplEx dim 200 vs
  // quaternion dim 100 have equal entity parameter counts.
  const auto distmult = MakeDistMult(kEntities, kRelations, 400, kSeed);
  const auto complex = MakeComplEx(kEntities, kRelations, 200, kSeed);
  const auto quaternion =
      MakeQuaternionModel(kEntities, kRelations, 100, kSeed);
  EXPECT_EQ(distmult->entity_store().block()->size(),
            complex->entity_store().block()->size());
  EXPECT_EQ(complex->entity_store().block()->size(),
            quaternion->entity_store().block()->size());
}

TEST(ModelsTest, ScoreAllTailsAgreesWithScore) {
  for (const auto& model : AllModels()) {
    std::vector<float> scores(kEntities);
    model->ScoreAll(QuerySide::kTail, 3, 1, scores);
    for (EntityId t = 0; t < kEntities; ++t) {
      EXPECT_NEAR(scores[size_t(t)], model->Score({3, t, 1}), 1e-4)
          << model->name() << " tail " << t;
    }
  }
}

TEST(ModelsTest, ScoreAllHeadsAgreesWithScore) {
  for (const auto& model : AllModels()) {
    std::vector<float> scores(kEntities);
    model->ScoreAll(QuerySide::kHead, 5, 2, scores);
    for (EntityId h = 0; h < kEntities; ++h) {
      EXPECT_NEAR(scores[size_t(h)], model->Score({h, 5, 2}), 1e-4)
          << model->name() << " head " << h;
    }
  }
}

TEST(ModelsTest, InitIsDeterministicInSeed) {
  const auto a = MakeComplEx(kEntities, kRelations, kDim, 123);
  const auto b = MakeComplEx(kEntities, kRelations, kDim, 123);
  const auto c = MakeComplEx(kEntities, kRelations, kDim, 456);
  EXPECT_EQ(a->Score({0, 1, 0}), b->Score({0, 1, 0}));
  EXPECT_NE(a->Score({0, 1, 0}), c->Score({0, 1, 0}));
}

TEST(ModelsTest, BlocksExposeEntityAndRelationStores) {
  auto model = MakeComplEx(kEntities, kRelations, kDim, kSeed);
  const auto blocks = model->Blocks();
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[MultiEmbeddingModel::kEntityBlock],
            model->entity_store().block());
  EXPECT_EQ(blocks[MultiEmbeddingModel::kRelationBlock],
            model->relation_store().block());
}

TEST(ModelsTest, AccumulateGradientsMatchesFiniteDifference) {
  auto model = MakeCph(kEntities, kRelations, kDim, kSeed);
  GradientBuffer grads(model->Blocks());
  const Triple triple{2, 7, 1};
  const float dscore = 0.8f;
  model->AccumulateGradients(triple, dscore, &grads);

  // Check a handful of head-entity coordinates by finite differences.
  const auto grad = grads.GradFor(MultiEmbeddingModel::kEntityBlock, 2);
  auto h = model->entity_store().Of(2);
  const double eps = 1e-3;
  for (size_t d = 0; d < h.size(); d += 3) {
    const float saved = h[d];
    h[d] = saved + float(eps);
    const double plus = model->Score(triple);
    h[d] = saved - float(eps);
    const double minus = model->Score(triple);
    h[d] = saved;
    EXPECT_NEAR(grad[d], dscore * (plus - minus) / (2 * eps), 1e-2);
  }
}

TEST(ModelsTest, SelfLoopTripleGradientsAccumulateOnOneRow) {
  // head == tail: both gradient contributions must land on the same row.
  auto model = MakeComplEx(kEntities, kRelations, kDim, kSeed);
  GradientBuffer grads(model->Blocks());
  model->AccumulateGradients({4, 4, 0}, 1.0f, &grads);
  size_t entity_rows = 0;
  grads.ForEach([&](size_t block, int64_t row, std::span<const float>) {
    if (block == MultiEmbeddingModel::kEntityBlock) {
      ++entity_rows;
      EXPECT_EQ(row, 4);
    }
  });
  EXPECT_EQ(entity_rows, 1u);
}

TEST(ModelsTest, NormalizeEntitiesMakesUnitVectors) {
  auto model = MakeComplEx(kEntities, kRelations, kDim, kSeed);
  const std::vector<EntityId> ids = {1, 3};
  model->NormalizeEntities(ids);
  for (EntityId e : ids) {
    for (int32_t v = 0; v < 2; ++v) {
      EXPECT_NEAR(Norm(model->entity_store().Vec(e, v)), 1.0, 1e-5);
    }
  }
  // Entity 0 untouched (Xavier init vectors are not unit norm).
  EXPECT_GT(std::abs(Norm(model->entity_store().Vec(0, 0)) - 1.0), 1e-3);
}

TEST(ModelsTest, DistMultScoreIsSymmetricCpIsNot) {
  const auto models = AllModels();
  const Triple forward{1, 2, 0};
  const Triple backward{2, 1, 0};
  EXPECT_NEAR(models[0]->Score(forward), models[0]->Score(backward), 1e-6);
  EXPECT_GT(std::abs(models[2]->Score(forward) - models[2]->Score(backward)),
            1e-6);
}

TEST(ModelsTest, CustomWeightTableModel) {
  auto model = MakeMultiEmbedding("Custom", kEntities, kRelations, kDim,
                                  WeightTable::GoodExample2(), kSeed);
  EXPECT_EQ(model->name(), "Custom");
  EXPECT_EQ(model->weights().terms().size(), 8u);
}

TEST(ModelsTest, InitParametersResetsState) {
  auto model = MakeComplEx(kEntities, kRelations, kDim, 1);
  const double before = model->Score({0, 1, 0});
  model->entity_store().Of(0)[0] += 10.0f;
  EXPECT_NE(model->Score({0, 1, 0}), before);
  model->InitParameters(1);
  EXPECT_NEAR(model->Score({0, 1, 0}), before, 1e-6);
}

}  // namespace
}  // namespace kge
