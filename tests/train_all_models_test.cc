// Parameterized smoke sweep: EVERY registered model must train through
// the full Trainer stack (gradients, optimizer, constraints) with a
// finite decreasing loss and a working ranking path. This pins down the
// KgeModel contract across the whole zoo.
#include <gtest/gtest.h>

#include <cmath>

#include "datagen/pattern_kg_generator.h"
#include "eval/evaluator.h"
#include "models/model_factory.h"
#include "train/trainer.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 60;
constexpr int32_t kRelations = 3;

class TrainAllModelsTest : public testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    PatternKgOptions options;
    options.num_entities = kEntities;
    options.seed = 5;
    options.relations = {{RelationPattern::kInversePair, 80, ""},
                         {RelationPattern::kSymmetric, 40, ""}};
    train_ = new std::vector<Triple>(GeneratePatternKg(options, nullptr));
  }
  static void TearDownTestSuite() {
    delete train_;
    train_ = nullptr;
  }
  static std::vector<Triple>* train_;
};

std::vector<Triple>* TrainAllModelsTest::train_ = nullptr;

TEST_P(TrainAllModelsTest, TrainsWithFiniteDecreasingLoss) {
  Result<std::unique_ptr<KgeModel>> model =
      MakeModelByName(GetParam(), kEntities, kRelations, 16, 3);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  TrainerOptions options;
  options.batch_size = 128;
  options.learning_rate = 0.02;
  Trainer trainer(model->get(), options);
  NegativeSamplerOptions sampler_options;
  NegativeSampler sampler(kEntities, kRelations, *train_, sampler_options);
  Rng rng(9);
  const double first = trainer.RunEpoch(*train_, sampler, &rng);
  ASSERT_TRUE(std::isfinite(first));
  double last = first;
  for (int epoch = 0; epoch < 25; ++epoch) {
    last = trainer.RunEpoch(*train_, sampler, &rng);
    ASSERT_TRUE(std::isfinite(last)) << "epoch " << epoch;
  }
  EXPECT_LT(last, first) << GetParam();
}

TEST_P(TrainAllModelsTest, RankingPathIsConsistentAfterTraining) {
  Result<std::unique_ptr<KgeModel>> model =
      MakeModelByName(GetParam(), kEntities, kRelations, 16, 3);
  ASSERT_TRUE(model.ok());
  TrainerOptions options;
  options.max_epochs = 5;
  options.batch_size = 128;
  Trainer trainer(model->get(), options);
  ASSERT_TRUE(trainer.Train(*train_, nullptr).ok());

  std::vector<float> scores(kEntities);
  (*model)->ScoreAll(QuerySide::kTail, 1, 0, scores);
  for (EntityId t = 0; t < kEntities; t += 11) {
    EXPECT_NEAR(scores[size_t(t)], (*model)->Score({1, t, 0}), 1e-3)
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, TrainAllModelsTest,
    testing::Values("distmult", "complex", "cp", "cph", "simple",
                    "quaternion", "octonion", "uniform", "transe-l1", "transe-l2",
                    "transh", "rotate", "rescal", "er-mlp", "ntn", "conve", "autoweight",
                    "autoweight-softmax", "autoweight-sparse"));

}  // namespace
}  // namespace kge
