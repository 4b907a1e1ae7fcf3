#include "models/reciprocal_wrapper.h"

#include <gtest/gtest.h>

#include "datagen/pattern_kg_generator.h"
#include "eval/evaluator.h"
#include "kg/augmentation.h"
#include "models/trilinear_models.h"
#include "train/one_vs_all.h"
#include "train/trainer.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 50;
constexpr int32_t kRelations = 2;

TEST(ReciprocalWrapperTest, PresentsOriginalRelationCount) {
  auto base = MakeCp(kEntities, 2 * kRelations, 8, 1);
  ReciprocalWrapper wrapper(base.get(), kRelations);
  EXPECT_EQ(wrapper.num_relations(), kRelations);
  EXPECT_EQ(wrapper.num_entities(), kEntities);
  EXPECT_EQ(wrapper.name(), "CP+reciprocal");
}

TEST(ReciprocalWrapperTest, RejectsNonAugmentedBase) {
  auto base = MakeCp(kEntities, 3, 8, 1);  // odd count: not augmented
  EXPECT_DEATH({ ReciprocalWrapper wrapper(base.get(), 2); }, "KGE_CHECK");
}

TEST(ReciprocalWrapperTest, TailQueriesDelegateUnchanged) {
  auto base = MakeCp(kEntities, 2 * kRelations, 8, 1);
  ReciprocalWrapper wrapper(base.get(), kRelations);
  std::vector<float> base_scores(kEntities), wrapped_scores(kEntities);
  base->ScoreAll(QuerySide::kTail, 3, 1, base_scores);
  wrapper.ScoreAll(QuerySide::kTail, 3, 1, wrapped_scores);
  EXPECT_EQ(base_scores, wrapped_scores);
}

TEST(ReciprocalWrapperTest, HeadQueriesUseAugmentedRelation) {
  auto base = MakeCp(kEntities, 2 * kRelations, 8, 1);
  ReciprocalWrapper wrapper(base.get(), kRelations);
  std::vector<float> expected(kEntities), actual(kEntities);
  // Head query for relation 1 == tail query for relation 1 + kRelations.
  base->ScoreAll(QuerySide::kTail, 7, 1 + kRelations, expected);
  wrapper.ScoreAll(QuerySide::kHead, 7, 1, actual);
  EXPECT_EQ(expected, actual);
}

TEST(ReciprocalWrapperTest, RepairsAugmentedCpEvaluation) {
  // Train CP on inverse-augmented data with the 1-N regime — which only
  // ever issues TAIL queries, as in Lacroix et al. — then compare naive
  // evaluation (the never-trained head direction) against reciprocal
  // evaluation: the reciprocal protocol must be markedly better.
  PatternKgOptions options;
  options.num_entities = kEntities;
  options.seed = 7;
  options.relations = {{RelationPattern::kInversePair, 120, ""}};
  const auto all = GeneratePatternKg(options, nullptr);
  // The generator emits inverse pairs adjacently as [(a,b,r0), (b,a,r1)].
  // Hold out ONE direction of every 4th pair, keeping its inverse in
  // train — the WN18-style leakage that makes the task learnable.
  std::vector<Triple> train_split, test_split;
  for (size_t i = 0; i + 1 < all.size(); i += 2) {
    train_split.push_back(all[i]);
    if (i % 8 == 0) {
      test_split.push_back(all[i + 1]);
    } else {
      train_split.push_back(all[i + 1]);
    }
  }

  const AugmentedTriples augmented =
      AugmentWithInverses(train_split, kRelations);
  auto cp = MakeCp(kEntities, augmented.num_relations, 16, 3);
  OneVsAllOptions trainer_options;
  trainer_options.max_epochs = 150;
  trainer_options.learning_rate = 0.02;
  OneVsAllTrainer trainer(cp.get(), trainer_options);
  ASSERT_TRUE(trainer.Train(augmented.triples, nullptr).ok());

  FilterIndex filter;
  filter.Build(train_split, {}, test_split);
  Evaluator evaluator(&filter, kRelations);
  EvalOptions eval_options;

  const double naive =
      evaluator.EvaluateOverall(*cp, test_split, eval_options).Mrr();
  ReciprocalWrapper wrapper(cp.get(), kRelations);
  const double reciprocal =
      evaluator.EvaluateOverall(wrapper, test_split, eval_options).Mrr();
  EXPECT_GT(reciprocal, naive + 0.1)
      << "naive " << naive << " reciprocal " << reciprocal;
}

}  // namespace
}  // namespace kge
