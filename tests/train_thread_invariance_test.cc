// The training determinism contract: epoch losses and final parameters
// are bit-identical for every num_threads, for both trainers. The batch
// is carved into fixed virtual shards with seed-derived sampling streams
// and merged in shard order (1-vs-all: every row summed in batch order),
// so the thread count only decides how many shards or rows run
// concurrently — never what either computes. CI runs this suite in
// scalar and AVX2 builds and under TSan (which additionally exercises
// the pool and pipeline paths for data races).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "datagen/pattern_kg_generator.h"
#include "models/quaternion_model.h"
#include "models/trilinear_models.h"
#include "train/one_vs_all.h"
#include "train/trainer.h"

namespace kge {
namespace {

struct TinyWorkload {
  std::vector<Triple> train;
  int32_t num_entities = 60;
  int32_t num_relations = 3;
};

TinyWorkload MakeTinyWorkload(uint64_t seed = 7) {
  PatternKgOptions options;
  options.num_entities = 60;
  options.seed = seed;
  options.relations = {{RelationPattern::kSymmetric, 60, ""},
                       {RelationPattern::kInversePair, 60, ""}};
  TinyWorkload workload;
  workload.train = GeneratePatternKg(options, nullptr);
  return workload;
}

std::unique_ptr<MultiEmbeddingModel> MakeModelByFamily(
    const std::string& family, const TinyWorkload& workload) {
  if (family == "DistMult") {
    return MakeDistMult(workload.num_entities, workload.num_relations, 8,
                        42);
  }
  if (family == "ComplEx") {
    return MakeComplEx(workload.num_entities, workload.num_relations, 8, 42);
  }
  return MakeQuaternionModel(workload.num_entities, workload.num_relations,
                             4, 42);
}

void ExpectBlocksBitIdentical(MultiEmbeddingModel* a,
                              MultiEmbeddingModel* b) {
  std::vector<ParameterBlock*> blocks_a = a->Blocks();
  std::vector<ParameterBlock*> blocks_b = b->Blocks();
  ASSERT_EQ(blocks_a.size(), blocks_b.size());
  for (size_t i = 0; i < blocks_a.size(); ++i) {
    const auto flat_a = blocks_a[i]->Flat();
    const auto flat_b = blocks_b[i]->Flat();
    ASSERT_EQ(flat_a.size(), flat_b.size());
    for (size_t d = 0; d < flat_a.size(); ++d) {
      ASSERT_EQ(flat_a[d], flat_b[d])
          << blocks_a[i]->name() << " element " << d;
    }
  }
}

class ThreadInvarianceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ThreadInvarianceTest, NegativeSamplingTrainerIsThreadInvariant) {
  const TinyWorkload workload = MakeTinyWorkload();
  TrainerOptions options;
  options.max_epochs = 3;
  options.batch_size = 32;
  options.num_negatives = 4;
  options.self_adversarial = true;  // exercise the batched softmax path
  options.learning_rate = 0.05;
  options.l2_lambda = 1e-4;
  options.eval_every_epochs = 1000;
  options.seed = 99;
  options.grad_shard_size = 8;  // several shards even at batch 32

  options.num_threads = 1;
  auto reference_model = MakeModelByFamily(GetParam(), workload);
  Trainer reference(reference_model.get(), options);
  const Result<TrainResult> reference_result =
      reference.Train(workload.train, nullptr);
  ASSERT_TRUE(reference_result.ok());

  options.num_threads = 4;
  auto model = MakeModelByFamily(GetParam(), workload);
  Trainer trainer(model.get(), options);
  const Result<TrainResult> result = trainer.Train(workload.train, nullptr);
  ASSERT_TRUE(result.ok());

  ASSERT_EQ(reference_result->loss_history.size(),
            result->loss_history.size());
  for (size_t e = 0; e < reference_result->loss_history.size(); ++e) {
    ASSERT_EQ(reference_result->loss_history[e], result->loss_history[e])
        << "epoch " << e;
  }
  ExpectBlocksBitIdentical(reference_model.get(), model.get());
}

TEST_P(ThreadInvarianceTest, OneVsAllTrainerIsThreadInvariant) {
  const TinyWorkload workload = MakeTinyWorkload();
  OneVsAllOptions options;
  options.max_epochs = 3;
  options.batch_queries = 16;
  options.label_smoothing = 0.1;
  options.learning_rate = 0.05;
  options.eval_every_epochs = 1000;
  options.seed = 99;

  options.num_threads = 1;
  auto reference_model = MakeModelByFamily(GetParam(), workload);
  OneVsAllTrainer reference(reference_model.get(), options);
  const Result<TrainResult> reference_result =
      reference.Train(workload.train, nullptr);
  ASSERT_TRUE(reference_result.ok());

  options.num_threads = 4;
  auto model = MakeModelByFamily(GetParam(), workload);
  OneVsAllTrainer trainer(model.get(), options);
  const Result<TrainResult> result = trainer.Train(workload.train, nullptr);
  ASSERT_TRUE(result.ok());

  ASSERT_EQ(reference_result->loss_history.size(),
            result->loss_history.size());
  for (size_t e = 0; e < reference_result->loss_history.size(); ++e) {
    ASSERT_EQ(reference_result->loss_history[e], result->loss_history[e])
        << "epoch " << e;
  }
  ExpectBlocksBitIdentical(reference_model.get(), model.get());
}

// The margin-ranking loss path must honor the same contract; cover it
// once with the cheapest family.
TEST(ThreadInvarianceMarginTest, MarginLossIsThreadCountInvariant) {
  const TinyWorkload workload = MakeTinyWorkload();
  TrainerOptions options;
  options.max_epochs = 3;
  options.batch_size = 32;
  options.num_negatives = 2;
  options.loss = LossKind::kMarginRanking;
  options.optimizer = "sgd";
  options.learning_rate = 0.05;
  options.eval_every_epochs = 1000;
  options.seed = 17;
  options.grad_shard_size = 8;

  options.num_threads = 1;
  auto serial_model = MakeModelByFamily("DistMult", workload);
  Trainer serial(serial_model.get(), options);
  ASSERT_TRUE(serial.Train(workload.train, nullptr).ok());

  options.num_threads = 4;
  auto parallel_model = MakeModelByFamily("DistMult", workload);
  Trainer parallel(parallel_model.get(), options);
  ASSERT_TRUE(parallel.Train(workload.train, nullptr).ok());

  ExpectBlocksBitIdentical(serial_model.get(), parallel_model.get());
}

INSTANTIATE_TEST_SUITE_P(Families, ThreadInvarianceTest,
                         ::testing::Values("DistMult", "ComplEx",
                                           "Quaternion"));

}  // namespace
}  // namespace kge
