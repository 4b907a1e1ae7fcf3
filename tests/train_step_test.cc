// The negative-sampling trainer's batch tail is one fused pass
// (StepOverShards): per row, sum the shard gradients in shard order,
// apply the optimizer's row update, normalize the row. This suite pins
// it bit for bit to an unfused reference of the same step — register
// every touched row in a master buffer in shard order, merge with
// shard-order Axpy, run FinishBatch into the master, apply the
// simd::ref row updates, then NormalizeEntities over the touched
// entities — for every optimizer, with and without the unit-norm
// constraint, at 1 and 4 threads, on a plain trilinear model, one with
// FinishBatch rows (AutoWeight) and one with a model-wide constraint
// (TransH's normals).
//
// It also pins that the training read paths (AccumulateGradients of
// every model, the L2 regularizer, the epoch loop's non-finite scan)
// read parameters without bumping any block's mutation stamp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "math/simd.h"
#include "models/learned_weight_model.h"
#include "models/model_factory.h"
#include "models/transh.h"
#include "models/trilinear_models.h"
#include "optim/constraints.h"
#include "optim/optimizer.h"
#include "train/train_loop.h"
#include "train/trainer.h"
#include "util/io.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 24;
constexpr int32_t kRelations = 3;
constexpr size_t kShards = 6;
constexpr size_t kTriplesPerShard = 10;
constexpr int kSteps = 3;
constexpr double kLearningRate = 0.05;

std::unique_ptr<KgeModel> MakeFamily(const std::string& family) {
  if (family == "ComplEx") return MakeComplEx(kEntities, kRelations, 6, 5);
  if (family == "TransH") return MakeTransH(kEntities, kRelations, 6, 5);
  LearnedWeightOptions options;
  options.restriction = RestrictionKind::kTanh;
  return MakeLearnedWeightModel(kEntities, kRelations, 6, options, 5);
}

// The optimizers' row updates, spelled with the simd::ref kernels and
// their own moment arrays; SaveState writes the state in the optimizers'
// format so the two can be compared byte for byte.
class ReferenceOptimizer {
 public:
  ReferenceOptimizer(std::string name, std::vector<ParameterBlock*> blocks)
      : name_(std::move(name)), blocks_(std::move(blocks)) {
    for (const ParameterBlock* block : blocks_) {
      first_.emplace_back(size_t(block->size()), 0.0f);
      second_.emplace_back(size_t(block->size()), 0.0f);
    }
  }

  void BeginStep() {
    ++step_;
    const AdamOptions adam;
    adam_.beta1 = adam.beta1;
    adam_.beta2 = adam.beta2;
    adam_.lr = kLearningRate *
               std::sqrt(1.0 - std::pow(adam.beta2, double(step_))) /
               (1.0 - std::pow(adam.beta1, double(step_)));
    adam_.eps = double(static_cast<float>(adam.epsilon));
  }

  std::span<float> UpdateRow(size_t b, int64_t row,
                             std::span<const float> grad) {
    const size_t offset = size_t(row) * grad.size();
    float* params = blocks_[b]->Row(row).data();
    const float lr = static_cast<float>(kLearningRate);
    if (name_ == "sgd") {
      simd::ref::SgdRow(lr, grad.data(), params, grad.size());
    } else if (name_ == "adagrad") {
      simd::ref::AdagradRow(lr, static_cast<float>(AdagradOptions().epsilon),
                            grad.data(), first_[b].data() + offset, params,
                            grad.size());
    } else {
      simd::ref::AdamRow(adam_, grad.data(), first_[b].data() + offset,
                         second_[b].data() + offset, params, grad.size());
    }
    return {params, grad.size()};
  }

  Status SaveState(BinaryWriter* writer) const {
    KGE_RETURN_IF_ERROR(writer->WriteString(name_));
    KGE_RETURN_IF_ERROR(writer->WriteDouble(kLearningRate));
    if (name_ == "sgd") return Status::Ok();
    if (name_ == "adam") {
      KGE_RETURN_IF_ERROR(writer->WriteUint64(uint64_t(step_)));
    }
    for (const std::vector<float>& m : first_) {
      KGE_RETURN_IF_ERROR(writer->WriteFloatArray(m.data(), m.size()));
    }
    if (name_ == "adagrad") return Status::Ok();
    for (const std::vector<float>& v : second_) {
      KGE_RETURN_IF_ERROR(writer->WriteFloatArray(v.data(), v.size()));
    }
    return Status::Ok();
  }

 private:
  std::string name_;
  std::vector<ParameterBlock*> blocks_;
  int64_t step_ = 0;
  simd::AdamRowStep adam_;
  std::vector<std::vector<float>> first_;   // Adagrad sums / Adam m
  std::vector<std::vector<float>> second_;  // Adam v
};

// The unfused batch tail: merge into a master buffer, step every row,
// then normalize the touched entities.
void ReferenceTail(const std::vector<std::unique_ptr<GradientBuffer>>& shards,
                   KgeModel* model, ReferenceOptimizer* optimizer,
                   bool unit_norm_entities, double* finish_loss) {
  GradientBuffer master(model->Blocks());
  for (const auto& shard : shards) {
    shard->ForEach([&](size_t b, int64_t row, std::span<const float>) {
      master.GradFor(b, row);
    });
  }
  master.ForEach([&](size_t b, int64_t row, std::span<const float>) {
    const std::span<float> acc = master.GradFor(b, row);
    for (const auto& shard : shards) {
      const std::span<const float> src = shard->Find(b, row);
      if (!src.empty()) {
        simd::ref::Axpy(1.0f, src.data(), acc.data(), acc.size());
      }
    }
  });
  *finish_loss = model->FinishBatch(&master);
  optimizer->BeginStep();
  std::vector<EntityId> touched;
  master.ForEach([&](size_t b, int64_t row, std::span<const float> grad) {
    optimizer->UpdateRow(b, row, grad);
    if (b == 0) touched.push_back(EntityId(row));
  });
  if (unit_norm_entities) model->NormalizeEntities(touched);
}

// One batch's shard buffers: overlapping random triples with random
// upstream gradients, so rows recur across shards.
void FillShards(KgeModel* model, uint64_t seed,
                std::vector<std::unique_ptr<GradientBuffer>>* shards) {
  Rng rng(seed);
  model->BeginBatch();
  for (auto& shard : *shards) {
    shard->Clear();
    for (size_t i = 0; i < kTriplesPerShard; ++i) {
      const Triple triple{EntityId(rng.NextBounded(kEntities)),
                          EntityId(rng.NextBounded(kEntities)),
                          RelationId(rng.NextBounded(kRelations))};
      model->AccumulateGradients(triple, rng.NextUniform(-1.0f, 1.0f),
                                 shard.get());
    }
  }
}

std::string SavedState(const std::string& path,
                       const std::function<Status(BinaryWriter*)>& save) {
  BinaryWriter writer;
  EXPECT_TRUE(writer.Open(path).ok());
  EXPECT_TRUE(save(&writer).ok());
  EXPECT_TRUE(writer.Close().ok());
  Result<std::string> bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok());
  std::remove(path.c_str());
  return bytes.ok() ? *bytes : std::string();
}

TEST(TrainStepTest, FusedStepMatchesTheUnfusedTailBitForBit) {
  const std::string path = testing::TempDir() + "/train_step_state.bin";
  for (const char* family : {"ComplEx", "AutoWeight", "TransH"}) {
    for (const char* name : {"sgd", "adagrad", "adam"}) {
      for (const bool unit_norm : {false, true}) {
        for (const size_t threads : {size_t(1), size_t(4)}) {
          SCOPED_TRACE(std::string(family) + " " + name +
                       " unit_norm=" + std::to_string(unit_norm) +
                       " threads=" + std::to_string(threads));
          std::unique_ptr<KgeModel> fused = MakeFamily(family);
          std::unique_ptr<KgeModel> reference = MakeFamily(family);
          std::unique_ptr<Optimizer> optimizer =
              MakeOptimizer(name, fused->Blocks(), kLearningRate).value();
          ReferenceOptimizer reference_optimizer(name, reference->Blocks());
          ThreadPool pool(threads);
          std::vector<std::unique_ptr<GradientBuffer>> fused_shards;
          std::vector<std::unique_ptr<GradientBuffer>> reference_shards;
          for (size_t s = 0; s < kShards; ++s) {
            fused_shards.push_back(
                std::make_unique<GradientBuffer>(fused->Blocks()));
            reference_shards.push_back(
                std::make_unique<GradientBuffer>(reference->Blocks()));
          }
          GradientBuffer finish(fused->Blocks());
          std::vector<const GradientBuffer*> sources;
          for (const auto& shard : fused_shards) sources.push_back(shard.get());
          sources.push_back(&finish);

          for (int step = 0; step < kSteps; ++step) {
            FillShards(fused.get(), uint64_t(100 + step), &fused_shards);
            FillShards(reference.get(), uint64_t(100 + step),
                       &reference_shards);
            finish.Clear();
            const double fused_loss = fused->FinishBatch(&finish);
            StepOverShards(sources, fused.get(), optimizer.get(), unit_norm,
                           &pool);
            double reference_loss = 0.0;
            ReferenceTail(reference_shards, reference.get(),
                          &reference_optimizer, unit_norm, &reference_loss);
            EXPECT_EQ(fused_loss, reference_loss);
          }

          const std::vector<ParameterBlock*> a = fused->Blocks();
          const std::vector<ParameterBlock*> b = reference->Blocks();
          ASSERT_EQ(a.size(), b.size());
          for (size_t i = 0; i < a.size(); ++i) {
            const std::span<const float> fa = std::as_const(*a[i]).Flat();
            const std::span<const float> fb = std::as_const(*b[i]).Flat();
            for (size_t d = 0; d < fa.size(); ++d) {
              ASSERT_EQ(fa[d], fb[d]) << a[i]->name() << " element " << d;
            }
          }
          EXPECT_EQ(SavedState(path,
                               [&](BinaryWriter* w) {
                                 return optimizer->SaveState(w);
                               }),
                    SavedState(path, [&](BinaryWriter* w) {
                      return reference_optimizer.SaveState(w);
                    }));
        }
      }
    }
  }
}

// The step pass takes each block's storage once per step: one stamp bump
// per block, however many rows it writes.
TEST(TrainStepTest, StepBumpsEachBlockStampOnce) {
  std::unique_ptr<KgeModel> model = MakeFamily("ComplEx");
  std::unique_ptr<Optimizer> optimizer =
      MakeOptimizer("adam", model->Blocks(), kLearningRate).value();
  std::vector<std::unique_ptr<GradientBuffer>> shards;
  for (size_t s = 0; s < kShards; ++s) {
    shards.push_back(std::make_unique<GradientBuffer>(model->Blocks()));
  }
  FillShards(model.get(), 7, &shards);
  std::vector<const GradientBuffer*> sources;
  for (const auto& shard : shards) sources.push_back(shard.get());
  ThreadPool pool(4);
  std::vector<uint64_t> before;
  for (const ParameterBlock* block : std::as_const(*model).Blocks()) {
    before.push_back(block->generation());
  }
  StepOverShards(sources, model.get(), optimizer.get(),
                 /*unit_norm_entities=*/true, &pool);
  const std::vector<const ParameterBlock*> blocks =
      std::as_const(*model).Blocks();
  for (size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i]->generation(), before[i] + 1) << blocks[i]->name();
  }
}

std::vector<uint64_t> Generations(const KgeModel& model) {
  std::vector<uint64_t> generations;
  for (const ParameterBlock* block : model.Blocks()) {
    generations.push_back(block->generation());
  }
  return generations;
}

TEST(TrainStepTest, TrainingReadsLeaveTheMutationStampAlone) {
  for (const std::string& name : KnownModelNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<KgeModel> model =
        MakeModelByName(name, 20, 4, 48, /*seed=*/3).value();
    GradientBuffer grads(model->Blocks());
    model->BeginBatch();
    const std::vector<uint64_t> before = Generations(*model);
    for (EntityId e = 0; e < 5; ++e) {
      model->AccumulateGradients({e, EntityId(e + 7), RelationId(e % 4)},
                                 0.5f, &grads);
    }
    EXPECT_EQ(Generations(*model), before);

    L2Regularizer regularizer(1e-3);
    const std::vector<std::pair<size_t, int64_t>> rows = {{0, 2}, {1, 1}};
    regularizer.Accumulate(&grads, rows);
    EXPECT_EQ(Generations(*model), before);
  }

  // The epoch loop's per-epoch non-finite scan reads every block.
  std::unique_ptr<KgeModel> model = MakeFamily("ComplEx");
  std::unique_ptr<Optimizer> optimizer =
      MakeOptimizer("adam", model->Blocks(), kLearningRate).value();
  TrainLoopConfig config;
  config.trainer_kind = "negative_sampling";
  config.max_epochs = 2;
  config.restore_best = false;
  ASSERT_TRUE(config.divergence.enabled);
  TrainLoop loop(model.get(), optimizer.get(), config);
  const std::vector<uint64_t> before = Generations(*model);
  ASSERT_TRUE(loop.Run([](Rng*) { return 0.5; }, nullptr, nullptr).ok());
  EXPECT_EQ(Generations(*model), before);
}

}  // namespace
}  // namespace kge
