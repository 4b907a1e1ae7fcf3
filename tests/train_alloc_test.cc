// The steady-state zero-allocation contract for training, at EVERY
// thread count: after warm-up epochs have grown all
// buffers to their high-water marks (gradient buffers pre-Reserved at
// the WorstCaseGradRows bound, the pool's POD stage-task ring, the
// per-thread scratch), further epochs perform zero heap allocations —
// including at 4 threads, where the pre-pipeline trainer leaked
// one std::function closure per scheduled task. Counted with a global
// operator-new override, so the whole binary's allocations are visible;
// the override is incompatible with sanitizer interception and the
// assertions compile out under ASan/TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "datagen/pattern_kg_generator.h"
#include "kg/augmentation.h"
#include "kg/negative_sampler.h"
#include "models/model_factory.h"
#include "models/trilinear_models.h"
#include "train/one_vs_all.h"
#include "train/trainer.h"
#include "util/crc32c.h"
#include "util/random.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KGE_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KGE_COUNT_ALLOCS 0
#else
#define KGE_COUNT_ALLOCS 1
#endif
#else
#define KGE_COUNT_ALLOCS 1
#endif

#if KGE_COUNT_ALLOCS
namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif  // KGE_COUNT_ALLOCS

namespace kge {
namespace {

std::vector<Triple> MakeWorkload() {
  PatternKgOptions options;
  options.num_entities = 60;
  options.seed = 7;
  options.relations = {{RelationPattern::kSymmetric, 60, ""},
                       {RelationPattern::kInversePair, 60, ""}};
  return GeneratePatternKg(options, nullptr);
}

#if KGE_COUNT_ALLOCS
uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
#endif

TEST(TrainAllocTest, NegativeSamplingEpochsAllocateNothingAtFourThreads) {
#if !KGE_COUNT_ALLOCS
  GTEST_SKIP() << "operator-new counting is disabled under sanitizers";
#else
  const std::vector<Triple> train = MakeWorkload();
  TrainerOptions options;
  options.batch_size = 32;
  options.num_negatives = 4;
  options.self_adversarial = true;
  options.learning_rate = 0.05;
  options.l2_lambda = 1e-4;
  options.seed = 99;
  options.grad_shard_size = 8;
  options.num_threads = 4;

  auto model = MakeComplEx(60, 3, 8, 42);
  Trainer trainer(model.get(), options);
  NegativeSampler sampler(60, 3, train, NegativeSamplerOptions());
  Rng rng(11);
  // Worker participation is scheduler-dependent: with caller-helps-
  // drain, a loaded machine can starve a pool thread for many epochs,
  // so its first-ever task (growing its thread_local scratch once) may
  // land after any fixed warm-up count. Measure the contract directly
  // instead: an allocation-free steady state must be reached — three
  // consecutive zero-alloc epochs — within a bounded epoch budget. A
  // real per-triple or per-batch leak allocates every epoch and can
  // never produce even one zero-alloc epoch.
  int consecutive = 0;
  for (int epoch = 0; epoch < 50 && consecutive < 3; ++epoch) {
    const uint64_t before = AllocCount();
    trainer.RunEpoch(train, sampler, &rng);
    consecutive = (AllocCount() == before) ? consecutive + 1 : 0;
  }
  EXPECT_EQ(consecutive, 3)
      << "steady-state training epochs must stop allocating";
#endif
}

// The learned-weight models refresh ω from ρ at every BeginBatch and
// chain dL/dω through the restriction at every FinishBatch; both run on
// member scratch, so their batches allocate nothing either — at one
// thread and at four.
TEST(TrainAllocTest, AutoWeightEpochsAllocateNothing) {
#if !KGE_COUNT_ALLOCS
  GTEST_SKIP() << "operator-new counting is disabled under sanitizers";
#else
  const std::vector<Triple> train = MakeWorkload();
  for (const char* name : {"autoweight", "autoweight-softmax"}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(name) + " threads=" + std::to_string(threads));
      TrainerOptions options;
      options.batch_size = 32;
      options.num_negatives = 4;
      options.learning_rate = 0.05;
      options.seed = 99;
      options.grad_shard_size = 8;
      options.num_threads = threads;
      Result<std::unique_ptr<KgeModel>> model =
          MakeModelByName(name, 60, 3, 16, 42);
      ASSERT_TRUE(model.ok());
      Trainer trainer(model->get(), options);
      NegativeSampler sampler(60, 3, train, NegativeSamplerOptions());
      Rng rng(11);
      // Same bounded search for the steady state as above.
      int consecutive = 0;
      for (int epoch = 0; epoch < 50 && consecutive < 3; ++epoch) {
        const uint64_t before = AllocCount();
        trainer.RunEpoch(train, sampler, &rng);
        consecutive = (AllocCount() == before) ? consecutive + 1 : 0;
      }
      EXPECT_EQ(consecutive, 3)
          << "steady-state training epochs must stop allocating";
    }
  }
#endif
}

// CRC32C over the bytes of every parameter block, in block order.
uint32_t ParameterFingerprint(const KgeModel& model) {
  uint32_t crc = 0;
  for (const ParameterBlock* block : model.Blocks()) {
    const std::span<const float> flat = block->Flat();
    crc = Crc32cExtend(crc, flat.data(), flat.size_bytes());
  }
  return crc;
}

// Moving the learned-weight models onto member scratch changed no
// arithmetic: five epochs leave every parameter bit-identical to the
// allocating implementation's, whose fingerprints are pinned here, at
// one thread and at four.
TEST(TrainAllocTest, AutoWeightTrainsBitIdenticallyToTheAllocatingPath) {
  const std::vector<Triple> train = MakeWorkload();
  const struct {
    const char* name;
    uint32_t fingerprint;
  } kCases[] = {{"autoweight", 0x91485db6u},
                {"autoweight-softmax", 0x5f9977f5u}};
  for (const auto& c : kCases) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(c.name) + " threads=" +
                   std::to_string(threads));
      TrainerOptions options;
      options.batch_size = 32;
      options.num_negatives = 4;
      options.learning_rate = 0.05;
      options.seed = 99;
      options.grad_shard_size = 8;
      options.num_threads = threads;
      Result<std::unique_ptr<KgeModel>> model =
          MakeModelByName(c.name, 60, 3, 16, 42);
      ASSERT_TRUE(model.ok());
      Trainer trainer(model->get(), options);
      NegativeSampler sampler(60, 3, train, NegativeSamplerOptions());
      Rng rng(11);
      for (int epoch = 0; epoch < 5; ++epoch) {
        trainer.RunEpoch(train, sampler, &rng);
      }
      EXPECT_EQ(ParameterFingerprint(**model), c.fingerprint)
          << std::hex << "fingerprint 0x" << ParameterFingerprint(**model);
    }
  }
}

// The 1-vs-all step sums each entity row (its candidate adds in batch
// order, then its head folds in batch order) and each relation row (its
// folds in batch order), and updates a row only when something was
// added to it. Pinned: the parameters and the loss-history bits that
// registering rows into a GradientBuffer and stepping through
// Optimizer::Apply produced, for every optimizer, with and without
// label smoothing, at one thread and four. Inverse augmentation makes
// heads and relations repeat inside a batch.
TEST(TrainAllocTest, OneVsAllTrainsBitIdenticallyToTheBufferedStep) {
  const AugmentedTriples train = AugmentWithInverses(MakeWorkload(), 3);
  const struct {
    const char* optimizer;
    double label_smoothing;
    uint32_t params;
    uint32_t losses;
  } kCases[] = {{"adam", 0.0, 0x464a244au, 0x005bbc41u},
                {"adam", 0.1, 0xf178527fu, 0x4502db95u},
                {"adagrad", 0.0, 0xceeb33e1u, 0x8d8f4355u},
                {"adagrad", 0.1, 0x583e9b93u, 0xebde4318u},
                {"sgd", 0.0, 0x1ebe6675u, 0x9d075f50u},
                {"sgd", 0.1, 0x2502a80au, 0x48c43cddu}};
  for (const auto& c : kCases) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(c.optimizer) + " label_smoothing=" +
                   std::to_string(c.label_smoothing) +
                   " threads=" + std::to_string(threads));
      OneVsAllOptions options;
      options.max_epochs = 3;
      options.batch_queries = 16;
      options.optimizer = c.optimizer;
      options.learning_rate = 0.05;
      options.label_smoothing = c.label_smoothing;
      options.eval_every_epochs = 1000;
      options.seed = 99;
      options.num_threads = threads;
      auto model = MakeComplEx(60, train.num_relations, 8, 42);
      OneVsAllTrainer trainer(model.get(), options);
      const Result<TrainResult> result = trainer.Train(train.triples, nullptr);
      ASSERT_TRUE(result.ok());
      const std::vector<double>& history = result->loss_history;
      const uint32_t losses = Crc32c(history.data(), history.size() * sizeof(double));
      EXPECT_EQ(ParameterFingerprint(*model), c.params)
          << std::hex << "parameters 0x" << ParameterFingerprint(*model);
      EXPECT_EQ(losses, c.losses) << std::hex << "losses 0x" << losses;
    }
  }
}

TEST(TrainAllocTest, OneVsAllEpochsAllocateNothingAtFourThreads) {
#if !KGE_COUNT_ALLOCS
  GTEST_SKIP() << "operator-new counting is disabled under sanitizers";
#else
  const std::vector<Triple> train = MakeWorkload();
  OneVsAllOptions options;
  options.max_epochs = 1;  // Train() builds queries + runs one epoch
  options.batch_queries = 16;
  options.label_smoothing = 0.1;
  options.learning_rate = 0.05;
  options.eval_every_epochs = 1000;
  options.restore_best = false;
  options.seed = 99;
  options.num_threads = 4;

  auto model = MakeComplEx(60, 3, 8, 42);
  OneVsAllTrainer trainer(model.get(), options);
  ASSERT_TRUE(trainer.Train(train, nullptr).ok());
  Rng rng(11);
  // Same bounded search for the steady state as the negative-sampling
  // test: fixed warm-up counts race against worker wake-up order.
  int consecutive = 0;
  for (int epoch = 0; epoch < 50 && consecutive < 3; ++epoch) {
    const uint64_t before = AllocCount();
    trainer.RunEpoch(&rng);
    consecutive = (AllocCount() == before) ? consecutive + 1 : 0;
  }
  EXPECT_EQ(consecutive, 3)
      << "steady-state training epochs must stop allocating";
#endif
}

}  // namespace
}  // namespace kge
