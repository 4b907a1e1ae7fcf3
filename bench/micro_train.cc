// Microbenchmarks for the training loop: per-epoch cost by model, and
// optimizer step cost, on a fixed small workload.
#include <benchmark/benchmark.h>

#include "datagen/pattern_kg_generator.h"
#include "kg/negative_sampler.h"
#include "models/quaternion_model.h"
#include "models/trilinear_models.h"
#include "train/trainer.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 500;
constexpr int32_t kRelations = 4;

std::vector<Triple> MakeTrainSet() {
  PatternKgOptions options;
  options.num_entities = kEntities;
  options.seed = 11;
  options.relations = {{RelationPattern::kInversePair, 1500, ""},
                       {RelationPattern::kSymmetric, 500, ""}};
  return GeneratePatternKg(options, nullptr);
}

template <typename Factory>
void RunEpochBenchmark(benchmark::State& state, Factory factory) {
  const auto train = MakeTrainSet();
  auto model = factory();
  TrainerOptions options;
  options.batch_size = 512;
  Trainer trainer(model.get(), options);
  NegativeSamplerOptions sampler_options;
  NegativeSampler sampler(kEntities, kRelations, train, sampler_options);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.RunEpoch(train, sampler, &rng));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(train.size()));
}

void BM_EpochDistMult(benchmark::State& state) {
  RunEpochBenchmark(state,
                    [] { return MakeDistMult(kEntities, kRelations, 128, 1); });
}
BENCHMARK(BM_EpochDistMult)->Unit(benchmark::kMillisecond);

void BM_EpochComplEx(benchmark::State& state) {
  RunEpochBenchmark(state,
                    [] { return MakeComplEx(kEntities, kRelations, 64, 1); });
}
BENCHMARK(BM_EpochComplEx)->Unit(benchmark::kMillisecond);

void BM_EpochCph(benchmark::State& state) {
  RunEpochBenchmark(state,
                    [] { return MakeCph(kEntities, kRelations, 64, 1); });
}
BENCHMARK(BM_EpochCph)->Unit(benchmark::kMillisecond);

void BM_EpochQuaternion(benchmark::State& state) {
  RunEpochBenchmark(
      state, [] { return MakeQuaternionModel(kEntities, kRelations, 32, 1); });
}
BENCHMARK(BM_EpochQuaternion)->Unit(benchmark::kMillisecond);

// Optimizer step cost (BeginStep + one UpdateRow per row) over a
// synthetic sparse gradient buffer.
void BM_OptimizerStep(benchmark::State& state) {
  ParameterBlock block("e", 10000, 256);
  AdamOptions options;
  auto optimizer = MakeAdam({&block}, options);
  GradientBuffer grads({&block});
  Rng rng(2);
  for (int i = 0; i < int(state.range(0)); ++i) {
    auto g = grads.GradFor(0, int64_t(rng.NextBounded(10000)));
    for (float& x : g) x = rng.NextUniform(-1, 1);
  }
  for (auto _ : state) {
    optimizer->BeginStep();
    grads.ForEach([&](size_t b, int64_t row, std::span<const float> g) {
      optimizer->UpdateRow(b, row, g);
    });
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_OptimizerStep)->Arg(64)->Arg(512)->Arg(2048);

}  // namespace
}  // namespace kge

BENCHMARK_MAIN();
