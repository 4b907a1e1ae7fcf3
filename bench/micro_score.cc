// Microbenchmarks (google-benchmark) for the scoring kernels: single
// triple scores, fold-based full-vocabulary ranking, and gradient
// accumulation, across the paper's model shapes (n=1, 2, 4) at matched
// parameter budgets.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/interaction.h"
#include "models/quaternion_model.h"
#include "models/model_factory.h"
#include "models/trilinear_models.h"
#include "util/check.h"
#include "util/random.h"

namespace kge {
namespace {

std::vector<float> RandomVec(size_t n, Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng->NextUniform(-1, 1);
  return v;
}

WeightTable TableFor(int ne) {
  switch (ne) {
    case 1:
      return WeightTable::DistMult();
    case 2:
      return WeightTable::ComplEx();
    default:
      return WeightTable::Quaternion();
  }
}

// Scores one triple; budget = 256 total params per entity, split across
// the model's vectors.
void BM_ScoreTriple(benchmark::State& state) {
  const int ne = int(state.range(0));
  const WeightTable table = TableFor(ne);
  const int32_t dim = 256 / ne;
  Rng rng(1);
  const auto h = RandomVec(size_t(table.ne()) * size_t(dim), &rng);
  const auto t = RandomVec(size_t(table.ne()) * size_t(dim), &rng);
  const auto r = RandomVec(size_t(table.nr()) * size_t(dim), &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScoreTriple(table, dim, h, t, r));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_ScoreTriple)->Arg(1)->Arg(2)->Arg(4);

// Ranks all tails for one (h, r) query at a given vocabulary size.
void BM_RankAllTails(benchmark::State& state) {
  const int32_t num_entities = int32_t(state.range(0));
  auto model = MakeComplEx(num_entities, 8, 128, 3);
  std::vector<float> scores(static_cast<size_t>(num_entities));
  for (auto _ : state) {
    model->ScoreAll(QuerySide::kTail, 0, 0, scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * num_entities);
}
BENCHMARK(BM_RankAllTails)->Arg(1000)->Arg(5000)->Arg(20000);

// Gradient accumulation for one training example.
void BM_AccumulateGradients(benchmark::State& state) {
  const int ne = int(state.range(0));
  const WeightTable table = TableFor(ne);
  const int32_t dim = 256 / ne;
  Rng rng(2);
  const auto h = RandomVec(size_t(table.ne()) * size_t(dim), &rng);
  const auto t = RandomVec(size_t(table.ne()) * size_t(dim), &rng);
  const auto r = RandomVec(size_t(table.nr()) * size_t(dim), &rng);
  std::vector<float> gh(h.size()), gt(t.size()), gr(r.size());
  for (auto _ : state) {
    AccumulateTripleGradients(table, dim, h, t, r, 0.5f, gh, gt, gr);
    benchmark::DoNotOptimize(gh.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_AccumulateGradients)->Arg(1)->Arg(2)->Arg(4);

// Fold cost (the per-query fixed cost of ranking).
void BM_FoldForTail(benchmark::State& state) {
  const int ne = int(state.range(0));
  const WeightTable table = TableFor(ne);
  const int32_t dim = 256 / ne;
  Rng rng(3);
  const auto h = RandomVec(size_t(table.ne()) * size_t(dim), &rng);
  const auto r = RandomVec(size_t(table.nr()) * size_t(dim), &rng);
  std::vector<float> fold(h.size());
  for (auto _ : state) {
    FoldForTail(table, dim, h, r, fold);
    benchmark::DoNotOptimize(fold.data());
  }
}
BENCHMARK(BM_FoldForTail)->Arg(1)->Arg(2)->Arg(4);

// Cross-category ranking cost: candidates/second when scoring a full
// vocabulary, per model family — the §2.2 efficiency story quantified.
// Trilinear models rank via one fold + dots; RESCAL pays a D² fold;
// NTN/ConvE/ER-MLP pay per-candidate network costs.
void BM_RankByModel(benchmark::State& state,
                    const std::string& model_name) {
  constexpr int32_t kZooEntities = 2000;
  Result<std::unique_ptr<KgeModel>> model =
      MakeModelByName(model_name, kZooEntities, 8, 64, 3);
  KGE_CHECK_OK(model.status());
  std::vector<float> scores(static_cast<size_t>(kZooEntities));
  for (auto _ : state) {
    (*model)->ScoreAll(QuerySide::kTail, 0, 0, scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * kZooEntities);
}
BENCHMARK_CAPTURE(BM_RankByModel, distmult, std::string("distmult"));
BENCHMARK_CAPTURE(BM_RankByModel, complex, std::string("complex"));
BENCHMARK_CAPTURE(BM_RankByModel, quaternion, std::string("quaternion"));
BENCHMARK_CAPTURE(BM_RankByModel, transe_l2, std::string("transe-l2"));
BENCHMARK_CAPTURE(BM_RankByModel, rescal, std::string("rescal"));
BENCHMARK_CAPTURE(BM_RankByModel, ntn, std::string("ntn"));
BENCHMARK_CAPTURE(BM_RankByModel, conve, std::string("conve"));
BENCHMARK_CAPTURE(BM_RankByModel, er_mlp, std::string("er-mlp"));

}  // namespace
}  // namespace kge

BENCHMARK_MAIN();
