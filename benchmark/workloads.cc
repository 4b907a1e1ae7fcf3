#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "math/simd.h"
#include "models/checkpoint.h"
#include "models/model_factory.h"
#include "optim/optimizer.h"
#include "util/random.h"
#include "util/timer.h"

namespace kgebench {

void Outcome::Add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Outcome::Mismatch(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
}

bool IsServeWorkload(const std::string& name) {
  return name.rfind("serve-", 0) == 0;
}

double StreamTriadGbPerS() {
  // 3 × 128 MiB, past the last-level cache of the machines this runs on.
  const size_t n = size_t(1) << 24;
  constexpr size_t kTriadThreads = 4;
  std::vector<double> a(n, 0.0);
  std::vector<double> b(n, 1.0);
  std::vector<double> c(n, 2.0);
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    kge::Stopwatch watch;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kTriadThreads; ++t) {
      threads.emplace_back([&, t] {
        const size_t end = n * (t + 1) / kTriadThreads;
        for (size_t i = n * t / kTriadThreads; i < end; ++i) {
          a[i] = b[i] + 3.0 * c[i];
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    best = std::min(best, watch.ElapsedSeconds());
  }
  // Keeps the stores observable.
  if (a[n / 2] != 7.0) std::fprintf(stderr, "stream triad: bad result\n");
  return 3.0 * sizeof(double) * double(n) / best / 1e9;
}

double DotBatchMultiGflops(std::span<const float> rows, size_t dim,
                           size_t queries, uint64_t seed) {
  const size_t num_rows = rows.size() / dim;
  kge::Rng rng(seed);
  std::vector<float> q(queries * dim);
  for (float& x : q) x = rng.NextUniform(-1.0f, 1.0f);
  std::vector<float> out(queries * num_rows);
  std::vector<double> seconds;
  kge::Stopwatch total;
  while (seconds.size() < 3 || (total.ElapsedSeconds() < 0.2 && seconds.size() < 50)) {
    kge::Stopwatch watch;
    kge::simd::DotBatchMulti(q.data(), queries, rows.data(), num_rows, dim,
                             out.data());
    seconds.push_back(watch.ElapsedSeconds());
  }
  return 2.0 * double(queries) * double(num_rows) * double(dim) /
         Median(seconds) / 1e9;
}

kge::Result<double> SaveCheckpoint(kge::CheckpointManager* manager,
                                   kge::KgeModel* model, uint64_t seed,
                                   int epoch) {
  // Plain SGD carries no optimizer state, so the file is the model plus
  // a small training-state section, as a serving rollout would ship it.
  const std::unique_ptr<kge::Optimizer> sgd =
      kge::MakeSgd(model->Blocks(), kge::SgdOptions{});
  kge::TrainingState state;
  state.trainer_kind = "negative_sampling";
  state.seed = seed;
  state.epoch = epoch;
  kge::Stopwatch watch;
  KGE_RETURN_IF_ERROR(manager->Save(*model, *sgd, state));
  return watch.ElapsedMillis();
}

kge::Result<SnapshotTimes> TimeSnapshotLoad(const std::string& path,
                                            const kge::ModelFactory& factory,
                                            bool prune) {
  std::vector<double> verify;
  std::vector<double> load;
  for (int rep = 0; rep < 3; ++rep) {
    kge::Stopwatch watch;
    KGE_RETURN_IF_ERROR(kge::VerifyCheckpoint(path));
    verify.push_back(watch.ElapsedMillis());
    watch.Restart();
    kge::Result<std::shared_ptr<kge::ModelSnapshot>> snapshot =
        kge::LoadServingSnapshot(path, factory, {kge::ScorePrecision::kDouble},
                                 prune);
    KGE_RETURN_IF_ERROR(snapshot.status());
    load.push_back(watch.ElapsedMillis());
  }
  return SnapshotTimes{Median(verify), Median(load)};
}

kge::ModelFactory FactoryFor(const std::string& model_name,
                             int32_t num_entities, int32_t num_relations,
                             int32_t dim_budget, uint64_t seed) {
  return [=] {
    return kge::MakeModelByName(model_name, num_entities, num_relations,
                                dim_budget, seed);
  };
}

std::vector<kge::ScoredEntity> Predict(const kge::KgeModel& model,
                                       const Query& query, int shards,
                                       bool prune) {
  kge::TopKOptions options;
  options.k = int(kTopK);
  options.num_shards = shards;
  options.prune = prune;
  return query.side == kge::QuerySide::kTail
             ? kge::PredictTails(model, query.entity, query.relation, options)
             : kge::PredictHeads(model, query.entity, query.relation, options);
}

bool SameResults(std::span<const kge::ScoredEntity> a,
                 std::span<const kge::ScoredEntity> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].entity != b[i].entity ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace kgebench
