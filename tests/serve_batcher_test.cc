// MicroBatcher behavior: batched serving answers must match the offline
// PredictTails/PredictHeads exactly; admission control sheds
// deterministically at the queue bound; deadlines expire queued work;
// pressure downshifts the scoring tier; shutdown drains every request.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eval/topk.h"
#include "math/simd.h"
#include "models/model_factory.h"
#include "serve/micro_batcher.h"
#include "serve/snapshot.h"
#include "util/thread_annotations.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 40;
constexpr int32_t kRelations = 4;
constexpr int32_t kBudget = 16;

std::shared_ptr<ModelSnapshot> MakeSnapshot(const std::string& model_name,
                                            uint64_t seed,
                                            int32_t entities = kEntities,
                                            bool prune = false) {
  auto model =
      MakeModelByName(model_name, entities, kRelations, kBudget, seed);
  EXPECT_TRUE(model.ok());
  (*model)->PrepareForScoring(ScorePrecision::kDouble);
  if (prune) (*model)->PrepareForPrunedScoring(ScorePrecision::kDouble);
  if ((*model)->SupportsScorePrecision(ScorePrecision::kInt8)) {
    (*model)->PrepareForScoring(ScorePrecision::kFloat32);
    (*model)->PrepareForScoring(ScorePrecision::kInt8);
  }
  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->model = std::move(*model);
  return snapshot;
}

// Blocking reply collector: one per in-flight request.
struct Waiter {
  Mutex mutex;
  CondVar cv;
  bool done KGE_GUARDED_BY(mutex) = false;
  ServeStatusCode status KGE_GUARDED_BY(mutex) = ServeStatusCode::kError;
  ScorePrecision tier KGE_GUARDED_BY(mutex) = ScorePrecision::kDouble;
  uint64_t snapshot_version KGE_GUARDED_BY(mutex) = 0;
  std::vector<ScoredEntity> results KGE_GUARDED_BY(mutex);

  static void OnReply(void* ctx, const ServeReply& reply) {
    auto* waiter = static_cast<Waiter*>(ctx);
    MutexLock lock(waiter->mutex);
    waiter->status = reply.status;
    waiter->tier = reply.tier;
    waiter->snapshot_version = reply.snapshot_version;
    waiter->results.assign(reply.results.begin(), reply.results.end());
    waiter->done = true;
    waiter->cv.NotifyAll();
  }

  void Await() {
    MutexLock lock(mutex);
    while (!done) cv.Wait(mutex);
  }
};

// CI machines can stall a queued request past the 50ms production
// default; tests that expect kOk use the maximum deadline instead.
BatcherOptions RelaxedOptions() {
  BatcherOptions options;
  options.default_deadline_ms = kServeMaxDeadlineMs;
  return options;
}

ServeRequest TailQuery(EntityId entity, RelationId relation, uint32_t k) {
  ServeRequest request;
  request.side = QuerySide::kTail;
  request.entity = entity;
  request.relation = relation;
  request.k = k;
  return request;
}

void ExpectMatchesOffline(const KgeModel& model, const ServeRequest& request,
                          Waiter* waiter, const std::string& label) {
  TopKOptions options;
  options.k = int(request.k);
  const std::vector<ScoredEntity> expected =
      request.side == QuerySide::kTail
          ? PredictTails(model, request.entity, request.relation, options)
          : PredictHeads(model, request.entity, request.relation, options);
  MutexLock lock(waiter->mutex);
  ASSERT_EQ(waiter->status, ServeStatusCode::kOk) << label;
  EXPECT_EQ(waiter->tier, ScorePrecision::kDouble) << label;
  EXPECT_EQ(waiter->snapshot_version, 1u) << label;
  ASSERT_EQ(waiter->results.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(waiter->results[i].entity, expected[i].entity) << label;
    EXPECT_EQ(waiter->results[i].score, expected[i].score) << label;
  }
}

// Every scan-lane count and prune setting answers exactly what the
// offline predictors do: one query at a time on both sides, and one
// same-group batch queued before Start with mixed k and an out-of-range
// entity.
TEST(MicroBatcherTest, MatchesOfflinePredictorsBothSides) {
  for (const int shards : {1, 4}) {
    for (const bool prune : {false, true}) {
      const std::string label = "shards=" + std::to_string(shards) +
                                " prune=" + std::to_string(prune);
      BatcherOptions options = RelaxedOptions();
      options.num_shards = shards;
      options.prune = prune;
      {
        SnapshotRegistry registry;
        registry.Publish(MakeSnapshot("distmult", 17, kEntities, prune));
        MicroBatcher batcher(&registry, options);
        batcher.Start();
        const auto snapshot = registry.Acquire();
        for (const QuerySide side : {QuerySide::kTail, QuerySide::kHead}) {
          for (EntityId entity = 0; entity < 5; ++entity) {
            ServeRequest request = TailQuery(entity, 2, 7);
            request.side = side;
            Waiter waiter;
            batcher.Submit(request, &Waiter::OnReply, &waiter);
            waiter.Await();
            ExpectMatchesOffline(*snapshot->model, request, &waiter, label);
          }
        }
        batcher.Stop();
      }

      // Enough entities for several tiles per lane.
      constexpr int32_t kBatchEntities = 5000;
      options.max_topk = 100;
      SnapshotRegistry registry;
      registry.Publish(MakeSnapshot("distmult", 23, kBatchEntities, prune));
      const auto snapshot = registry.Acquire();
      MicroBatcher batcher(&registry, options);  // not Started yet
      const QuerySide side = prune ? QuerySide::kHead : QuerySide::kTail;
      const uint32_t ks[] = {0, 1, 10, 64, 150};
      std::vector<ServeRequest> requests;
      for (size_t i = 0; i < std::size(ks); ++i) {
        requests.push_back(TailQuery(EntityId(7 * i), 3, ks[i]));
      }
      requests.push_back(TailQuery(kBatchEntities, 3, 10));
      std::vector<std::unique_ptr<Waiter>> waiters;
      for (ServeRequest& request : requests) {
        request.side = side;
        waiters.push_back(std::make_unique<Waiter>());
        batcher.Submit(request, &Waiter::OnReply, waiters.back().get());
      }
      batcher.Start();
      for (size_t i = 0; i < requests.size(); ++i) {
        waiters[i]->Await();
        if (requests[i].entity == kBatchEntities) {
          MutexLock lock(waiters[i]->mutex);
          EXPECT_EQ(waiters[i]->status, ServeStatusCode::kInvalid) << label;
          continue;
        }
        // Served k is the request's, clamped to max_topk.
        ServeRequest served = requests[i];
        served.k = std::min(served.k, options.max_topk);
        ExpectMatchesOffline(*snapshot->model, served, waiters[i].get(),
                             label);
      }
      const BatcherStatsView stats = batcher.stats();
      EXPECT_EQ(stats.batches, 1u) << label;
      EXPECT_EQ(stats.invalid, 1u) << label;
      const size_t tiles =
          simd::PrunedTileCount(kBatchEntities, snapshot->model->FoldWidth());
      EXPECT_GT(tiles, 2 * size_t(shards)) << label;
      EXPECT_EQ(stats.tiles_total, 5 * tiles) << label;
      batcher.Stop();
    }
  }
}

TEST(MicroBatcherTest, ClampsKAndAnswersEmptyForZeroK) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot("distmult", 3));
  BatcherOptions options = RelaxedOptions();
  options.max_topk = 5;
  MicroBatcher batcher(&registry, options);
  batcher.Start();

  Waiter big;
  batcher.Submit(TailQuery(1, 0, 5000), &Waiter::OnReply, &big);
  big.Await();
  {
    MutexLock lock(big.mutex);
    EXPECT_EQ(big.status, ServeStatusCode::kOk);
    EXPECT_EQ(big.results.size(), 5u);  // clamped to max_topk
  }

  Waiter zero;
  batcher.Submit(TailQuery(1, 0, 0), &Waiter::OnReply, &zero);
  zero.Await();
  MutexLock lock(zero.mutex);
  EXPECT_EQ(zero.status, ServeStatusCode::kOk);
  EXPECT_TRUE(zero.results.empty());
}

TEST(MicroBatcherTest, RejectsOutOfRangeEntityAndRelation) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot("distmult", 3));
  MicroBatcher batcher(&registry, RelaxedOptions());
  batcher.Start();

  for (const ServeRequest& request :
       {TailQuery(-1, 0, 3), TailQuery(kEntities, 0, 3),
        TailQuery(0, -1, 3), TailQuery(0, kRelations, 3)}) {
    Waiter waiter;
    batcher.Submit(request, &Waiter::OnReply, &waiter);
    waiter.Await();
    MutexLock lock(waiter.mutex);
    EXPECT_EQ(waiter.status, ServeStatusCode::kInvalid);
    EXPECT_TRUE(waiter.results.empty());
  }
  EXPECT_EQ(batcher.stats().invalid, 4u);
  batcher.Stop();
}

TEST(MicroBatcherTest, ErrorsWhenNoSnapshotPublished) {
  SnapshotRegistry registry;  // nothing published
  MicroBatcher batcher(&registry, RelaxedOptions());
  batcher.Start();
  Waiter waiter;
  batcher.Submit(TailQuery(0, 0, 3), &Waiter::OnReply, &waiter);
  waiter.Await();
  MutexLock lock(waiter.mutex);
  EXPECT_EQ(waiter.status, ServeStatusCode::kError);
}

// Queue bound: with workers not yet started, exactly max_queue requests
// are admitted and the rest shed inline — deterministically.
TEST(MicroBatcherTest, ShedsDeterministicallyBeyondMaxQueue) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot("distmult", 3));
  BatcherOptions options = RelaxedOptions();
  options.max_queue = 4;
  MicroBatcher batcher(&registry, options);  // not Started yet

  std::vector<std::unique_ptr<Waiter>> waiters;
  for (int i = 0; i < 7; ++i) {
    waiters.push_back(std::make_unique<Waiter>());
    batcher.Submit(TailQuery(EntityId(i % kEntities), 0, 2),
                   &Waiter::OnReply, waiters.back().get());
  }
  // The three overflow submissions completed inline with kShed.
  for (int i = 4; i < 7; ++i) {
    MutexLock lock(waiters[size_t(i)]->mutex);
    ASSERT_TRUE(waiters[size_t(i)]->done);
    EXPECT_EQ(waiters[size_t(i)]->status, ServeStatusCode::kShed);
  }
  EXPECT_EQ(batcher.stats().shed, 3u);
  EXPECT_EQ(batcher.stats().admitted, 4u);

  batcher.Start();
  for (int i = 0; i < 4; ++i) {
    waiters[size_t(i)]->Await();
    MutexLock lock(waiters[size_t(i)]->mutex);
    EXPECT_EQ(waiters[size_t(i)]->status, ServeStatusCode::kOk);
  }
  batcher.Stop();
}

TEST(MicroBatcherTest, ExpiresQueuedRequestsPastDeadline) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot("distmult", 3));
  MicroBatcher batcher(&registry, BatcherOptions{});  // not Started yet

  ServeRequest hurried = TailQuery(1, 0, 3);
  hurried.deadline_ms = 1;
  Waiter expired;
  batcher.Submit(hurried, &Waiter::OnReply, &expired);

  ServeRequest relaxed = TailQuery(1, 0, 3);
  relaxed.deadline_ms = kServeMaxDeadlineMs;
  Waiter served;
  batcher.Submit(relaxed, &Waiter::OnReply, &served);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  batcher.Start();
  expired.Await();
  served.Await();
  {
    MutexLock lock(expired.mutex);
    EXPECT_EQ(expired.status, ServeStatusCode::kDeadlineExceeded);
  }
  {
    MutexLock lock(served.mutex);
    EXPECT_EQ(served.status, ServeStatusCode::kOk);
  }
  EXPECT_EQ(batcher.stats().expired, 1u);
  batcher.Stop();
}

// Same-(relation, side) queries queued together dispatch as one batch.
TEST(MicroBatcherTest, CoalescesSameGroupIntoOneBatch) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot("distmult", 3));
  BatcherOptions options = RelaxedOptions();
  options.max_batch = 8;
  MicroBatcher batcher(&registry, options);  // not Started yet

  std::vector<std::unique_ptr<Waiter>> waiters;
  for (int i = 0; i < 5; ++i) {
    waiters.push_back(std::make_unique<Waiter>());
    batcher.Submit(TailQuery(EntityId(i), 1, 3), &Waiter::OnReply,
                   waiters.back().get());
  }
  batcher.Start();
  for (auto& waiter : waiters) {
    waiter->Await();
    MutexLock lock(waiter->mutex);
    EXPECT_EQ(waiter->status, ServeStatusCode::kOk);
  }
  const BatcherStatsView stats = batcher.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_queries, 5u);
  batcher.Stop();
}

// With both degradation thresholds at 0 and an int8 floor, every batch
// runs on the int8 replica and replies report the tier. With the
// default kDouble floor the same pressure changes nothing.
TEST(MicroBatcherTest, DegradesTierUnderConfiguredPressure) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot("distmult", 17));
  BatcherOptions options = RelaxedOptions();
  options.degrade_floor = ScorePrecision::kInt8;
  options.degrade_float32_pct = 0;
  options.degrade_int8_pct = 0;
  MicroBatcher batcher(&registry, options);
  batcher.Start();
  Waiter waiter;
  batcher.Submit(TailQuery(2, 1, 4), &Waiter::OnReply, &waiter);
  waiter.Await();
  {
    MutexLock lock(waiter.mutex);
    ASSERT_EQ(waiter.status, ServeStatusCode::kOk);
    EXPECT_EQ(waiter.tier, ScorePrecision::kInt8);
  }
  EXPECT_EQ(batcher.stats().batches_int8, 1u);
  batcher.Stop();

  BatcherOptions strict = RelaxedOptions();
  strict.degrade_floor = ScorePrecision::kDouble;
  strict.degrade_float32_pct = 0;
  strict.degrade_int8_pct = 0;
  MicroBatcher undegraded(&registry, strict);
  undegraded.Start();
  Waiter exact;
  undegraded.Submit(TailQuery(2, 1, 4), &Waiter::OnReply, &exact);
  exact.Await();
  MutexLock lock(exact.mutex);
  ASSERT_EQ(exact.status, ServeStatusCode::kOk);
  EXPECT_EQ(exact.tier, ScorePrecision::kDouble);
}

// A model without int8 support falls back to exact scoring even when
// the ladder is armed.
TEST(MicroBatcherTest, FallsBackToDoubleWhenTierUnsupported) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot("transe-l2", 5));
  BatcherOptions options = RelaxedOptions();
  options.degrade_floor = ScorePrecision::kInt8;
  options.degrade_float32_pct = 0;
  options.degrade_int8_pct = 0;
  MicroBatcher batcher(&registry, options);
  batcher.Start();
  Waiter waiter;
  batcher.Submit(TailQuery(2, 1, 4), &Waiter::OnReply, &waiter);
  waiter.Await();
  MutexLock lock(waiter.mutex);
  ASSERT_EQ(waiter.status, ServeStatusCode::kOk);
  EXPECT_EQ(waiter.tier, ScorePrecision::kDouble);
}

TEST(MicroBatcherTest, StopDrainsQueuedWithShuttingDown) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot("distmult", 3));
  MicroBatcher batcher(&registry, RelaxedOptions());  // never Started

  std::vector<std::unique_ptr<Waiter>> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.push_back(std::make_unique<Waiter>());
    batcher.Submit(TailQuery(EntityId(i), 0, 2), &Waiter::OnReply,
                   waiters.back().get());
  }
  batcher.Stop();
  for (auto& waiter : waiters) {
    MutexLock lock(waiter->mutex);
    ASSERT_TRUE(waiter->done);
    EXPECT_EQ(waiter->status, ServeStatusCode::kShuttingDown);
  }

  // After Stop, new submissions complete inline with kShuttingDown.
  Waiter late;
  batcher.Submit(TailQuery(0, 0, 2), &Waiter::OnReply, &late);
  MutexLock lock(late.mutex);
  ASSERT_TRUE(late.done);
  EXPECT_EQ(late.status, ServeStatusCode::kShuttingDown);
}

}  // namespace
}  // namespace kge
