// Hot-swap consistency: a storm of concurrent queries racing an
// RCU-style snapshot swap must each be answered entirely from exactly
// one snapshot — the results always match the snapshot_version the
// reply reports, and no reply mixes old and new embeddings, also when
// the swaps are adopted on the pool the queries' lanes run on. Run
// under TSan in CI.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eval/topk.h"
#include "models/checkpoint.h"
#include "models/model_factory.h"
#include "serve/micro_batcher.h"
#include "serve/snapshot.h"
#include "util/crc32c.h"
#include "util/io.h"
#include "util/thread_annotations.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 32;
constexpr int32_t kRelations = 2;
constexpr int32_t kBudget = 16;
constexpr int kTopK = 5;
constexpr int kClientThreads = 4;
constexpr int kQueriesPerClient = 50;

std::shared_ptr<ModelSnapshot> MakeSnapshot(uint64_t seed) {
  auto model = MakeModelByName("distmult", kEntities, kRelations, kBudget,
                               seed);
  EXPECT_TRUE(model.ok());
  (*model)->PrepareForScoring(ScorePrecision::kDouble);
  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->model = std::move(*model);
  return snapshot;
}

struct Waiter {
  Mutex mutex;
  CondVar cv;
  bool done KGE_GUARDED_BY(mutex) = false;
  ServeStatusCode status KGE_GUARDED_BY(mutex) = ServeStatusCode::kError;
  uint64_t snapshot_version KGE_GUARDED_BY(mutex) = 0;
  std::vector<ScoredEntity> results KGE_GUARDED_BY(mutex);

  static void OnReply(void* ctx, const ServeReply& reply) {
    auto* waiter = static_cast<Waiter*>(ctx);
    MutexLock lock(waiter->mutex);
    waiter->status = reply.status;
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

TEST(ServeHotSwapTest, StormAcrossSwapSeesExactlyOneSnapshotPerReply) {
  auto snapshot_a = MakeSnapshot(111);
  auto snapshot_b = MakeSnapshot(222);

  // Expected top-k per (entity, relation) for each snapshot, computed
  // offline before any concurrency starts.
  TopKOptions topk_options;
  topk_options.k = kTopK;
  std::vector<std::vector<ScoredEntity>> expected_a;
  std::vector<std::vector<ScoredEntity>> expected_b;
  for (EntityId entity = 0; entity < kEntities; ++entity) {
    expected_a.push_back(
        PredictTails(*snapshot_a->model, entity, 0, topk_options));
    expected_b.push_back(
        PredictTails(*snapshot_b->model, entity, 0, topk_options));
  }

  SnapshotRegistry registry;
  registry.Publish(snapshot_a);  // version 1

  BatcherOptions options;
  options.max_queue = 512;
  options.num_workers = 2;
  options.default_deadline_ms = kServeMaxDeadlineMs;
  MicroBatcher batcher(&registry, options);
  batcher.Start();

  std::atomic<int> mismatches{0};
  std::atomic<int> ok_replies{0};
  std::atomic<uint64_t> versions_seen{0};  // bitmask of versions

  std::vector<std::thread> clients;
  for (int c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        ServeRequest request;
        request.side = QuerySide::kTail;
        request.entity = EntityId((c * kQueriesPerClient + q) % kEntities);
        request.relation = 0;
        request.k = kTopK;
        Waiter waiter;
        batcher.Submit(request, &Waiter::OnReply, &waiter);
        waiter.Await();
        MutexLock lock(waiter.mutex);
        if (waiter.status != ServeStatusCode::kOk) {
          mismatches.fetch_add(1);
          continue;
        }
        ok_replies.fetch_add(1);
        versions_seen.fetch_or(1ull << waiter.snapshot_version);
        const std::vector<ScoredEntity>& expected =
            waiter.snapshot_version == 1
                ? expected_a[size_t(request.entity)]
                : expected_b[size_t(request.entity)];
        bool matches = waiter.results.size() == expected.size() &&
                       (waiter.snapshot_version == 1 ||
                        waiter.snapshot_version == 2);
        if (matches) {
          for (size_t i = 0; i < expected.size(); ++i) {
            if (waiter.results[i].entity != expected[i].entity ||
                waiter.results[i].score != expected[i].score) {
              matches = false;
              break;
            }
          }
        }
        if (!matches) mismatches.fetch_add(1);
      }
    });
  }

  // Swap mid-storm.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  registry.Publish(snapshot_b);  // version 2

  for (auto& client : clients) client.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(ok_replies.load(), kClientThreads * kQueriesPerClient);
  // Only real snapshot versions may ever appear in a reply.
  EXPECT_EQ(versions_seen.load() & ~uint64_t(0b110), 0u);

  // A query issued after the swap must be answered by the new snapshot.
  ServeRequest request;
  request.entity = 1;
  request.relation = 0;
  request.k = kTopK;
  Waiter post_swap;
  batcher.Submit(request, &Waiter::OnReply, &post_swap);
  post_swap.Await();
  {
    MutexLock lock(post_swap.mutex);
    ASSERT_EQ(post_swap.status, ServeStatusCode::kOk);
    EXPECT_EQ(post_swap.snapshot_version, 2u);
    ASSERT_EQ(post_swap.results.size(), expected_b[1].size());
    for (size_t i = 0; i < expected_b[1].size(); ++i) {
      EXPECT_EQ(post_swap.results[i].entity, expected_b[1][i].entity);
      EXPECT_EQ(post_swap.results[i].score, expected_b[1][i].score);
    }
  }
  batcher.Stop();
}

// Hot swaps adopted on the lanes' own pool while queries walk it: a
// CheckpointWatcher handed MicroBatcher::lane_pool() checksums each new
// checkpoint in chunks and builds its tile bounds across the pool that a
// 4-lane pruned batcher is scoring on. Every reply must be the exact
// top-k of the snapshot it reports, every publish must become visible,
// and a checkpoint with a flipped byte must be quarantined. Run under
// TSan in CI.
TEST(ServeHotSwapTest, PooledAdoptionRacesFourLanePrunedQueries) {
  constexpr int32_t kSwapEntities = 6000;  // two CRC chunks, 63 tiles
  constexpr int32_t kSwapBudget = 64;
  constexpr int kCheckpoints = 3;
  constexpr int kAnchors = 16;
  const std::string dir = testing::TempDir() + "/pooled_swap";
  ::mkdir(dir.c_str(), 0755);
  const auto path_of = [&](int i) {
    return dir + "/ckpt_" + std::to_string(i) + ".kge2";
  };
  const ModelFactory factory = [] {
    return MakeModelByName("distmult", kSwapEntities, kRelations, kSwapBudget,
                           std::nullopt);
  };
  // Exhaustive answers per checkpoint, from loads without a pool.
  TopKOptions exhaustive;
  exhaustive.k = kTopK;
  std::vector<std::vector<std::vector<ScoredEntity>>> expected(kCheckpoints);
  for (int i = 0; i < kCheckpoints; ++i) {
    auto model = MakeModelByName("distmult", kSwapEntities, kRelations,
                                 kSwapBudget, uint64_t(500 + i));
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE(SaveModelCheckpoint(**model, path_of(i + 1)).ok());
    Result<std::shared_ptr<ModelSnapshot>> loaded =
        LoadServingSnapshot(path_of(i + 1), factory,
                            {ScorePrecision::kDouble});
    ASSERT_TRUE(loaded.ok());
    for (EntityId anchor = 0; anchor < kAnchors; ++anchor) {
      expected[size_t(i)].push_back(
          PredictTails(*(*loaded)->model, anchor, 0, exhaustive));
    }
  }
  // A copy of the last checkpoint with one byte flipped in its second
  // CRC chunk.
  const std::string corrupt = dir + "/ckpt_9.kge2";
  std::remove((corrupt + ".quarantine").c_str());
  {
    Result<std::string> bytes = ReadFileToString(path_of(kCheckpoints));
    ASSERT_TRUE(bytes.ok());
    ASSERT_GT(bytes->size(), kCrc32cChunkBytes + 64);
    char& flipped = (*bytes)[kCrc32cChunkBytes + 64];
    flipped = char(flipped ^ 0x01);
    ASSERT_TRUE(WriteStringToFile(corrupt, *bytes).ok());
  }

  SnapshotRegistry registry;
  BatcherOptions options;
  options.max_queue = 512;
  options.num_workers = 2;
  options.num_shards = 4;
  options.prune = true;
  options.default_deadline_ms = kServeMaxDeadlineMs;
  MicroBatcher batcher(&registry, options);
  batcher.Start();
  ASSERT_NE(batcher.lane_pool(), nullptr);
  CheckpointWatcher::Options watcher_options;
  watcher_options.dir = dir;
  watcher_options.prepare_tiers = {ScorePrecision::kDouble};
  watcher_options.prepare_bounds = true;
  watcher_options.pool = batcher.lane_pool();
  CheckpointWatcher watcher(&registry, factory, watcher_options);
  ASSERT_TRUE(watcher.AdoptPath(path_of(1)).ok());  // version 1

  std::atomic<bool> swapping{true};
  std::atomic<int> mismatches{0};
  std::atomic<int> ok_replies{0};
  std::atomic<uint64_t> versions_seen{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient || swapping.load(); ++q) {
        ServeRequest request;
        request.side = QuerySide::kTail;
        request.entity = EntityId((c * 7 + q) % kAnchors);
        request.relation = 0;
        request.k = kTopK;
        Waiter waiter;
        batcher.Submit(request, &Waiter::OnReply, &waiter);
        waiter.Await();
        MutexLock lock(waiter.mutex);
        const uint64_t version = waiter.snapshot_version;
        if (waiter.status != ServeStatusCode::kOk || version < 1 ||
            version > uint64_t(kCheckpoints)) {
          mismatches.fetch_add(1);
          continue;
        }
        ok_replies.fetch_add(1);
        versions_seen.fetch_or(1ull << version);
        const std::vector<ScoredEntity>& expect =
            expected[size_t(version - 1)][size_t(request.entity)];
        bool matches = waiter.results.size() == expect.size();
        for (size_t i = 0; matches && i < expect.size(); ++i) {
          matches = waiter.results[i].entity == expect[i].entity &&
                    waiter.results[i].score == expect[i].score;
        }
        if (!matches) mismatches.fetch_add(1);
      }
    });
  }
  for (int i = 2; i <= kCheckpoints; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(WriteStringToFile(dir + "/LATEST",
                                  "ckpt_" + std::to_string(i) + ".kge2\n")
                    .ok());
    watcher.PollOnce();
    EXPECT_EQ(registry.current_version(), uint64_t(i));
  }
  ASSERT_TRUE(WriteStringToFile(dir + "/LATEST", "ckpt_9.kge2\n").ok());
  watcher.PollOnce();
  swapping.store(false);
  for (auto& client : clients) client.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(ok_replies.load(), kClientThreads * kQueriesPerClient);
  EXPECT_EQ(registry.current_version(), uint64_t(kCheckpoints));
  EXPECT_EQ(watcher.stats().swaps, uint64_t(kCheckpoints));
  EXPECT_EQ(watcher.stats().quarantines, 1u);
  EXPECT_TRUE(FileExists(corrupt + ".quarantine"));
  EXPECT_EQ(versions_seen.load() & ~uint64_t(0b1110), 0u);
  batcher.Stop();
  for (int i = 1; i <= kCheckpoints; ++i) std::remove(path_of(i).c_str());
  std::remove((corrupt + ".quarantine").c_str());
  std::remove((dir + "/LATEST").c_str());
}

// The registry's RCU property in isolation: a reader that acquired the
// old snapshot can keep scoring on it after the swap; its data is
// untouched until the reference drops.
TEST(ServeHotSwapTest, InFlightReaderSurvivesSwap) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(7));
  const auto held = registry.Acquire();
  const std::vector<ScoredEntity> before =
      PredictTails(*held->model, 3, 0, TopKOptions{});

  registry.Publish(MakeSnapshot(8));
  const std::vector<ScoredEntity> after =
      PredictTails(*held->model, 3, 0, TopKOptions{});
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].entity, after[i].entity);
    EXPECT_EQ(before[i].score, after[i].score);
  }
  EXPECT_EQ(registry.Acquire()->version, 2u);
}

}  // namespace
}  // namespace kge
