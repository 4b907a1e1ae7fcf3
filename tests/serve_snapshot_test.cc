// Serving snapshot lifecycle: the mmap checkpoint loader must agree
// bit-for-bit with the streaming loader, reject corruption, and the
// watcher must hot-swap good checkpoints and quarantine bad ones while
// the registry keeps serving the last good snapshot.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "eval/topk.h"
#include "models/checkpoint.h"
#include "models/model_factory.h"
#include "optim/optimizer.h"
#include "serve/mmap_checkpoint.h"
#include "serve/snapshot.h"
#include "train/train_checkpoint.h"
#include "util/io.h"
#include "util/thread_pool.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 12;
constexpr int32_t kRelations = 3;
constexpr int32_t kBudget = 8;

std::string TempDirFor(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  // TempDir persists across runs; scrub every file this suite creates.
  std::remove((dir + "/LATEST").c_str());
  for (int i = 0; i <= 10; ++i) {
    const std::string base = dir + "/ckpt_" + std::to_string(i) + ".kge2";
    std::remove(base.c_str());
    std::remove((base + ".quarantine").c_str());
  }
  return dir;
}

Result<std::unique_ptr<KgeModel>> MakeFreshModel(uint64_t seed) {
  return MakeModelByName("distmult", kEntities, kRelations, kBudget, seed);
}

ModelFactory FactoryWithSeed(uint64_t seed) {
  return [seed] { return MakeFreshModel(seed); };
}

std::string SaveCheckpointWithSeed(const std::string& path, uint64_t seed) {
  auto model = MakeFreshModel(seed);
  EXPECT_TRUE(model.ok());
  EXPECT_TRUE(SaveModelCheckpoint(**model, path).ok());
  return path;
}

void ExpectModelsEqual(const KgeModel& a, const KgeModel& b) {
  const auto blocks_a = a.Blocks();
  const auto blocks_b = b.Blocks();
  ASSERT_EQ(blocks_a.size(), blocks_b.size());
  for (size_t i = 0; i < blocks_a.size(); ++i) {
    const std::span<const float> flat_a = blocks_a[i]->Flat();
    const std::span<const float> flat_b = blocks_b[i]->Flat();
    ASSERT_EQ(flat_a.size(), flat_b.size());
    for (size_t j = 0; j < flat_a.size(); ++j) {
      ASSERT_EQ(flat_a[j], flat_b[j])
          << "block " << i << " element " << j;
    }
  }
}

TEST(MappedCheckpointTest, MatchesStreamingLoaderBitForBit) {
  const std::string path =
      SaveCheckpointWithSeed(testing::TempDir() + "/mmap_eq.kge2", 7);

  auto streamed = MakeFreshModel(99);
  ASSERT_TRUE(LoadModelCheckpoint(streamed->get(), path).ok());

  auto mapped_model = MakeFreshModel(99);
  Result<std::unique_ptr<MappedCheckpoint>> mapping =
      MappedCheckpoint::Open(path);
  ASSERT_TRUE(mapping.ok());
  ASSERT_TRUE((*mapping)->LoadInto(mapped_model->get()).ok());

  ExpectModelsEqual(**streamed, **mapped_model);
  const int total = (*mapping)->borrowed_blocks() + (*mapping)->copied_blocks();
  EXPECT_EQ(size_t(total), (*mapped_model)->Blocks().size());
  std::remove(path.c_str());
}

// Format v3 pads every payload to a 64-byte file offset, so the mapped
// loader borrows every block of every model and copies none.
TEST(MappedCheckpointTest, BorrowsEveryBlockOfEveryModel) {
  for (const std::string& name : KnownModelNames()) {
    const std::string path = testing::TempDir() + "/mmap_borrow.kge2";
    auto saved = MakeModelByName(name, kEntities, kRelations, 24, 1);
    ASSERT_TRUE(saved.ok()) << name;
    ASSERT_TRUE(SaveModelCheckpoint(**saved, path).ok()) << name;
    auto serving =
        MakeModelByName(name, kEntities, kRelations, 24, std::nullopt);
    Result<std::unique_ptr<MappedCheckpoint>> mapping =
        MappedCheckpoint::Open(path);
    ASSERT_TRUE(mapping.ok()) << name;
    ASSERT_TRUE((*mapping)->LoadInto(serving->get()).ok()) << name;
    const auto blocks = (*serving)->Blocks();
    EXPECT_EQ(size_t((*mapping)->borrowed_blocks()), blocks.size()) << name;
    EXPECT_EQ((*mapping)->copied_blocks(), 0) << name;
    for (const ParameterBlock* block : blocks) {
      EXPECT_TRUE(block->borrows_storage()) << name << " " << block->name();
      EXPECT_EQ(reinterpret_cast<uintptr_t>(block->Flat().data()) %
                    kCheckpointPayloadAlignment,
                0u)
          << name << " " << block->name();
    }
    ExpectModelsEqual(**saved, **serving);
    std::remove(path.c_str());
  }
}

TEST(MappedCheckpointTest, LoadsTrainingStateCheckpoints) {
  const std::string path = testing::TempDir() + "/mmap_train.kge2";
  auto model = MakeFreshModel(3);
  auto optimizer = MakeOptimizer("adam", (*model)->Blocks(), 1e-3);
  ASSERT_TRUE(optimizer.ok());
  TrainingState state;
  state.trainer_kind = "negative_sampling";
  state.seed = 11;
  state.epoch = 2;
  ASSERT_TRUE(SaveTrainingCheckpoint(**model, **optimizer, state, path).ok());

  auto serving = MakeFreshModel(55);
  Result<std::unique_ptr<MappedCheckpoint>> mapping =
      MappedCheckpoint::Open(path);
  ASSERT_TRUE(mapping.ok());
  ASSERT_TRUE((*mapping)->LoadInto(serving->get()).ok());
  ExpectModelsEqual(**model, **serving);
  std::remove(path.c_str());
}

TEST(MappedCheckpointTest, RejectsCorruptionAnywhere) {
  const std::string path =
      SaveCheckpointWithSeed(testing::TempDir() + "/mmap_corrupt.kge2", 5);
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());

  // Flip one byte at a spread of offsets (header, name, payload, CRC).
  for (const size_t offset :
       {size_t(0), size_t(5), size_t(13), bytes->size() / 2,
        bytes->size() - 2}) {
    std::string mutated = *bytes;
    mutated[offset] = char(mutated[offset] ^ 0x20);
    const std::string probe = testing::TempDir() + "/mmap_probe.kge2";
    ASSERT_TRUE(WriteStringToFile(probe, mutated).ok());
    auto model = MakeFreshModel(1);
    Result<std::unique_ptr<MappedCheckpoint>> mapping =
        MappedCheckpoint::Open(probe);
    ASSERT_TRUE(mapping.ok());
    EXPECT_FALSE((*mapping)->LoadInto(model->get()).ok())
        << "accepted corruption at offset " << offset;
    std::remove(probe.c_str());
  }

  // Truncations, including an empty file (Open itself must reject it).
  for (const size_t keep : {size_t(0), size_t(3), size_t(20),
                            bytes->size() - 1}) {
    const std::string probe = testing::TempDir() + "/mmap_trunc.kge2";
    ASSERT_TRUE(WriteStringToFile(probe, bytes->substr(0, keep)).ok());
    auto model = MakeFreshModel(1);
    Result<std::unique_ptr<MappedCheckpoint>> mapping =
        MappedCheckpoint::Open(probe);
    if (mapping.ok()) {
      EXPECT_FALSE((*mapping)->LoadInto(model->get()).ok())
          << "accepted truncation to " << keep;
    }
    std::remove(probe.c_str());
  }
  std::remove(path.c_str());
}

TEST(MappedCheckpointTest, RejectsWrongModelAndShape) {
  const std::string path =
      SaveCheckpointWithSeed(testing::TempDir() + "/mmap_shape.kge2", 5);
  auto other = MakeModelByName("complex", kEntities, kRelations, kBudget, 5);
  Result<std::unique_ptr<MappedCheckpoint>> mapping =
      MappedCheckpoint::Open(path);
  ASSERT_TRUE(mapping.ok());
  EXPECT_FALSE((*mapping)->LoadInto(other->get()).ok());

  auto bigger = MakeModelByName("distmult", kEntities * 2, kRelations,
                                kBudget, 5);
  Result<std::unique_ptr<MappedCheckpoint>> mapping2 =
      MappedCheckpoint::Open(path);
  ASSERT_TRUE(mapping2.ok());
  EXPECT_FALSE((*mapping2)->LoadInto(bigger->get()).ok());
  std::remove(path.c_str());
}

TEST(ParameterBlockTest, BorrowStorageRedirectsReadsAndWrites) {
  ParameterBlock block("b", 2, 3);
  std::vector<float> backing(6, 0.5f);
  block.BorrowStorage(backing.data(), int64_t(backing.size()));
  EXPECT_TRUE(block.borrows_storage());
  EXPECT_EQ(block.Flat().data(), backing.data());
  block.Row(1)[2] = 9.0f;
  EXPECT_EQ(backing[5], 9.0f);
  const uint64_t before = block.generation();
  block.Zero();
  EXPECT_EQ(backing[0], 0.0f);
  EXPECT_GT(block.generation(), before);
}

TEST(SnapshotRegistryTest, PublishStampsMonotoneVersions) {
  SnapshotRegistry registry;
  EXPECT_EQ(registry.Acquire(), nullptr);
  EXPECT_EQ(registry.current_version(), 0u);

  auto first = std::make_shared<ModelSnapshot>();
  registry.Publish(first);
  const auto acquired_first = registry.Acquire();
  ASSERT_NE(acquired_first, nullptr);
  EXPECT_EQ(acquired_first->version, 1u);

  auto second = std::make_shared<ModelSnapshot>();
  registry.Publish(second);
  EXPECT_EQ(registry.current_version(), 2u);
  // The old acquisition stays valid and unchanged (RCU property).
  EXPECT_EQ(acquired_first->version, 1u);
  EXPECT_EQ(registry.Acquire()->version, 2u);
}

TEST(LoadServingSnapshotTest, BuildsScoringReadySnapshot) {
  const std::string path =
      SaveCheckpointWithSeed(testing::TempDir() + "/snap_build.kge2", 21);
  Result<std::shared_ptr<ModelSnapshot>> snapshot = LoadServingSnapshot(
      path, FactoryWithSeed(0),
      {ScorePrecision::kDouble, ScorePrecision::kFloat32});
  ASSERT_TRUE(snapshot.ok());
  ASSERT_NE((*snapshot)->model, nullptr);
  EXPECT_EQ((*snapshot)->source_path, path);

  auto reference = MakeFreshModel(0);
  ASSERT_TRUE(LoadModelCheckpoint(reference->get(), path).ok());
  ExpectModelsEqual(**reference, *(*snapshot)->model);
  std::remove(path.c_str());
}

// A load on a 4-thread pool (the checksum in chunks, the int8 codes and
// every tier's tile bounds split on tile boundaries) serves the same
// top-k, pruned on four lanes, as a load without one — which is the
// exhaustive top-k.
TEST(LoadServingSnapshotTest, PooledLoadServesTheSameTopK) {
  constexpr int32_t kLargeEntities = 6000;
  constexpr int32_t kLargeBudget = 64;
  const std::string path = testing::TempDir() + "/snap_pooled.kge2";
  {
    auto model = MakeModelByName("distmult", kLargeEntities, kRelations,
                                 kLargeBudget, 31);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE(SaveModelCheckpoint(**model, path).ok());
  }
  const ModelFactory factory = [] {
    return MakeModelByName("distmult", kLargeEntities, kRelations,
                           kLargeBudget, std::nullopt);
  };
  const std::vector<ScorePrecision> tiers = {
      ScorePrecision::kDouble, ScorePrecision::kFloat32, ScorePrecision::kInt8};
  ThreadPool pool(4);
  Result<std::shared_ptr<ModelSnapshot>> inline_load =
      LoadServingSnapshot(path, factory, tiers, /*prepare_bounds=*/true);
  Result<std::shared_ptr<ModelSnapshot>> pooled_load = LoadServingSnapshot(
      path, factory, tiers, /*prepare_bounds=*/true, &pool);
  ASSERT_TRUE(inline_load.ok());
  ASSERT_TRUE(pooled_load.ok());
  ExpectModelsEqual(*(*inline_load)->model, *(*pooled_load)->model);

  TopKOptions pruned;
  pruned.k = 10;
  pruned.num_shards = 4;
  pruned.prune = true;
  TopKOptions exhaustive;
  exhaustive.k = 10;
  for (EntityId anchor = 0; anchor < kLargeEntities; anchor += 997) {
    for (RelationId relation = 0; relation < kRelations; ++relation) {
      const std::vector<ScoredEntity> expect =
          PredictTails(*(*inline_load)->model, anchor, relation, exhaustive);
      for (const auto& snapshot : {*inline_load, *pooled_load}) {
        const std::vector<ScoredEntity> got =
            PredictTails(*snapshot->model, anchor, relation, pruned);
        ASSERT_EQ(got.size(), expect.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].entity, expect[i].entity);
          EXPECT_EQ(got[i].score, expect[i].score);
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointWatcherTest, InitialLoadSwapAndQuarantine) {
  const std::string dir = TempDirFor("watcher_basic");
  SaveCheckpointWithSeed(dir + "/ckpt_1.kge2", 1);
  ASSERT_TRUE(WriteStringToFile(dir + "/LATEST", "ckpt_1.kge2\n").ok());

  SnapshotRegistry registry;
  CheckpointWatcher watcher(&registry, FactoryWithSeed(0),
                            {dir, 10, {ScorePrecision::kDouble}});
  ASSERT_TRUE(watcher.LoadInitial().ok());
  EXPECT_EQ(registry.current_version(), 1u);

  // New checkpoint appears: one poll swaps to it.
  SaveCheckpointWithSeed(dir + "/ckpt_2.kge2", 2);
  ASSERT_TRUE(WriteStringToFile(dir + "/LATEST", "ckpt_2.kge2\n").ok());
  watcher.PollOnce();
  EXPECT_EQ(registry.current_version(), 2u);
  EXPECT_EQ(registry.Acquire()->source_path, dir + "/ckpt_2.kge2");

  // Unchanged LATEST: polls are no-ops, no churn.
  watcher.PollOnce();
  EXPECT_EQ(registry.current_version(), 2u);

  // Corrupt checkpoint: quarantined, registry untouched.
  SaveCheckpointWithSeed(dir + "/ckpt_3.kge2", 3);
  {
    Result<std::string> bytes = ReadFileToString(dir + "/ckpt_3.kge2");
    ASSERT_TRUE(bytes.ok());
    std::string mutated = *bytes;
    mutated[mutated.size() / 2] =
        char(mutated[mutated.size() / 2] ^ 0x01);
    ASSERT_TRUE(WriteStringToFile(dir + "/ckpt_3.kge2", mutated).ok());
  }
  ASSERT_TRUE(WriteStringToFile(dir + "/LATEST", "ckpt_3.kge2\n").ok());
  watcher.PollOnce();
  EXPECT_EQ(registry.current_version(), 2u);
  EXPECT_TRUE(FileExists(dir + "/ckpt_3.kge2.quarantine"));
  EXPECT_FALSE(FileExists(dir + "/ckpt_3.kge2"));
  EXPECT_EQ(watcher.stats().quarantines, 1u);
  EXPECT_EQ(watcher.stats().swaps, 2u);

  // LATEST pointing at a missing file: ignored.
  ASSERT_TRUE(WriteStringToFile(dir + "/LATEST", "ckpt_9.kge2\n").ok());
  watcher.PollOnce();
  EXPECT_EQ(registry.current_version(), 2u);
}

// Overwrites `path` with its first half (a file torn mid-write).
void TruncateToHalf(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(WriteStringToFile(path, bytes->substr(0, bytes->size() / 2)).ok());
}

// Flips the bits of byte `offset` of `path`.
void FlipByte(const std::string& path, size_t offset) {
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = *bytes;
  mutated[offset] = char(mutated[offset] ^ 0xFF);
  ASSERT_TRUE(WriteStringToFile(path, mutated).ok());
}

TEST(CheckpointWatcherTest, InitialLoadFallsBackPastCorruptLatest) {
  for (const size_t threads : {size_t(1), size_t(4)}) {
    SCOPED_TRACE("pool threads=" + std::to_string(threads));
    const std::string dir = TempDirFor("watcher_fallback");
    SaveCheckpointWithSeed(dir + "/ckpt_1.kge2", 1);
    // The two newest checkpoints are corrupt (dying mid-write with
    // LATEST updated first, and a flipped bit): start-up must quarantine
    // the LATEST target, skip the other without quarantining it, and
    // resume from the older CRC-valid file.
    SaveCheckpointWithSeed(dir + "/ckpt_2.kge2", 2);
    FlipByte(dir + "/ckpt_2.kge2", 40);
    SaveCheckpointWithSeed(dir + "/ckpt_3.kge2", 3);
    TruncateToHalf(dir + "/ckpt_3.kge2");
    ASSERT_TRUE(WriteStringToFile(dir + "/LATEST", "ckpt_3.kge2\n").ok());

    ThreadPool pool(threads);
    CheckpointWatcher::Options options{dir, 10, {ScorePrecision::kDouble}};
    options.pool = threads > 1 ? &pool : nullptr;
    SnapshotRegistry registry;
    CheckpointWatcher watcher(&registry, FactoryWithSeed(0), options);
    ASSERT_TRUE(watcher.LoadInitial().ok());
    EXPECT_EQ(registry.current_version(), 1u);
    EXPECT_EQ(registry.Acquire()->source_path, dir + "/ckpt_1.kge2");
    EXPECT_TRUE(FileExists(dir + "/ckpt_3.kge2.quarantine"));
    EXPECT_TRUE(FileExists(dir + "/ckpt_2.kge2"));
    EXPECT_EQ(watcher.stats().failed_loads, 2u);
    EXPECT_EQ(watcher.stats().quarantines, 1u);
    EXPECT_EQ(watcher.stats().swaps, 1u);
  }
}

TEST(CheckpointWatcherTest, LoadInitialFailsCleanlyOnEmptyDir) {
  const std::string dir = TempDirFor("watcher_empty");
  SnapshotRegistry registry;
  CheckpointWatcher watcher(&registry, FactoryWithSeed(0),
                            {dir, 10, {ScorePrecision::kDouble}});
  EXPECT_FALSE(watcher.LoadInitial().ok());
  EXPECT_EQ(registry.current_version(), 0u);
}

TEST(CheckpointWatcherTest, LoadInitialFailsCleanlyWhenEveryCheckpointIsCorrupt) {
  const std::string dir = TempDirFor("watcher_all_corrupt");
  SaveCheckpointWithSeed(dir + "/ckpt_1.kge2", 1);
  TruncateToHalf(dir + "/ckpt_1.kge2");
  SaveCheckpointWithSeed(dir + "/ckpt_2.kge2", 2);
  FlipByte(dir + "/ckpt_2.kge2", 40);
  SnapshotRegistry registry;
  CheckpointWatcher watcher(&registry, FactoryWithSeed(0),
                            {dir, 10, {ScorePrecision::kDouble}});
  EXPECT_EQ(watcher.LoadInitial().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.current_version(), 0u);
  EXPECT_EQ(watcher.stats().failed_loads, 2u);
  EXPECT_EQ(watcher.stats().quarantines, 0u);
}

// Without a LATEST pointer start-up goes straight to the fallback, which
// orders candidates by epoch number (10 before 3, not by name) and takes
// the newest one that loads.
TEST(FindNewestValidCheckpointTest, SkipsCorruptNewest) {
  const std::string dir = TempDirFor("newest_valid");
  SaveCheckpointWithSeed(dir + "/ckpt_3.kge2", 3);
  SaveCheckpointWithSeed(dir + "/ckpt_10.kge2", 10);
  FlipByte(dir + "/ckpt_10.kge2", 4);
  SnapshotRegistry registry;
  CheckpointWatcher watcher(&registry, FactoryWithSeed(0),
                            {dir, 10, {ScorePrecision::kDouble}});
  ASSERT_TRUE(watcher.LoadInitial().ok());
  EXPECT_EQ(registry.Acquire()->source_path, dir + "/ckpt_3.kge2");
  EXPECT_EQ(watcher.stats().failed_loads, 1u);
}

}  // namespace
}  // namespace kge
