// Adversarial robustness of the checkpoint loaders (streaming, training
// and mmap): truncation at every byte offset and bit flips through the
// header must produce a clean Status — never a crash, a hang, or an
// attempt to allocate from a corrupt length field.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "models/checkpoint.h"
#include "models/model_factory.h"
#include "optim/optimizer.h"
#include "serve/mmap_checkpoint.h"
#include "train/train_checkpoint.h"
#include "util/crc32c.h"
#include "util/io.h"
#include "util/thread_pool.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 8;
constexpr int32_t kRelations = 2;
constexpr int32_t kBudget = 8;

// Scratch files are named after the running test, so the tests of this
// suite can run concurrently (ctest -j) without sharing a file.
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" +
         testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + name;
}

std::string SaveModelBytes() {
  const std::string path = TempPath("corrupt_src_model.bin");
  auto model = MakeModelByName("distmult", kEntities, kRelations, kBudget, 1);
  EXPECT_TRUE(SaveModelCheckpoint(**model, path).ok());
  Result<std::string> bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok());
  std::remove(path.c_str());
  return *bytes;
}

std::string SaveTrainingBytes() {
  const std::string path = TempPath("corrupt_src_train.bin");
  auto model = MakeModelByName("distmult", kEntities, kRelations, kBudget, 1);
  auto optimizer = MakeOptimizer("adam", (*model)->Blocks(), 1e-3);
  EXPECT_TRUE(optimizer.ok());
  TrainingState state;
  state.trainer_kind = "negative_sampling";
  state.seed = 1234;
  state.epoch = 3;
  state.batch_counter = 99;
  state.loss_history = {0.9, 0.7, 0.5};
  state.epoch_seconds = {0.1, 0.1, 0.1};
  state.validation_history = {{2, 0.4}};
  state.best_epoch = 2;
  state.best_metric = 0.4;
  EXPECT_TRUE(
      SaveTrainingCheckpoint(**model, **optimizer, state, path).ok());
  Result<std::string> bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok());
  std::remove(path.c_str());
  return *bytes;
}

// Writes `bytes` to a scratch file and runs every loader against it;
// all must return (cleanly) with a non-ok Status.
void ExpectAllLoadersReject(const std::string& bytes,
                            const std::string& label) {
  const std::string path = TempPath("corrupt_probe.bin");
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
  EXPECT_FALSE(VerifyCheckpoint(path).ok()) << label;

  auto model = MakeModelByName("distmult", kEntities, kRelations, kBudget, 9);
  EXPECT_FALSE(LoadModelCheckpoint(model->get(), path).ok()) << label;

  auto optimizer = MakeOptimizer("adam", (*model)->Blocks(), 1e-3);
  ASSERT_TRUE(optimizer.ok());
  TrainingState state;
  EXPECT_FALSE(
      LoadTrainingCheckpoint(model->get(), optimizer->get(), &state, path)
          .ok())
      << label;

  // The serving loader, into an uninitialized model as kge_serve builds
  // it. Open itself rejects an empty file.
  auto serving = MakeModelByName("distmult", kEntities, kRelations, kBudget,
                                 std::nullopt);
  Result<std::unique_ptr<MappedCheckpoint>> mapping =
      MappedCheckpoint::Open(path);
  if (mapping.ok()) {
    EXPECT_FALSE((*mapping)->LoadInto(serving->get()).ok()) << label;
  }
  std::remove(path.c_str());
}

TEST(CheckpointCorruptionTest, TruncationAtEveryByteFailsCleanly) {
  const std::string bytes = SaveModelBytes();
  ASSERT_GT(bytes.size(), 8u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    ExpectAllLoadersReject(bytes.substr(0, len),
                           "model ckpt truncated to " + std::to_string(len));
  }
}

TEST(CheckpointCorruptionTest, TrainingCheckpointTruncationFailsCleanly) {
  const std::string bytes = SaveTrainingBytes();
  ASSERT_GT(bytes.size(), 8u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    ExpectAllLoadersReject(bytes.substr(0, len),
                           "train ckpt truncated to " + std::to_string(len));
  }
}

TEST(CheckpointCorruptionTest, BitFlipsThroughHeaderFailCleanly) {
  // Every bit of the header region (magic, version, kind, model name and
  // block-count/shape prefixes) individually flipped. Whatever the parse
  // path — wrong magic, absurd length, shape mismatch, or the final CRC
  // check — the result must be a clean error.
  const std::string bytes = SaveTrainingBytes();
  const size_t header_span = std::min<size_t>(bytes.size(), 64);
  for (size_t byte = 0; byte < header_span; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = bytes;
      corrupted[byte] = char(corrupted[byte] ^ char(1 << bit));
      ExpectAllLoadersReject(corrupted, "flip byte " + std::to_string(byte) +
                                            " bit " + std::to_string(bit));
    }
  }
}

TEST(CheckpointCorruptionTest, BitFlipsSampledThroughBodyFailCleanly) {
  const std::string bytes = SaveModelBytes();
  // Stride through the body so the sweep covers payload and the trailing
  // CRC itself without taking quadratic time on bigger models.
  for (size_t byte = 0; byte < bytes.size(); byte += 7) {
    std::string corrupted = bytes;
    corrupted[byte] = char(corrupted[byte] ^ 0x40);
    ExpectAllLoadersReject(corrupted, "flip byte " + std::to_string(byte));
  }
  // The last four bytes are the stored CRC; corrupt each explicitly.
  for (size_t i = bytes.size() - 4; i < bytes.size(); ++i) {
    std::string corrupted = bytes;
    corrupted[i] = char(corrupted[i] ^ 0x01);
    ExpectAllLoadersReject(corrupted, "flip crc byte " + std::to_string(i));
  }
}

TEST(CheckpointCorruptionTest, TrailingGarbageIsRejected) {
  const std::string bytes = SaveModelBytes();
  ExpectAllLoadersReject(bytes + std::string(16, '\0'), "trailing zeros");
  ExpectAllLoadersReject(bytes + bytes, "doubled file");
}

TEST(CheckpointCorruptionTest, BitFlipDeepInAMultiMegabytePayloadIsRejected) {
  // A 6 MB entity table, so the checksum runs its widest interleaved
  // steps, and one bit flipped in its middle.
  const std::string path = TempPath("large.kge2");
  auto model = MakeModelByName("distmult", 24000, kRelations, 64, 3);
  ASSERT_TRUE(SaveModelCheckpoint(**model, path).ok());
  ASSERT_TRUE(VerifyCheckpoint(path).ok());
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_GT(bytes->size(), size_t(6'000'000));
  std::string corrupted = *bytes;
  const size_t middle = corrupted.size() / 2;
  corrupted[middle] = char(corrupted[middle] ^ 0x08);
  ASSERT_TRUE(WriteStringToFile(path, corrupted).ok());

  EXPECT_EQ(VerifyCheckpoint(path).code(), StatusCode::kIoError);
  auto streamed = MakeModelByName("distmult", 24000, kRelations, 64, 3);
  EXPECT_EQ(LoadModelCheckpoint(streamed->get(), path).code(),
            StatusCode::kIoError);
  auto mapped =
      MakeModelByName("distmult", 24000, kRelations, 64, std::nullopt);
  Result<std::unique_ptr<MappedCheckpoint>> mapping =
      MappedCheckpoint::Open(path);
  ASSERT_TRUE(mapping.ok());
  EXPECT_EQ((*mapping)->LoadInto(mapped->get()).code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

// The pooled checksum (a 4-thread pool, one chunk per
// kCrc32cChunkBytes) rejects a flipped byte in the first, a middle and
// the last chunk and in the stored CRC, before any header field is
// read; the intact file loads.
TEST(CheckpointCorruptionTest, PooledLoadRejectsAFlippedByteInEveryChunk) {
  const std::string path = TempPath("pooled.kge2");
  auto model = MakeModelByName("distmult", 24000, kRelations, 64, 3);
  ASSERT_TRUE(SaveModelCheckpoint(**model, path).ok());
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  const size_t size = bytes->size();
  ASSERT_GT(size, 5 * kCrc32cChunkBytes);
  ThreadPool pool(4);
  const auto load = [&](const std::string& label) {
    auto mapped =
        MakeModelByName("distmult", 24000, kRelations, 64, std::nullopt);
    Result<std::unique_ptr<MappedCheckpoint>> mapping =
        MappedCheckpoint::Open(path);
    EXPECT_TRUE(mapping.ok()) << label;
    return mapping.ok() ? (*mapping)->LoadInto(mapped->get(), &pool)
                        : mapping.status();
  };
  EXPECT_TRUE(load("intact").ok());
  for (const size_t offset :
       {size_t(3), kCrc32cChunkBytes / 2, 2 * kCrc32cChunkBytes + 4097,
        size - sizeof(uint32_t) - 9, size - 2}) {
    const std::string label = "flip at " + std::to_string(offset);
    std::string corrupted = *bytes;
    corrupted[offset] = char(corrupted[offset] ^ 0x10);
    ASSERT_TRUE(WriteStringToFile(path, corrupted).ok());
    const Status status = load(label);
    EXPECT_EQ(status.code(), StatusCode::kIoError) << label;
    EXPECT_NE(status.message().find("CRC mismatch"), std::string::npos)
        << label << ": " << status.ToString();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kge
