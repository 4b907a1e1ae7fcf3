#include "models/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <vector>

#include "models/er_mlp.h"
#include "models/learned_weight_model.h"
#include "models/model_factory.h"
#include "optim/optimizer.h"
#include "serve/mmap_checkpoint.h"
#include "train/train_checkpoint.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/io.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 12;
constexpr int32_t kRelations = 3;
constexpr int32_t kBudget = 24;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// A fixed triple set touching every entity and relation.
std::vector<Triple> ProbeTriples() {
  std::vector<Triple> triples;
  for (EntityId h = 0; h < kEntities; ++h) {
    triples.push_back({h, EntityId((h * 7 + 3) % kEntities),
                       RelationId(h % kRelations)});
  }
  return triples;
}

void ExpectSameScores(const KgeModel& want, const KgeModel& got,
                      const std::string& label) {
  for (const Triple& triple : ProbeTriples()) {
    EXPECT_EQ(got.Score(triple), want.Score(triple))
        << label << " (" << triple.head << ", " << triple.relation << ", "
        << triple.tail << ")";
  }
}

void ExpectSameBlocks(const KgeModel& want, const KgeModel& got,
                      const std::string& label) {
  const auto want_blocks = want.Blocks();
  const auto got_blocks = got.Blocks();
  ASSERT_EQ(want_blocks.size(), got_blocks.size()) << label;
  for (size_t b = 0; b < want_blocks.size(); ++b) {
    const std::span<const float> w = want_blocks[b]->Flat();
    const std::span<const float> g = got_blocks[b]->Flat();
    ASSERT_EQ(w.size(), g.size()) << label << " block " << b;
    EXPECT_EQ(std::memcmp(w.data(), g.data(), w.size_bytes()), 0)
        << label << " block " << b;
  }
}

// Writes `model` in the unpadded v2 layout, byte for byte what
// SaveModelCheckpoint produced before format v3.
void WriteV2Checkpoint(const KgeModel& model, const std::string& path) {
  BinaryWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.WriteUint32(kCheckpointMagicV2).ok());
  ASSERT_TRUE(writer.WriteUint32(2).ok());
  ASSERT_TRUE(
      writer.WriteUint32(uint32_t(CheckpointKind::kModelOnly)).ok());
  ASSERT_TRUE(writer.WriteString(model.name()).ok());
  const auto blocks = model.Blocks();
  ASSERT_TRUE(writer.WriteUint32(uint32_t(blocks.size())).ok());
  for (const ParameterBlock* block : blocks) {
    ASSERT_TRUE(writer.WriteString(block->name()).ok());
    ASSERT_TRUE(writer.WriteUint64(uint64_t(block->num_rows())).ok());
    ASSERT_TRUE(writer.WriteUint64(uint64_t(block->row_dim())).ok());
    ASSERT_TRUE(
        writer.WriteFloatArray(block->Flat().data(), block->Flat().size())
            .ok());
  }
  const uint32_t crc = writer.crc();
  ASSERT_TRUE(writer.WriteUint32(crc).ok());
  ASSERT_TRUE(writer.Close().ok());
}

// File offsets of the v3 model section's padding runs, one {first byte,
// length} pair per block with a nonempty run.
std::vector<std::pair<size_t, size_t>> PaddingRuns(const std::string& bytes) {
  size_t pos = 12;  // magic, version, kind
  // Reads the u64 at `pos` and moves past it.
  auto read_u64 = [&bytes, &pos] {
    uint64_t value = 0;
    std::memcpy(&value, bytes.data() + pos, sizeof(value));
    pos += sizeof(value);
    return size_t(value);
  };
  const size_t model_name_length = read_u64();
  pos += model_name_length;
  uint32_t block_count = 0;
  std::memcpy(&block_count, bytes.data() + pos, sizeof(block_count));
  pos += sizeof(block_count);
  std::vector<std::pair<size_t, size_t>> runs;
  for (uint32_t b = 0; b < block_count; ++b) {
    const size_t block_name_length = read_u64();
    pos += block_name_length + 2 * sizeof(uint64_t);  // name, rows, dim
    const size_t count = read_u64();
    const size_t pad = AlignmentPadding(pos, kCheckpointPayloadAlignment);
    if (pad > 0) runs.emplace_back(pos, pad);
    pos += pad + count * sizeof(float);
  }
  return runs;
}

TEST(CheckpointTest, RoundTripEveryRegisteredModel) {
  for (const std::string& name : KnownModelNames()) {
    const std::string path = TempPath("ckpt_" + name + ".bin");
    Result<std::unique_ptr<KgeModel>> trained =
        MakeModelByName(name, kEntities, kRelations, kBudget, /*seed=*/1);
    ASSERT_TRUE(trained.ok()) << name;
    ASSERT_TRUE(SaveModelCheckpoint(**trained, path).ok()) << name;

    Result<std::unique_ptr<KgeModel>> fresh =
        MakeModelByName(name, kEntities, kRelations, kBudget, /*seed=*/999);
    ASSERT_TRUE(fresh.ok()) << name;
    ASSERT_TRUE(LoadModelCheckpoint(fresh->get(), path).ok()) << name;

    for (EntityId h = 0; h < 4; ++h) {
      const Triple triple{h, EntityId(h + 2), RelationId(h % kRelations)};
      EXPECT_EQ((*fresh)->Score(triple), (*trained)->Score(triple)) << name;
    }
    std::remove(path.c_str());
  }
}

TEST(CheckpointTest, PreservesLearnedOmega) {
  const std::string path = TempPath("ckpt_omega.bin");
  LearnedWeightOptions options;
  LearnedWeightModel trained("m", kEntities, kRelations, 8, options, 1);
  // Perturb omega away from the uniform start.
  trained.Blocks()[LearnedWeightModel::kOmegaBlock]->Row(0)[3] = -2.5f;
  trained.RefreshWeights();
  ASSERT_TRUE(SaveModelCheckpoint(trained, path).ok());

  LearnedWeightModel loaded("m", kEntities, kRelations, 8, options, 7);
  ASSERT_TRUE(LoadModelCheckpoint(&loaded, path).ok());
  loaded.RefreshWeights();
  EXPECT_EQ(loaded.CurrentOmega()[3], -2.5f);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsWrongModelName) {
  const std::string path = TempPath("ckpt_name.bin");
  auto complex = MakeModelByName("complex", kEntities, kRelations, kBudget, 1);
  ASSERT_TRUE(SaveModelCheckpoint(**complex, path).ok());
  auto distmult =
      MakeModelByName("distmult", kEntities, kRelations, kBudget, 1);
  EXPECT_FALSE(LoadModelCheckpoint(distmult->get(), path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsShapeMismatch) {
  const std::string path = TempPath("ckpt_shape.bin");
  auto small = MakeModelByName("complex", kEntities, kRelations, kBudget, 1);
  ASSERT_TRUE(SaveModelCheckpoint(**small, path).ok());
  auto large =
      MakeModelByName("complex", kEntities, kRelations, 2 * kBudget, 1);
  const Status status = LoadModelCheckpoint(large->get(), path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsGarbageFile) {
  const std::string path = TempPath("ckpt_garbage.bin");
  ASSERT_TRUE(WriteStringToFile(path, "this is not a checkpoint").ok());
  auto model = MakeModelByName("complex", kEntities, kRelations, kBudget, 1);
  EXPECT_FALSE(LoadModelCheckpoint(model->get(), path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileFails) {
  auto model = MakeModelByName("complex", kEntities, kRelations, kBudget, 1);
  EXPECT_FALSE(
      LoadModelCheckpoint(model->get(), "/nonexistent/ckpt.bin").ok());
}

TEST(CheckpointTest, LoadsLegacyV1Format) {
  const std::string path = TempPath("ckpt_v1.bin");
  auto trained = MakeModelByName("complex", kEntities, kRelations, kBudget, 1);
  {
    // Hand-write the pre-CRC v1 layout: magic, name, blocks. This is
    // byte-for-byte what SaveModelCheckpoint produced before format v2.
    BinaryWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.WriteUint32(kCheckpointMagicV1).ok());
    ASSERT_TRUE(writer.WriteString((*trained)->name()).ok());
    const auto blocks = (*trained)->Blocks();
    ASSERT_TRUE(writer.WriteUint32(uint32_t(blocks.size())).ok());
    for (ParameterBlock* block : blocks) {
      ASSERT_TRUE(writer.WriteString(block->name()).ok());
      ASSERT_TRUE(writer.WriteUint64(uint64_t(block->num_rows())).ok());
      ASSERT_TRUE(writer.WriteUint64(uint64_t(block->row_dim())).ok());
      ASSERT_TRUE(
          writer.WriteFloatArray(block->Flat().data(), block->Flat().size())
              .ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  auto fresh = MakeModelByName("complex", kEntities, kRelations, kBudget, 9);
  ASSERT_TRUE(LoadModelCheckpoint(fresh->get(), path).ok());
  const Triple triple{0, 2, 1};
  EXPECT_EQ((*fresh)->Score(triple), (*trained)->Score(triple));
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadsV2FormatBitIdenticallyThroughBothLoaders) {
  for (const std::string name : {"distmult", "complex", "autoweight-tanh"}) {
    const std::string path = TempPath("ckpt_v2_" + name + ".kge2");
    auto saved = MakeModelByName(name, kEntities, kRelations, kBudget, 1);
    ASSERT_TRUE(saved.ok()) << name;
    WriteV2Checkpoint(**saved, path);
    ASSERT_TRUE(VerifyCheckpoint(path).ok()) << name;

    auto streamed = MakeModelByName(name, kEntities, kRelations, kBudget, 9);
    ASSERT_TRUE(LoadModelCheckpoint(streamed->get(), path).ok()) << name;
    ExpectSameBlocks(**saved, **streamed, name + " streamed");
    ExpectSameScores(**saved, **streamed, name + " streamed");

    auto mapped =
        MakeModelByName(name, kEntities, kRelations, kBudget, std::nullopt);
    Result<std::unique_ptr<MappedCheckpoint>> mapping =
        MappedCheckpoint::Open(path);
    ASSERT_TRUE(mapping.ok()) << name;
    ASSERT_TRUE((*mapping)->LoadInto(mapped->get()).ok()) << name;
    ExpectSameBlocks(**saved, **mapped, name + " mapped");
    ExpectSameScores(**saved, **mapped, name + " mapped");
    EXPECT_EQ(size_t((*mapping)->borrowed_blocks() +
                     (*mapping)->copied_blocks()),
              (*mapped)->Blocks().size())
        << name;
    // DistMult's v2 entity payload starts at file offset 81, so the
    // mapped loader takes its copy fallback there.
    if (name == "distmult") {
      EXPECT_GE((*mapping)->copied_blocks(), 1);
    }
    std::remove(path.c_str());
  }
}

TEST(CheckpointTest, NonzeroPaddingIsRejectedByEveryLoader) {
  const std::string model_path = TempPath("ckpt_pad_model.kge2");
  const std::string train_path = TempPath("ckpt_pad_train.kge2");
  auto model = MakeModelByName("distmult", kEntities, kRelations, kBudget, 1);
  ASSERT_TRUE(SaveModelCheckpoint(**model, model_path).ok());
  auto optimizer = MakeOptimizer("adam", (*model)->Blocks(), 1e-3);
  ASSERT_TRUE(optimizer.ok());
  TrainingState state;
  state.trainer_kind = "negative_sampling";
  ASSERT_TRUE(
      SaveTrainingCheckpoint(**model, **optimizer, state, train_path).ok());

  for (const std::string& path : {model_path, train_path}) {
    Result<std::string> bytes = ReadFileToString(path);
    ASSERT_TRUE(bytes.ok());
    const auto runs = PaddingRuns(*bytes);
    ASSERT_FALSE(runs.empty()) << path;
    for (const auto& [first, length] : runs) {
      for (const size_t at : {first, first + length - 1}) {
        ASSERT_EQ((*bytes)[at], '\0') << path << " byte " << at;
        // One nonzero padding byte under a valid CRC: only the padding
        // check can reject it.
        std::string mutated = *bytes;
        mutated[at] = 0x01;
        const uint32_t crc = Crc32c(mutated.data(), mutated.size() - 4);
        std::memcpy(mutated.data() + mutated.size() - 4, &crc, sizeof(crc));
        const std::string probe = TempPath("ckpt_pad_probe.kge2");
        ASSERT_TRUE(WriteStringToFile(probe, mutated).ok());
        ASSERT_TRUE(VerifyCheckpoint(probe).ok());
        const std::string label = path + " byte " + std::to_string(at);

        auto streamed =
            MakeModelByName("distmult", kEntities, kRelations, kBudget, 9);
        EXPECT_EQ(LoadModelCheckpoint(streamed->get(), probe).code(),
                  StatusCode::kInvalidArgument)
            << label;
        if (path == train_path) {
          auto resumed = MakeOptimizer("adam", (*streamed)->Blocks(), 1e-3);
          TrainingState loaded_state;
          EXPECT_EQ(LoadTrainingCheckpoint(streamed->get(), resumed->get(),
                                           &loaded_state, probe)
                        .code(),
                    StatusCode::kInvalidArgument)
              << label;
        }
        auto mapped = MakeModelByName("distmult", kEntities, kRelations,
                                      kBudget, std::nullopt);
        Result<std::unique_ptr<MappedCheckpoint>> mapping =
            MappedCheckpoint::Open(probe);
        ASSERT_TRUE(mapping.ok());
        EXPECT_EQ((*mapping)->LoadInto(mapped->get()).code(),
                  StatusCode::kInvalidArgument)
            << label;
        std::remove(probe.c_str());
      }
    }
  }
  std::remove(model_path.c_str());
  std::remove(train_path.c_str());
}

// The serving snapshot path: a model built without initialization must,
// once loaded, score exactly like the seeded model the checkpoint was
// saved from — including state derived from its blocks (the learned-ω
// models' ω), which a loader that only fills Blocks() would leave stale.
TEST(CheckpointTest, UninitializedModelsLoadBitIdentically) {
  for (const std::string& name : KnownModelNames()) {
    const std::string path = TempPath("ckpt_noinit_" + name + ".kge2");
    auto saved = MakeModelByName(name, kEntities, kRelations, kBudget, 1);
    ASSERT_TRUE(saved.ok()) << name;
    ASSERT_TRUE(SaveModelCheckpoint(**saved, path).ok()) << name;

    auto streamed =
        MakeModelByName(name, kEntities, kRelations, kBudget, std::nullopt);
    ASSERT_TRUE(streamed.ok()) << name;
    for (const ParameterBlock* block : (*streamed)->Blocks()) {
      for (const float x : block->Flat()) {
        ASSERT_EQ(x, 0.0f) << name << " block " << block->name();
      }
    }
    ASSERT_TRUE(LoadModelCheckpoint(streamed->get(), path).ok()) << name;
    ExpectSameScores(**saved, **streamed, name + " streamed");

    auto mapped =
        MakeModelByName(name, kEntities, kRelations, kBudget, std::nullopt);
    Result<std::unique_ptr<MappedCheckpoint>> mapping =
        MappedCheckpoint::Open(path);
    ASSERT_TRUE(mapping.ok()) << name;
    ASSERT_TRUE((*mapping)->LoadInto(mapped->get()).ok()) << name;
    ExpectSameScores(**saved, **mapped, name + " mapped");
    std::remove(path.c_str());
  }
}

TEST(CheckpointTest, VerifyCheckpointAcceptsFreshSave) {
  const std::string path = TempPath("ckpt_verify.bin");
  auto model = MakeModelByName("distmult", kEntities, kRelations, kBudget, 1);
  ASSERT_TRUE(SaveModelCheckpoint(**model, path).ok());
  EXPECT_TRUE(VerifyCheckpoint(path).ok());
  // No leftover temp file from the atomic write.
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(CheckpointTest, DetectsSingleBitCorruption) {
  const std::string path = TempPath("ckpt_bitflip.bin");
  auto model = MakeModelByName("distmult", kEntities, kRelations, kBudget, 1);
  ASSERT_TRUE(SaveModelCheckpoint(**model, path).ok());
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = *bytes;
  corrupted[corrupted.size() / 2] =
      static_cast<char>(corrupted[corrupted.size() / 2] ^ 0x10);
  ASSERT_TRUE(WriteStringToFile(path, corrupted).ok());
  EXPECT_FALSE(VerifyCheckpoint(path).ok());
  auto fresh = MakeModelByName("distmult", kEntities, kRelations, kBudget, 9);
  EXPECT_FALSE(LoadModelCheckpoint(fresh->get(), path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, SaveFailureLeavesExistingCheckpointIntact) {
  const std::string path = TempPath("ckpt_keep_old.bin");
  auto old_model =
      MakeModelByName("distmult", kEntities, kRelations, kBudget, 1);
  ASSERT_TRUE(SaveModelCheckpoint(**old_model, path).ok());
  Result<std::string> before = ReadFileToString(path);
  ASSERT_TRUE(before.ok());

  // Injected error in BinaryWriter::Close must abort the save without
  // touching the committed file.
  ASSERT_TRUE(failpoint::Set("io.writer.close", "error").ok());
  auto new_model =
      MakeModelByName("distmult", kEntities, kRelations, kBudget, 2);
  const Status save_status = SaveModelCheckpoint(**new_model, path);
  failpoint::ClearAll();
  if (failpoint::Enabled()) {
    EXPECT_FALSE(save_status.ok());
    EXPECT_FALSE(FileExists(path + ".tmp"));
  } else {
    EXPECT_TRUE(save_status.ok());
  }
  Result<std::string> after = ReadFileToString(path);
  ASSERT_TRUE(after.ok());
  if (failpoint::Enabled()) {
    EXPECT_EQ(*before, *after);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kge
