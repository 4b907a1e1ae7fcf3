#include "train/train_checkpoint.h"

#include <dirent.h>

#include <algorithm>
#include <cstdio>

#include "util/failpoint.h"
#include "util/string_utils.h"

namespace kge {
namespace {

// Training-state section layout (inside the checkpoint container, after
// the model section; all through the file CRC):
//   string trainer_kind
//   u64    seed
//   u64    last completed epoch
//   u64    batch counter
//   u64[4] rng state words, u32 has_cached_gaussian, f64 cached gaussian
//   u64 n, f64[n]          loss history
//   u64 n, f64[n]          epoch seconds
//   u64 n, (u64, f64)[n]   validation history
//   u64    best epoch + 1 (0 = none), f64 best metric
//   u64    divergence retries used
//   u64 b, float[][b]      best-parameter snapshot (0 blocks = none)
//   optimizer state (Optimizer::SaveState: name, lr, moments, steps)

Status WriteDoubleVector(const std::vector<double>& values,
                         BinaryWriter* writer) {
  KGE_RETURN_IF_ERROR(writer->WriteUint64(values.size()));
  for (double value : values) KGE_RETURN_IF_ERROR(writer->WriteDouble(value));
  return Status::Ok();
}

Status ReadDoubleVector(BinaryReader* reader, std::vector<double>* values) {
  Result<uint64_t> count = reader->ReadUint64();
  if (!count.ok()) return count.status();
  if (*count * sizeof(double) > reader->remaining())
    return Status::IoError("history length exceeds file size");
  values->clear();
  values->reserve(size_t(*count));
  for (uint64_t i = 0; i < *count; ++i) {
    Result<double> value = reader->ReadDouble();
    if (!value.ok()) return value.status();
    values->push_back(*value);
  }
  return Status::Ok();
}

Status WriteTrainingSection(const Optimizer& optimizer,
                            const TrainingState& state,
                            BinaryWriter* writer) {
  KGE_RETURN_IF_ERROR(writer->WriteString(state.trainer_kind));
  KGE_RETURN_IF_ERROR(writer->WriteUint64(state.seed));
  KGE_RETURN_IF_ERROR(writer->WriteUint64(uint64_t(state.epoch)));
  KGE_RETURN_IF_ERROR(writer->WriteUint64(state.batch_counter));
  for (uint64_t word : state.rng.s) {
    KGE_RETURN_IF_ERROR(writer->WriteUint64(word));
  }
  KGE_RETURN_IF_ERROR(
      writer->WriteUint32(state.rng.has_cached_gaussian ? 1u : 0u));
  KGE_RETURN_IF_ERROR(writer->WriteDouble(state.rng.cached_gaussian));
  KGE_RETURN_IF_ERROR(WriteDoubleVector(state.loss_history, writer));
  KGE_RETURN_IF_ERROR(WriteDoubleVector(state.epoch_seconds, writer));
  KGE_RETURN_IF_ERROR(writer->WriteUint64(state.validation_history.size()));
  for (const auto& [epoch, metric] : state.validation_history) {
    KGE_RETURN_IF_ERROR(writer->WriteUint64(uint64_t(epoch)));
    KGE_RETURN_IF_ERROR(writer->WriteDouble(metric));
  }
  KGE_RETURN_IF_ERROR(writer->WriteUint64(uint64_t(state.best_epoch + 1)));
  KGE_RETURN_IF_ERROR(writer->WriteDouble(state.best_metric));
  KGE_RETURN_IF_ERROR(
      writer->WriteUint64(uint64_t(state.divergence_retries_used)));
  KGE_RETURN_IF_ERROR(writer->WriteUint64(state.best_snapshot.size()));
  for (const std::vector<float>& block : state.best_snapshot) {
    KGE_RETURN_IF_ERROR(writer->WriteFloatArray(block.data(), block.size()));
  }
  return optimizer.SaveState(writer);
}

Status ReadTrainingSection(const KgeModel& model, Optimizer* optimizer,
                           TrainingState* state, BinaryReader* reader) {
  Result<std::string> kind = reader->ReadString();
  if (!kind.ok()) return kind.status();
  state->trainer_kind = *kind;
  Result<uint64_t> seed = reader->ReadUint64();
  if (!seed.ok()) return seed.status();
  state->seed = *seed;
  Result<uint64_t> epoch = reader->ReadUint64();
  if (!epoch.ok()) return epoch.status();
  state->epoch = int(*epoch);
  Result<uint64_t> batch_counter = reader->ReadUint64();
  if (!batch_counter.ok()) return batch_counter.status();
  state->batch_counter = *batch_counter;
  for (uint64_t& word : state->rng.s) {
    Result<uint64_t> value = reader->ReadUint64();
    if (!value.ok()) return value.status();
    word = *value;
  }
  Result<uint32_t> has_gaussian = reader->ReadUint32();
  if (!has_gaussian.ok()) return has_gaussian.status();
  state->rng.has_cached_gaussian = *has_gaussian != 0;
  Result<double> gaussian = reader->ReadDouble();
  if (!gaussian.ok()) return gaussian.status();
  state->rng.cached_gaussian = *gaussian;
  KGE_RETURN_IF_ERROR(ReadDoubleVector(reader, &state->loss_history));
  KGE_RETURN_IF_ERROR(ReadDoubleVector(reader, &state->epoch_seconds));
  Result<uint64_t> validations = reader->ReadUint64();
  if (!validations.ok()) return validations.status();
  if (*validations * (sizeof(uint64_t) + sizeof(double)) > reader->remaining())
    return Status::IoError("validation history exceeds file size");
  state->validation_history.clear();
  for (uint64_t i = 0; i < *validations; ++i) {
    Result<uint64_t> at_epoch = reader->ReadUint64();
    if (!at_epoch.ok()) return at_epoch.status();
    Result<double> metric = reader->ReadDouble();
    if (!metric.ok()) return metric.status();
    state->validation_history.emplace_back(int(*at_epoch), *metric);
  }
  Result<uint64_t> best_epoch = reader->ReadUint64();
  if (!best_epoch.ok()) return best_epoch.status();
  state->best_epoch = int(*best_epoch) - 1;
  Result<double> best_metric = reader->ReadDouble();
  if (!best_metric.ok()) return best_metric.status();
  state->best_metric = *best_metric;
  Result<uint64_t> retries = reader->ReadUint64();
  if (!retries.ok()) return retries.status();
  state->divergence_retries_used = int(*retries);
  Result<uint64_t> snapshot_blocks = reader->ReadUint64();
  if (!snapshot_blocks.ok()) return snapshot_blocks.status();
  const std::vector<const ParameterBlock*> blocks = model.Blocks();
  if (*snapshot_blocks != 0 && *snapshot_blocks != blocks.size()) {
    return Status::InvalidArgument(
        "best-snapshot block count does not match model");
  }
  state->best_snapshot.clear();
  for (uint64_t b = 0; b < *snapshot_blocks; ++b) {
    std::vector<float> block(size_t(blocks[size_t(b)]->size()));
    KGE_RETURN_IF_ERROR(reader->ReadFloatArray(block.data(), block.size()));
    state->best_snapshot.push_back(std::move(block));
  }
  return optimizer->LoadState(reader);
}

// Parses "<prefix>ckpt_<epoch>.kge2" file names; returns -1 otherwise.
int EpochOfCheckpointName(const std::string& name) {
  if (!StartsWith(name, "ckpt_") || !EndsWith(name, ".kge2")) return -1;
  const std::string digits = name.substr(5, name.size() - 10);
  Result<int64_t> epoch = ParseInt64(digits);
  if (!epoch.ok() || *epoch < 0) return -1;
  return int(*epoch);
}

}  // namespace

Status SaveTrainingCheckpoint(const KgeModel& model,
                              const Optimizer& optimizer,
                              const TrainingState& state,
                              const std::string& path) {
  KGE_RETURN_IF_ERROR(KGE_FAILPOINT("ckpt.save.begin"));
  BinaryWriter writer;
  KGE_RETURN_IF_ERROR(writer.OpenAtomic(path));
  KGE_RETURN_IF_ERROR(
      WriteCheckpointHeader(CheckpointKind::kTrainingState, &writer));
  KGE_RETURN_IF_ERROR(WriteModelSection(model, &writer));
  KGE_RETURN_IF_ERROR(WriteTrainingSection(optimizer, state, &writer));
  KGE_RETURN_IF_ERROR(WriteCheckpointFooter(&writer));
  return writer.Close();
}

Status LoadTrainingCheckpoint(KgeModel* model, Optimizer* optimizer,
                              TrainingState* state, const std::string& path) {
  KGE_RETURN_IF_ERROR(KGE_FAILPOINT("ckpt.load.begin"));
  // CRC pass first: a torn or bit-rotted file must be rejected before a
  // single model parameter or optimizer moment is overwritten.
  KGE_RETURN_IF_ERROR(VerifyCheckpoint(path));
  BinaryReader reader;
  KGE_RETURN_IF_ERROR(reader.Open(path));
  Result<CheckpointHeader> header = ReadCheckpointHeader(&reader, path);
  if (!header.ok()) return header.status();
  if (header->kind != CheckpointKind::kTrainingState) {
    return Status::InvalidArgument(path +
                                   " holds no training state (model-only "
                                   "checkpoint; cannot resume from it)");
  }
  KGE_RETURN_IF_ERROR(ReadModelSection(model, &reader, header->version));
  KGE_RETURN_IF_ERROR(ReadTrainingSection(*model, optimizer, state, &reader));
  KGE_RETURN_IF_ERROR(ReadCheckpointFooter(&reader));
  return reader.Close();
}

CheckpointManager::CheckpointManager(std::string dir, int keep_last)
    : dir_(std::move(dir)), keep_last_(std::max(keep_last, 1)) {}

Status CheckpointManager::Init() {
  KGE_RETURN_IF_ERROR(CreateDirectories(dir_));
  saved_epochs_.clear();
  DIR* dir = ::opendir(dir_.c_str());
  if (dir == nullptr) return Status::IoError("cannot read " + dir_);
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    // A crash can strand an uncommitted `<file>.tmp` from an atomic
    // write; it is never referenced, so sweep it on startup.
    if (EndsWith(name, ".tmp")) {
      std::remove((dir_ + "/" + name).c_str());
      continue;
    }
    const int epoch = EpochOfCheckpointName(name);
    if (epoch >= 0) saved_epochs_.push_back(epoch);
  }
  ::closedir(dir);
  std::sort(saved_epochs_.begin(), saved_epochs_.end());
  return Status::Ok();
}

std::string CheckpointManager::PathForEpoch(int epoch) const {
  return dir_ + "/ckpt_" + std::to_string(epoch) + ".kge2";
}

Result<std::string> CheckpointManager::LatestPath() const {
  const std::string pointer = dir_ + "/LATEST";
  if (!FileExists(pointer))
    return Status::NotFound("no checkpoint in " + dir_);
  Result<std::string> name = ReadFileToString(pointer);
  if (!name.ok()) return name.status();
  const std::string target = dir_ + "/" + std::string(TrimString(*name));
  if (!FileExists(target))
    return Status::NotFound("LATEST references missing file " + target);
  return target;
}

Status CheckpointManager::Save(const KgeModel& model,
                               const Optimizer& optimizer,
                               const TrainingState& state) {
  KGE_RETURN_IF_ERROR(
      SaveTrainingCheckpoint(model, optimizer, state, PathForEpoch(state.epoch)));
  if (!std::binary_search(saved_epochs_.begin(), saved_epochs_.end(),
                          state.epoch)) {
    saved_epochs_.insert(std::upper_bound(saved_epochs_.begin(),
                                          saved_epochs_.end(), state.epoch),
                         state.epoch);
  }
  // The checkpoint file is durable before LATEST moves: a crash here
  // leaves LATEST on the previous (complete) checkpoint.
  KGE_RETURN_IF_ERROR(KGE_FAILPOINT("ckpt.save.latest"));
  KGE_RETURN_IF_ERROR(AtomicWriteStringToFile(
      dir_ + "/LATEST", "ckpt_" + std::to_string(state.epoch) + ".kge2\n"));
  KGE_RETURN_IF_ERROR(KGE_FAILPOINT("ckpt.save.retention"));
  return GarbageCollect(state.epoch, state.best_epoch);
}

Status CheckpointManager::GarbageCollect(int latest_epoch, int best_epoch) {
  if (int(saved_epochs_.size()) <= keep_last_) return Status::Ok();
  // Keep the newest keep_last_ epochs, plus the best-validation epoch
  // and whatever LATEST points to (normally among the newest anyway).
  std::vector<int> keep(saved_epochs_.end() - keep_last_,
                        saved_epochs_.end());
  std::vector<int> remaining;
  for (int epoch : saved_epochs_) {
    const bool kept = epoch == latest_epoch || epoch == best_epoch ||
                      std::find(keep.begin(), keep.end(), epoch) != keep.end();
    if (kept) {
      remaining.push_back(epoch);
      continue;
    }
    if (std::remove(PathForEpoch(epoch).c_str()) != 0) {
      return Status::IoError("cannot delete " + PathForEpoch(epoch));
    }
  }
  saved_epochs_ = std::move(remaining);
  return Status::Ok();
}

}  // namespace kge
