// Whole-model checkpointing: serializes every parameter block of a
// KgeModel (embeddings, relation matrices, learned ω, MLP weights — the
// block list is the single source of truth) with a shape-checked header,
// so a trained model can be reloaded for serving or analysis.
//
// Format v3 ("KGE2" container, version 3):
//
//   u32    magic 0x4B474532 ("KGE2", little-endian)
//   u32    format version (3)
//   u32    kind: 0 = model only, 1 = full training state
//   string model name
//   u32    block count
//   per block: string name, u64 rows, u64 dim, u64 count (rows*dim),
//          zero padding up to the next 64-byte file offset,
//          float[count] data
//   [kind 1 only] training-state section (layout in
//          train/train_checkpoint.cc; model-only readers skip straight
//          to the footer using the file size)
//   u32    CRC32C over every preceding byte of the file (padding too)
//
// The padding puts every payload on a 64-byte boundary of a page-aligned
// mapping, so the serving loader borrows every block in place
// (serve/mmap_checkpoint.h). Its length follows from the offset, and
// readers reject nonzero padding, so each model has one byte sequence.
//
// Files are written atomically (BinaryWriter::OpenAtomic: temp file +
// fsync + rename), so a crash mid-save can never corrupt an existing
// checkpoint, and the trailing CRC detects torn or bit-rotted files at
// load time. Only v3 is written. v2 files (the same layout without the
// padding) and v1 files (magic "KGE1": no version/kind fields, no
// padding, no CRC) remain loadable.
#ifndef KGE_MODELS_CHECKPOINT_H_
#define KGE_MODELS_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "models/kge_model.h"
#include "util/io.h"
#include "util/status.h"

namespace kge {

inline constexpr uint32_t kCheckpointMagicV1 = 0x4B474531;  // "KGE1"
inline constexpr uint32_t kCheckpointMagicV2 = 0x4B474532;  // "KGE2"
// The version written; readers accept 2 and 3 under the "KGE2" magic.
inline constexpr uint32_t kCheckpointVersion = 3;
// v3 block payloads start at multiples of this many file bytes.
inline constexpr size_t kCheckpointPayloadAlignment = 64;

enum class CheckpointKind : uint32_t {
  kModelOnly = 0,
  kTrainingState = 1,
};

// Writes all parameter blocks of `model` to `path` (format v3, model
// only). Atomic: `path` either keeps its previous content or holds the
// complete new checkpoint.
Status SaveModelCheckpoint(const KgeModel& model, const std::string& path);

// Restores all parameter blocks from a v1, v2 or v3 checkpoint. The
// model must have been constructed with the same configuration (block
// names and shapes are verified). A training checkpoint also works: the
// training-state section is skipped, so evaluation tools can read any
// checkpoint the trainer produces. v2 and v3 files are CRC-verified.
Status LoadModelCheckpoint(KgeModel* model, const std::string& path);

// Structurally validates a v2 or v3 checkpoint without needing a model:
// magic, version, kind, and whole-file CRC. This is what the
// kill-and-resume harness runs against the `latest` pointer after every
// injected crash.
Status VerifyCheckpoint(const std::string& path);

// Low-level pieces of the format, shared with the training-state
// writer in train/train_checkpoint.cc so both checkpoint kinds stay in
// one format.
struct CheckpointHeader {
  uint32_t version = kCheckpointVersion;
  CheckpointKind kind = CheckpointKind::kModelOnly;
};
Status WriteCheckpointHeader(CheckpointKind kind, BinaryWriter* writer);
Status WriteModelSection(const KgeModel& model, BinaryWriter* writer);
// Reads a model section of format `version` (1, 2 or 3: v3 payloads
// are padded) and then calls model->OnParametersLoaded().
Status ReadModelSection(KgeModel* model, BinaryReader* reader,
                        uint32_t version);
// Appends the running CRC; call last.
Status WriteCheckpointFooter(BinaryWriter* writer);
// Reads the stored CRC, compares against the reader's running CRC, and
// rejects trailing garbage.
Status ReadCheckpointFooter(BinaryReader* reader);
// Reads magic/version/kind. Fails on v1 files (callers that support v1
// dispatch on the magic themselves).
Result<CheckpointHeader> ReadCheckpointHeader(BinaryReader* reader,
                                              const std::string& path);

}  // namespace kge

#endif  // KGE_MODELS_CHECKPOINT_H_
