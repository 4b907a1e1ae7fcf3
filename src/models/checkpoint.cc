#include "models/checkpoint.h"

#include "util/failpoint.h"
#include "util/string_utils.h"

namespace kge {
namespace {

// Version and kind, read after a "KGE2" magic.
Result<CheckpointHeader> ReadVersionAndKind(BinaryReader* reader,
                                            const std::string& path) {
  Result<uint32_t> version = reader->ReadUint32();
  if (!version.ok()) return version.status();
  if (*version < 2 || *version > kCheckpointVersion) {
    return Status::InvalidArgument(
        StrFormat("%s: unsupported checkpoint version %u", path.c_str(),
                  *version));
  }
  Result<uint32_t> kind = reader->ReadUint32();
  if (!kind.ok()) return kind.status();
  if (*kind > static_cast<uint32_t>(CheckpointKind::kTrainingState)) {
    return Status::InvalidArgument(
        StrFormat("%s: unknown checkpoint kind %u", path.c_str(), *kind));
  }
  return CheckpointHeader{*version, static_cast<CheckpointKind>(*kind)};
}

}  // namespace

Status WriteCheckpointHeader(CheckpointKind kind, BinaryWriter* writer) {
  KGE_RETURN_IF_ERROR(writer->WriteUint32(kCheckpointMagicV2));
  KGE_RETURN_IF_ERROR(writer->WriteUint32(kCheckpointVersion));
  return writer->WriteUint32(static_cast<uint32_t>(kind));
}

Result<CheckpointHeader> ReadCheckpointHeader(BinaryReader* reader,
                                              const std::string& path) {
  Result<uint32_t> magic = reader->ReadUint32();
  if (!magic.ok()) return magic.status();
  if (*magic != kCheckpointMagicV2)
    return Status::InvalidArgument(path + " is not a v2+ kge checkpoint");
  return ReadVersionAndKind(reader, path);
}

Status WriteModelSection(const KgeModel& model, BinaryWriter* writer) {
  KGE_RETURN_IF_ERROR(writer->WriteString(model.name()));
  const std::vector<const ParameterBlock*> blocks = model.Blocks();
  KGE_RETURN_IF_ERROR(writer->WriteUint32(uint32_t(blocks.size())));
  for (const ParameterBlock* block : blocks) {
    KGE_RETURN_IF_ERROR(writer->WriteString(block->name()));
    KGE_RETURN_IF_ERROR(writer->WriteUint64(uint64_t(block->num_rows())));
    KGE_RETURN_IF_ERROR(writer->WriteUint64(uint64_t(block->row_dim())));
    KGE_RETURN_IF_ERROR(writer->WriteFloatArray(block->Flat().data(),
                                                block->Flat().size(),
                                                kCheckpointPayloadAlignment));
  }
  return Status::Ok();
}

Status ReadModelSection(KgeModel* model, BinaryReader* reader,
                        uint32_t version) {
  const size_t alignment = version >= 3 ? kCheckpointPayloadAlignment : 1;
  Result<std::string> saved_name = reader->ReadString();
  if (!saved_name.ok()) return saved_name.status();
  if (*saved_name != model->name()) {
    return Status::InvalidArgument(
        StrFormat("checkpoint holds model '%s' but got '%s'",
                  saved_name->c_str(), model->name().c_str()));
  }
  Result<uint32_t> block_count = reader->ReadUint32();
  if (!block_count.ok()) return block_count.status();
  const std::vector<ParameterBlock*> blocks = model->Blocks();
  if (*block_count != blocks.size()) {
    return Status::InvalidArgument("checkpoint block count mismatch");
  }
  for (ParameterBlock* block : blocks) {
    Result<std::string> name = reader->ReadString();
    if (!name.ok()) return name.status();
    Result<uint64_t> rows = reader->ReadUint64();
    if (!rows.ok()) return rows.status();
    Result<uint64_t> dim = reader->ReadUint64();
    if (!dim.ok()) return dim.status();
    if (*name != block->name() || int64_t(*rows) != block->num_rows() ||
        int64_t(*dim) != block->row_dim()) {
      return Status::InvalidArgument(
          StrFormat("checkpoint block '%s' (%llux%llu) does not match "
                    "model block '%s' (%lldx%lld)",
                    name->c_str(), (unsigned long long)*rows,
                    (unsigned long long)*dim, block->name().c_str(),
                    (long long)block->num_rows(),
                    (long long)block->row_dim()));
    }
    KGE_RETURN_IF_ERROR(reader->ReadFloatArray(
        block->Flat().data(), block->Flat().size(), alignment));
  }
  model->OnParametersLoaded();
  return Status::Ok();
}

Status WriteCheckpointFooter(BinaryWriter* writer) {
  // Snapshot the running CRC before WriteUint32 extends it.
  const uint32_t crc = writer->crc();
  return writer->WriteUint32(crc);
}

Status ReadCheckpointFooter(BinaryReader* reader) {
  const uint32_t computed = reader->crc();
  Result<uint32_t> stored = reader->ReadUint32();
  if (!stored.ok()) return stored.status();
  if (*stored != computed)
    return Status::IoError("checkpoint CRC mismatch (torn or corrupt file)");
  if (reader->remaining() != 0)
    return Status::InvalidArgument("trailing bytes after checkpoint CRC");
  return Status::Ok();
}

Status SaveModelCheckpoint(const KgeModel& model, const std::string& path) {
  KGE_RETURN_IF_ERROR(KGE_FAILPOINT("ckpt.save.begin"));
  BinaryWriter writer;
  KGE_RETURN_IF_ERROR(writer.OpenAtomic(path));
  KGE_RETURN_IF_ERROR(WriteCheckpointHeader(CheckpointKind::kModelOnly,
                                            &writer));
  KGE_RETURN_IF_ERROR(WriteModelSection(model, &writer));
  KGE_RETURN_IF_ERROR(WriteCheckpointFooter(&writer));
  return writer.Close();
}

Status LoadModelCheckpoint(KgeModel* model, const std::string& path) {
  KGE_RETURN_IF_ERROR(KGE_FAILPOINT("ckpt.load.begin"));
  BinaryReader reader;
  KGE_RETURN_IF_ERROR(reader.Open(path));
  Result<uint32_t> magic = reader.ReadUint32();
  if (!magic.ok()) return magic.status();
  if (*magic == kCheckpointMagicV1) {
    // v1: the model section right after the magic, no CRC.
    KGE_RETURN_IF_ERROR(ReadModelSection(model, &reader, 1));
    return reader.Close();
  }
  if (*magic != kCheckpointMagicV2)
    return Status::InvalidArgument(path + " is not a kge checkpoint");
  Result<CheckpointHeader> header = ReadVersionAndKind(&reader, path);
  if (!header.ok()) return header.status();
  KGE_RETURN_IF_ERROR(ReadModelSection(model, &reader, header->version));
  if (header->kind == CheckpointKind::kTrainingState) {
    // Skip the training-state section (still feeds the CRC), so model
    // consumers like kge_eval can read trainer checkpoints. Everything
    // between here and the 4-byte footer is training state.
    if (reader.remaining() < sizeof(uint32_t))
      return Status::IoError(path + ": truncated checkpoint");
    KGE_RETURN_IF_ERROR(reader.Skip(reader.remaining() - sizeof(uint32_t)));
  }
  KGE_RETURN_IF_ERROR(ReadCheckpointFooter(&reader));
  return reader.Close();
}

Status VerifyCheckpoint(const std::string& path) {
  BinaryReader reader;
  KGE_RETURN_IF_ERROR(reader.Open(path));
  Result<CheckpointHeader> header = ReadCheckpointHeader(&reader, path);
  if (!header.ok()) return header.status();
  if (reader.remaining() < sizeof(uint32_t))
    return Status::IoError(path + ": truncated checkpoint");
  KGE_RETURN_IF_ERROR(reader.Skip(reader.remaining() - sizeof(uint32_t)));
  KGE_RETURN_IF_ERROR(ReadCheckpointFooter(&reader));
  return reader.Close();
}

}  // namespace kge
