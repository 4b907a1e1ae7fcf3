#include "serve/mmap_checkpoint.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "models/checkpoint.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/io.h"
#include "util/string_utils.h"

namespace kge {
namespace {

// Bounds-checked forward reader over the mapping. Every Read* returns
// false instead of walking past the end, so a truncated or hostile
// header can never cause an out-of-bounds access.
class ByteCursor {
 public:
  ByteCursor(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

  bool ReadU32(uint32_t* out) { return ReadScalar(out); }
  bool ReadU64(uint64_t* out) { return ReadScalar(out); }

  // Length-prefixed string (u64 length + bytes, the BinaryWriter
  // convention), validated against the bytes actually remaining.
  // Returns a view into the mapping.
  bool ReadStringView(std::string_view* out) {
    uint64_t length = 0;
    if (!ReadScalar(&length)) return false;
    if (length > remaining()) return false;
    *out = std::string_view(reinterpret_cast<const char*>(data_ + pos_),
                            size_t(length));
    pos_ += size_t(length);
    return true;
  }

  // Advances past `count` bytes and reports where they start, or fails
  // if fewer remain.
  bool Span(size_t count, const uint8_t** out) {
    if (count > remaining()) return false;
    *out = data_ + pos_;
    pos_ += count;
    return true;
  }

 private:
  template <typename T>
  bool ReadScalar(T* out) {
    if (sizeof(T) > remaining()) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

Status Malformed(const std::string& path, const char* what) {
  return Status::InvalidArgument(path + ": " + what);
}

}  // namespace

Result<std::unique_ptr<MappedCheckpoint>> MappedCheckpoint::Open(
    const std::string& path) {
  KGE_RETURN_IF_ERROR(KGE_FAILPOINT("serve.load.map"));
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return Status::IoError(path + ": empty or unstatable");
  }
  const size_t length = size_t(st.st_size);
  // MAP_PRIVATE + PROT_WRITE: the blocks may be written through
  // BorrowStorage views (copy-on-write), and the file on disk is never
  // modified by the mapping.
  void* base =
      ::mmap(nullptr, length, PROT_READ | PROT_WRITE, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) return Status::IoError(path + ": mmap failed");
  return std::make_unique<MappedCheckpoint>(base, length, path);
}

MappedCheckpoint::MappedCheckpoint(void* base, size_t length,
                                   std::string path)
    : base_(base), length_(length), path_(std::move(path)) {}

MappedCheckpoint::~MappedCheckpoint() {
  if (base_ != nullptr) ::munmap(base_, length_);
}

Status MappedCheckpoint::LoadInto(KgeModel* model, ThreadPool* pool) {
  KGE_RETURN_IF_ERROR(KGE_FAILPOINT("serve.load.verify"));
  const uint8_t* bytes = static_cast<const uint8_t*>(base_);
  if (length_ < 4 * sizeof(uint32_t)) {
    return Malformed(path_, "truncated checkpoint");
  }
  // Whole-file CRC first: nothing in a torn file is trusted, not even
  // the header fields the shape checks below would read.
  const size_t crc_offset = length_ - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes + crc_offset, sizeof(uint32_t));
  if (Crc32cOnPool(bytes, crc_offset, pool) != stored_crc) {
    return Status::IoError(path_ +
                           ": checkpoint CRC mismatch (torn or corrupt file)");
  }

  ByteCursor cursor(bytes, crc_offset);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t kind = 0;
  if (!cursor.ReadU32(&magic) || magic != kCheckpointMagicV2) {
    return Malformed(path_, "not a v2+ kge checkpoint");
  }
  if (!cursor.ReadU32(&version) || version < 2 ||
      version > kCheckpointVersion) {
    return Malformed(path_, "unsupported checkpoint version");
  }
  if (!cursor.ReadU32(&kind) ||
      kind > uint32_t(CheckpointKind::kTrainingState)) {
    return Malformed(path_, "unknown checkpoint kind");
  }

  std::string_view saved_name;
  if (!cursor.ReadStringView(&saved_name)) {
    return Malformed(path_, "truncated model name");
  }
  if (saved_name != model->name()) {
    return Status::InvalidArgument(
        StrFormat("%s holds model '%.*s' but got '%s'", path_.c_str(),
                  int(saved_name.size()), saved_name.data(),
                  model->name().c_str()));
  }
  uint32_t block_count = 0;
  if (!cursor.ReadU32(&block_count)) {
    return Malformed(path_, "truncated block count");
  }
  const std::vector<ParameterBlock*> blocks = model->Blocks();
  if (block_count != blocks.size()) {
    return Malformed(path_, "checkpoint block count mismatch");
  }
  borrowed_blocks_ = 0;
  copied_blocks_ = 0;
  for (ParameterBlock* block : blocks) {
    std::string_view name;
    uint64_t rows = 0;
    uint64_t dim = 0;
    if (!cursor.ReadStringView(&name) || !cursor.ReadU64(&rows) ||
        !cursor.ReadU64(&dim)) {
      return Malformed(path_, "truncated block header");
    }
    if (name != block->name() || int64_t(rows) != block->num_rows() ||
        int64_t(dim) != block->row_dim()) {
      return Malformed(path_, "checkpoint block shape mismatch");
    }
    // WriteFloatArray prefixes the payload with its own element count.
    uint64_t payload_count = 0;
    if (!cursor.ReadU64(&payload_count) ||
        payload_count != uint64_t(block->size())) {
      return Malformed(path_, "checkpoint block payload count mismatch");
    }
    if (version >= 3) {
      // The mapping starts at file offset 0, so file and cursor offsets
      // agree.
      const size_t pad_bytes =
          AlignmentPadding(cursor.position(), kCheckpointPayloadAlignment);
      const uint8_t* pad = nullptr;
      if (!cursor.Span(pad_bytes, &pad)) {
        return Malformed(path_, "truncated block padding");
      }
      if (std::any_of(pad, pad + pad_bytes,
                      [](uint8_t b) { return b != 0; })) {
        return Malformed(path_, "nonzero padding before block payload");
      }
    }
    // rows*dim fits: it equals a real block's size(), and the payload
    // length check below caps it at the file size anyway.
    const size_t payload_bytes = size_t(block->size()) * sizeof(float);
    const uint8_t* payload = nullptr;
    if (!cursor.Span(payload_bytes, &payload)) {
      return Malformed(path_, "truncated block payload");
    }
    if (reinterpret_cast<uintptr_t>(payload) % alignof(float) == 0) {
      // The mapping is MAP_PRIVATE with PROT_WRITE, so the non-const
      // view is safe: writes COW into anonymous pages.
      block->BorrowStorage(
          const_cast<float*>(reinterpret_cast<const float*>(payload)),
          block->size());
      ++borrowed_blocks_;
    } else {
      std::memcpy(block->Flat().data(), payload, payload_bytes);
      ++copied_blocks_;
    }
  }
  if (CheckpointKind(kind) == CheckpointKind::kModelOnly &&
      cursor.remaining() != 0) {
    return Malformed(path_, "trailing bytes after model section");
  }
  // Training-state checkpoints carry optimizer/progress state between
  // the model section and the CRC; the serving layer skips it.
  model->OnParametersLoaded();
  return Status::Ok();
}

}  // namespace kge
