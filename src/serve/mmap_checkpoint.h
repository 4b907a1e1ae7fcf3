// Zero-copy checkpoint loading for the serving layer. A `.kge2` file is
// mmap'ed (MAP_PRIVATE) and CRC-verified in place, then each parameter
// block payload is handed to ParameterBlock::BorrowStorage — startup
// never copies the embedding tables, so a multi-GB model is query-ready
// in page-fault time rather than read-and-copy time. Format v3 pads
// every payload to a 64-byte file offset, so every block of every model
// is borrowed. A v2 file's payloads follow variable-length strings and
// land wherever those end; any that is not 4-byte-aligned falls back to
// one memcpy into the block's own storage.
//
// Corruption safety mirrors models/checkpoint.cc exactly: magic,
// version, kind, per-block shape, and the trailing whole-file CRC32C
// are all validated with bounds-checked cursor reads before any byte is
// trusted; a torn or hostile file yields a clean Status, never an
// oversized allocation or out-of-bounds read.
#ifndef KGE_SERVE_MMAP_CHECKPOINT_H_
#define KGE_SERVE_MMAP_CHECKPOINT_H_

#include <cstddef>
#include <memory>
#include <string>

#include "models/kge_model.h"
#include "util/status.h"

namespace kge {

class ThreadPool;

class MappedCheckpoint {
 public:
  // Maps `path` read-only-private into memory. Fails cleanly on
  // missing, empty, or unmappable files. Failpoint: "serve.load.map".
  static Result<std::unique_ptr<MappedCheckpoint>> Open(
      const std::string& path);

  // Takes ownership of an established mapping; prefer Open().
  MappedCheckpoint(void* base, size_t length, std::string path);
  ~MappedCheckpoint();
  MappedCheckpoint(const MappedCheckpoint&) = delete;
  MappedCheckpoint& operator=(const MappedCheckpoint&) = delete;

  // Verifies the whole mapping (header + CRC32C footer) and points
  // `model`'s parameter blocks at the mapped payloads (BorrowStorage)
  // where aligned, copying otherwise, then calls
  // model->OnParametersLoaded(). On error the model may hold a
  // mix of old and new block contents and must be discarded — the
  // serving layer always loads into a freshly constructed model and
  // publishes only on Ok. The mapping must outlive the model. Given a
  // pool, the whole-file CRC is checksummed as chunks across it
  // (Crc32cOnPool, the same value bit for bit); without one, inline.
  // Failpoint: "serve.load.verify".
  Status LoadInto(KgeModel* model, ThreadPool* pool = nullptr);

  const std::string& path() const { return path_; }
  size_t length() const { return length_; }
  // How many blocks LoadInto backed by the mapping vs. copied.
  int borrowed_blocks() const { return borrowed_blocks_; }
  int copied_blocks() const { return copied_blocks_; }

 private:
  void* base_ = nullptr;
  size_t length_ = 0;
  std::string path_;
  int borrowed_blocks_ = 0;
  int copied_blocks_ = 0;
};

}  // namespace kge

#endif  // KGE_SERVE_MMAP_CHECKPOINT_H_
