// File I/O helpers: whole-file text reads, line reading, and a simple
// binary serialization format (little-endian, length-prefixed) used for
// embedding checkpoints.
//
// Durability: BinaryWriter::OpenAtomic writes to `<path>.tmp` and
// Close() publishes it with fflush + fsync + rename + parent-directory
// fsync, so a crash at any point leaves either the old file or the new
// file — never a torn one. Both writer and reader maintain a running
// CRC32C over every byte written/read, which the checkpoint format uses
// to detect corruption.
#ifndef KGE_UTIL_IO_H_
#define KGE_UTIL_IO_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/status.h"

namespace kge {

// Reads the entire file into a string.
Result<std::string> ReadFileToString(const std::string& path);

// Writes `content` to `path`, truncating.
Status WriteStringToFile(const std::string& path, const std::string& content);

// Durable variant of WriteStringToFile: temp file + fsync + rename, so
// readers never observe a partially written file. Used for the LATEST
// checkpoint pointer.
Status AtomicWriteStringToFile(const std::string& path,
                               const std::string& content);

bool FileExists(const std::string& path);

// Zero bytes that move `offset` up to a multiple of `alignment`.
inline size_t AlignmentPadding(uint64_t offset, size_t alignment) {
  return size_t((alignment - offset % alignment) % alignment);
}

// mkdir -p: creates `path` and any missing parents (0755). Existing
// directories are fine; a non-directory in the way is an error.
Status CreateDirectories(const std::string& path);

// Buffered binary writer. All integers little-endian (we assume a
// little-endian host, which is static_asserted in io.cc).
class BinaryWriter {
 public:
  BinaryWriter() = default;
  ~BinaryWriter();
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  Status Open(const std::string& path);

  // Opens `<path>.tmp` for writing; Close() renames it onto `path` after
  // flushing and fsyncing, then fsyncs the parent directory. If the
  // writer is destroyed (or Abandon()ed) before Close(), the temp file
  // is removed and `path` is untouched.
  Status OpenAtomic(const std::string& path);

  // Flushes, (in atomic mode) fsyncs and renames into place. On any
  // failure the temp file is removed and the target left untouched.
  Status Close();

  // Discards the file: closes the handle and, in atomic mode, unlinks
  // the temp file. Safe to call at any point; idempotent.
  void Abandon();

  Status WriteUint32(uint32_t value);
  Status WriteUint64(uint64_t value);
  Status WriteFloat(float value);
  Status WriteDouble(double value);
  Status WriteString(const std::string& value);
  // u64 count, then the floats. With `alignment` > 1, zero bytes between
  // the two move the floats to a multiple of `alignment` bytes from the
  // start of the file.
  Status WriteFloatArray(const float* data, size_t count,
                         size_t alignment = 1);
  Status WriteBytes(const void* data, size_t count);

  // Running CRC32C over every byte written so far.
  uint32_t crc() const { return crc_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  std::FILE* file_ = nullptr;
  bool atomic_ = false;
  std::string temp_path_;
  std::string final_path_;
  uint32_t crc_ = 0;
  uint64_t bytes_written_ = 0;
};

// Buffered binary reader matching BinaryWriter. Length prefixes read
// from the file are validated against the bytes actually remaining, so
// a corrupt or hostile file yields a clean Status instead of a giant
// allocation or a blocking read.
class BinaryReader {
 public:
  BinaryReader() = default;
  ~BinaryReader();
  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  Status Open(const std::string& path);
  Status Close();

  Result<uint32_t> ReadUint32();
  Result<uint64_t> ReadUint64();
  Result<float> ReadFloat();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  // Reads what WriteFloatArray wrote with the same `alignment`; the
  // stored count must equal `count` and the padding must be zero.
  Status ReadFloatArray(float* data, size_t count, size_t alignment = 1);

  // Skips `count` bytes, feeding them through the running CRC.
  Status Skip(uint64_t count);

  // Running CRC32C over every byte read so far.
  uint32_t crc() const { return crc_; }
  uint64_t file_size() const { return file_size_; }
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t remaining() const { return file_size_ - bytes_read_; }

 private:
  Status ReadBytes(void* data, size_t count);

  std::FILE* file_ = nullptr;
  uint64_t file_size_ = 0;
  uint64_t bytes_read_ = 0;
  uint32_t crc_ = 0;
};

}  // namespace kge

#endif  // KGE_UTIL_IO_H_
