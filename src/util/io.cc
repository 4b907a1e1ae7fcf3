#include "util/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>

#include "util/check.h"
#include "util/crc32c.h"
#include "util/failpoint.h"

namespace kge {

static_assert(std::endian::native == std::endian::little,
              "binary format assumes a little-endian host");

namespace {

// Parent directory of `path` ("." for bare filenames), for fsync after
// rename so the directory entry itself is durable.
std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status FsyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IoError("cannot open directory " + dir);
  const int sync_result = ::fsync(fd);
  ::close(fd);
  if (sync_result != 0) return Status::IoError("fsync failed on " + dir);
  return Status::Ok();
}

}  // namespace

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::IoError("cannot open " + path);
  std::string content;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    content.append(buffer, n);
  }
  const bool had_error = std::ferror(file) != 0;
  std::fclose(file);
  if (had_error) return Status::IoError("read error on " + path);
  return content;
}

Status WriteStringToFile(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return Status::IoError("cannot open " + path);
  const size_t written = std::fwrite(content.data(), 1, content.size(), file);
  const int close_result = std::fclose(file);
  if (written != content.size() || close_result != 0)
    return Status::IoError("write error on " + path);
  return Status::Ok();
}

Status AtomicWriteStringToFile(const std::string& path,
                               const std::string& content) {
  BinaryWriter writer;
  KGE_RETURN_IF_ERROR(writer.OpenAtomic(path));
  KGE_RETURN_IF_ERROR(writer.WriteBytes(content.data(), content.size()));
  return writer.Close();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status CreateDirectories(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("empty directory path");
  std::string prefix;
  size_t pos = 0;
  while (pos <= path.size()) {
    const size_t slash = path.find('/', pos);
    prefix = (slash == std::string::npos) ? path : path.substr(0, slash);
    pos = (slash == std::string::npos) ? path.size() + 1 : slash + 1;
    if (prefix.empty()) continue;  // Leading '/' of an absolute path.
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
      return Status::IoError("cannot create directory " + prefix);
    struct stat st;
    if (::stat(prefix.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
      return Status::IoError("not a directory: " + prefix);
  }
  return Status::Ok();
}

BinaryWriter::~BinaryWriter() { Abandon(); }

Status BinaryWriter::Open(const std::string& path) {
  KGE_CHECK(file_ == nullptr);
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) return Status::IoError("cannot open " + path);
  atomic_ = false;
  crc_ = 0;
  bytes_written_ = 0;
  return Status::Ok();
}

Status BinaryWriter::OpenAtomic(const std::string& path) {
  KGE_CHECK(file_ == nullptr);
  temp_path_ = path + ".tmp";
  final_path_ = path;
  file_ = std::fopen(temp_path_.c_str(), "wb");
  if (file_ == nullptr) return Status::IoError("cannot open " + temp_path_);
  atomic_ = true;
  crc_ = 0;
  bytes_written_ = 0;
  return Status::Ok();
}

Status BinaryWriter::Close() {
  if (file_ == nullptr) return Status::Ok();
  {
    Status injected = KGE_FAILPOINT("io.writer.close");
    if (!injected.ok()) {
      Abandon();
      return injected;
    }
  }
  if (std::fflush(file_) != 0) {
    Abandon();
    return Status::IoError("flush failed");
  }
  if (!atomic_) {
    const int result = std::fclose(file_);
    file_ = nullptr;
    if (result != 0) return Status::IoError("close failed");
    return Status::Ok();
  }
  // Durable publish: data to disk, then the rename, then the directory
  // entry. A crash between any two steps leaves either no file or the
  // complete new file at final_path_.
  if (::fsync(::fileno(file_)) != 0) {
    Abandon();
    return Status::IoError("fsync failed on " + temp_path_);
  }
  const int close_result = std::fclose(file_);
  file_ = nullptr;
  if (close_result != 0) {
    ::unlink(temp_path_.c_str());
    return Status::IoError("close failed on " + temp_path_);
  }
  {
    Status injected = KGE_FAILPOINT("io.writer.rename");
    if (!injected.ok()) {
      ::unlink(temp_path_.c_str());
      return injected;
    }
  }
  if (::rename(temp_path_.c_str(), final_path_.c_str()) != 0) {
    ::unlink(temp_path_.c_str());
    return Status::IoError("rename failed for " + final_path_);
  }
  return FsyncDirectory(DirName(final_path_));
}

void BinaryWriter::Abandon() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
    if (atomic_) ::unlink(temp_path_.c_str());
  }
}

Status BinaryWriter::WriteBytes(const void* data, size_t count) {
  KGE_CHECK(file_ != nullptr);
  if (std::fwrite(data, 1, count, file_) != count)
    return Status::IoError("short write");
  crc_ = Crc32cExtend(crc_, data, count);
  bytes_written_ += count;
  return Status::Ok();
}

Status BinaryWriter::WriteUint32(uint32_t value) {
  return WriteBytes(&value, sizeof(value));
}
Status BinaryWriter::WriteUint64(uint64_t value) {
  return WriteBytes(&value, sizeof(value));
}
Status BinaryWriter::WriteFloat(float value) {
  return WriteBytes(&value, sizeof(value));
}
Status BinaryWriter::WriteDouble(double value) {
  return WriteBytes(&value, sizeof(value));
}

Status BinaryWriter::WriteString(const std::string& value) {
  KGE_RETURN_IF_ERROR(WriteUint64(value.size()));
  return WriteBytes(value.data(), value.size());
}

Status BinaryWriter::WriteFloatArray(const float* data, size_t count,
                                     size_t alignment) {
  KGE_RETURN_IF_ERROR(WriteUint64(count));
  static constexpr char kZeros[64] = {};
  for (size_t pad = AlignmentPadding(bytes_written_, alignment); pad > 0;) {
    const size_t chunk = std::min(pad, sizeof(kZeros));
    KGE_RETURN_IF_ERROR(WriteBytes(kZeros, chunk));
    pad -= chunk;
  }
  return WriteBytes(data, count * sizeof(float));
}

BinaryReader::~BinaryReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Status BinaryReader::Open(const std::string& path) {
  KGE_CHECK(file_ == nullptr);
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) return Status::IoError("cannot open " + path);
  struct stat st;
  if (::fstat(::fileno(file_), &st) != 0 || st.st_size < 0) {
    std::fclose(file_);
    file_ = nullptr;
    return Status::IoError("cannot stat " + path);
  }
  file_size_ = static_cast<uint64_t>(st.st_size);
  bytes_read_ = 0;
  crc_ = 0;
  return Status::Ok();
}

Status BinaryReader::Close() {
  if (file_ == nullptr) return Status::Ok();
  std::fclose(file_);
  file_ = nullptr;
  return Status::Ok();
}

Status BinaryReader::ReadBytes(void* data, size_t count) {
  KGE_CHECK(file_ != nullptr);
  if (count > remaining())
    return Status::IoError("short read / unexpected EOF");
  if (std::fread(data, 1, count, file_) != count)
    return Status::IoError("short read / unexpected EOF");
  crc_ = Crc32cExtend(crc_, data, count);
  bytes_read_ += count;
  return Status::Ok();
}

Result<uint32_t> BinaryReader::ReadUint32() {
  uint32_t value = 0;
  KGE_RETURN_IF_ERROR(ReadBytes(&value, sizeof(value)));
  return value;
}

Result<uint64_t> BinaryReader::ReadUint64() {
  uint64_t value = 0;
  KGE_RETURN_IF_ERROR(ReadBytes(&value, sizeof(value)));
  return value;
}

Result<float> BinaryReader::ReadFloat() {
  float value = 0;
  KGE_RETURN_IF_ERROR(ReadBytes(&value, sizeof(value)));
  return value;
}

Result<double> BinaryReader::ReadDouble() {
  double value = 0;
  KGE_RETURN_IF_ERROR(ReadBytes(&value, sizeof(value)));
  return value;
}

Result<std::string> BinaryReader::ReadString() {
  Result<uint64_t> size = ReadUint64();
  if (!size.ok()) return size.status();
  // Validate the prefix before allocating: a corrupt length must not
  // turn into a multi-gigabyte allocation.
  if (*size > remaining())
    return Status::IoError("string length exceeds file size");
  std::string value(*size, '\0');
  KGE_RETURN_IF_ERROR(ReadBytes(value.data(), value.size()));
  return value;
}

Status BinaryReader::ReadFloatArray(float* data, size_t count,
                                    size_t alignment) {
  Result<uint64_t> stored = ReadUint64();
  if (!stored.ok()) return stored.status();
  if (*stored != count)
    return Status::InvalidArgument("float array size mismatch");
  for (size_t pad = AlignmentPadding(bytes_read_, alignment); pad > 0;) {
    char bytes[64];
    const size_t chunk = std::min(pad, sizeof(bytes));
    KGE_RETURN_IF_ERROR(ReadBytes(bytes, chunk));
    if (std::any_of(bytes, bytes + chunk, [](char b) { return b != 0; }))
      return Status::InvalidArgument("nonzero padding before float array");
    pad -= chunk;
  }
  if (count * sizeof(float) > remaining())
    return Status::IoError("float array exceeds file size");
  return ReadBytes(data, count * sizeof(float));
}

Status BinaryReader::Skip(uint64_t count) {
  if (count > remaining())
    return Status::IoError("skip past end of file");
  char buffer[1 << 16];
  while (count > 0) {
    const size_t chunk =
        static_cast<size_t>(std::min<uint64_t>(count, sizeof(buffer)));
    KGE_RETURN_IF_ERROR(ReadBytes(buffer, chunk));
    count -= chunk;
  }
  return Status::Ok();
}

}  // namespace kge
