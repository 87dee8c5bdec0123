// File I/O helpers for the persistence layer, POSIX only: crash-durable
// atomic whole-file writes, an append-only fd with real fsync for the
// write-ahead log, directory syncing, and read-only access that
// memory-maps the file, reading it into a buffer only when mmap fails.
//
// Durability contract: WriteFileAtomic fsyncs the temporary file
// *before* the rename and fsyncs the parent directory *after* it, so
// once the call returns OK the new contents survive power loss —
// rename alone only orders the data against other writes on the same
// file, not against the directory entry reaching the platter.
// AppendFile::Sync() is a real fsync of the file data.
#ifndef RDFTX_UTIL_FILE_IO_H_
#define RDFTX_UTIL_FILE_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace rdftx::util {

/// Writes `size` bytes to `path` atomically and durably: the data lands
/// in a uniquely named temporary (`path.tmp.<pid>.<seq>`; the sequence
/// makes concurrent writers in one process collision-free), is fsynced,
/// renamed over `path`, and the parent directory is fsynced so the
/// rename itself survives a crash. A crash never leaves a half-written
/// file under the final name. fsync/rename failures surface as
/// Status::IoError (never as InvalidArgument).
Status WriteFileAtomic(const std::string& path, const uint8_t* data,
                       size_t size);

/// fsyncs the directory containing `path_in_dir`, making a previously
/// created/renamed/deleted entry in it durable. `path_in_dir` may be the
/// directory itself or any path inside it (its dirname is synced).
Status SyncDir(const std::string& path_in_dir);

/// Reads the whole file into `out`. Replaces any previous contents.
Status ReadFile(const std::string& path, std::vector<uint8_t>* out);

/// An append-only file handle, the write primitive of the WAL. Opens
/// (creating if absent) positioned at the end; Append() adds bytes at
/// the tail; Sync() makes everything appended so far durable. Move-only.
class AppendFile {
 public:
  /// Opens `path` for appending, creating it (and fsyncing the parent
  /// directory, so the creation is durable) when absent.
  static Result<AppendFile> Open(const std::string& path);

  AppendFile() = default;
  AppendFile(AppendFile&& other) noexcept { *this = std::move(other); }
  AppendFile& operator=(AppendFile&& other) noexcept;
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;
  ~AppendFile();

  /// Appends `size` bytes at the tail. The data reaches the OS before
  /// the call returns (no user-space buffering) but is not durable
  /// until Sync().
  Status Append(const uint8_t* data, size_t size);

  /// fsyncs the file. After OK, every byte appended so far survives
  /// power loss.
  Status Sync();

  /// Current file size (header + everything appended).
  uint64_t size() const { return size_; }

  const std::string& path() const { return path_; }

  /// Closes the handle (idempotent; the destructor closes too).
  void Close();

 private:
  std::string path_;
  int fd_ = -1;
  uint64_t size_ = 0;
};

/// Read-only view of a file: an mmap, or a heap buffer when mmap fails.
/// Move-only; unmaps/frees on destruction.
class MappedFile {
 public:
  /// Opens `path`; never throws. The file is mapped MAP_PRIVATE; if
  /// mapping fails for any reason the contents are read into a buffer
  /// instead, so callers see one uniform interface. A zero-length file
  /// is an empty view.
  static Result<MappedFile> Open(const std::string& path);

  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  /// True when the contents are served by an actual memory mapping.
  bool mapped() const { return mapped_; }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  std::vector<uint8_t> buffer_;  // fallback storage when !mapped_
};

}  // namespace rdftx::util

#endif  // RDFTX_UTIL_FILE_IO_H_
