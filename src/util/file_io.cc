#include "util/file_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

namespace rdftx::util {
namespace {

std::string Errno(const char* op, const std::string& path) {
  return std::string(op) + " failed: " + path + " (" + std::strerror(errno) +
         ")";
}

/// Unique temp name beside `path`. The per-process counter keeps
/// concurrent writers (and repeated writers of the same target) in one
/// process apart; the pid keeps processes apart.
std::string TempName(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
  const uint64_t seq = counter.fetch_add(1, std::memory_order_relaxed);
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(seq);
}

/// "a/b/c" -> "a/b"; paths without a separator sync the cwd.
std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status WriteAll(int fd, const uint8_t* data, size_t size,
                const std::string& path) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(Errno("write", path));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status SyncDir(const std::string& path_in_dir) {
  std::string dir = path_in_dir;
  struct stat st{};
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    dir = DirName(path_in_dir);
  }
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError(Errno("open dir", dir));
  const int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    errno = saved;
    return Status::IoError(Errno("fsync dir", dir));
  }
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, const uint8_t* data,
                       size_t size) {
  const std::string tmp = TempName(path);
  // O_EXCL: TempName is unique, so an existing file is stale debris
  // from a crashed writer — refusing to reuse it keeps the invariant
  // that we only ever rename a file whose full contents we wrote.
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) return Status::IoError(Errno("open", tmp));
  Status st = WriteAll(fd, data, size, tmp);
  // Durability step 1: the temp file's *data* must be on stable storage
  // before the rename publishes it, or a crash can expose a file with
  // the final name and garbage contents.
  if (st.ok() && ::fsync(fd) != 0) st = Status::IoError(Errno("fsync", tmp));
  if (::close(fd) != 0 && st.ok()) st = Status::IoError(Errno("close", tmp));
  if (st.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    st = Status::IoError(Errno("rename", path));
  }
  if (!st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  // Durability step 2: the rename is a directory mutation; it is not
  // durable until the directory itself is synced.
  return SyncDir(path);
}

Status ReadFile(const std::string& path, std::vector<uint8_t>* out) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) return Status::NotFound("cannot open: " + path);
  const std::streamsize size = f.tellg();
  if (size < 0) return Status::IoError("cannot stat: " + path);
  f.seekg(0);
  out->assign(static_cast<size_t>(size), 0);
  if (size > 0 &&
      !f.read(reinterpret_cast<char*>(out->data()), size)) {
    return Status::IoError("short read: " + path);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// AppendFile

AppendFile& AppendFile::operator=(AppendFile&& other) noexcept {
  if (this == &other) return *this;
  Close();
  path_ = std::move(other.path_);
  fd_ = std::exchange(other.fd_, -1);
  size_ = std::exchange(other.size_, 0);
  return *this;
}

AppendFile::~AppendFile() { Close(); }

void AppendFile::Close() {
  if (fd_ >= 0) ::close(std::exchange(fd_, -1));
}

Result<AppendFile> AppendFile::Open(const std::string& path) {
  AppendFile out;
  out.path_ = path;
  // Probe existence first so we only pay the directory sync when the
  // open actually creates the entry.
  struct stat pre{};
  const bool existed = ::stat(path.c_str(), &pre) == 0;
  out.fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (out.fd_ < 0) return Status::IoError(Errno("open", path));
  struct stat st{};
  if (::fstat(out.fd_, &st) != 0) return Status::IoError(Errno("fstat", path));
  out.size_ = static_cast<uint64_t>(st.st_size);
  if (!existed) RDFTX_RETURN_IF_ERROR(SyncDir(path));
  return out;
}

Status AppendFile::Append(const uint8_t* data, size_t size) {
  if (fd_ < 0) return Status::InvalidArgument("append on closed file");
  RDFTX_RETURN_IF_ERROR(WriteAll(fd_, data, size, path_));
  size_ += size;
  return Status::OK();
}

Status AppendFile::Sync() {
  if (fd_ < 0) return Status::InvalidArgument("sync on closed file");
  if (::fsync(fd_) != 0) return Status::IoError(Errno("fsync", path_));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// MappedFile

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this == &other) return *this;
  if (mapped_) ::munmap(const_cast<uint8_t*>(data_), size_);
  data_ = std::exchange(other.data_, nullptr);
  size_ = std::exchange(other.size_, 0);
  mapped_ = std::exchange(other.mapped_, false);
  buffer_ = std::move(other.buffer_);
  if (!mapped_ && data_ != nullptr) data_ = buffer_.data();
  return *this;
}

MappedFile::~MappedFile() {
  if (mapped_) ::munmap(const_cast<uint8_t*>(data_), size_);
}

Result<MappedFile> MappedFile::Open(const std::string& path) {
  MappedFile out;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st{};
    void* map = MAP_FAILED;
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
      if (st.st_size == 0) {
        ::close(fd);
        return out;  // empty file: empty view (mmap rejects length 0)
      }
      out.size_ = static_cast<size_t>(st.st_size);
      map = ::mmap(nullptr, out.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    }
    ::close(fd);
    if (map != MAP_FAILED) {
      out.data_ = static_cast<const uint8_t*>(map);
      out.mapped_ = true;
      return out;
    }
  }
  // mmap failed (or the path is not a regular file): read into a buffer.
  RDFTX_RETURN_IF_ERROR(ReadFile(path, &out.buffer_));
  out.data_ = out.buffer_.data();
  out.size_ = out.buffer_.size();
  return out;
}

}  // namespace rdftx::util
