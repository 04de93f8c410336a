#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "src/store/durable_store.h"
#include "src/store/store_metrics.h"

namespace store {
namespace {

base::Status ErrnoStatus(const std::string& op) {
  return base::IoError(op + ": " + std::strerror(errno));
}

class PosixFile : public DurableFile {
 public:
  explicit PosixFile(int fd) : fd_(fd) {}
  ~PosixFile() override {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  PosixFile(const PosixFile&) = delete;
  PosixFile& operator=(const PosixFile&) = delete;

  base::Result<size_t> Read(uint64_t offset, void* buf, size_t len) override {
    size_t total = 0;
    auto* out = static_cast<uint8_t*>(buf);
    while (total < len) {
      ssize_t n = ::pread(fd_, out + total, len - total, static_cast<off_t>(offset + total));
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return ErrnoStatus("pread");
      }
      if (n == 0) {
        break;  // end of file
      }
      total += static_cast<size_t>(n);
    }
    StoreMetrics* m = GlobalStoreMetrics();
    m->reads->Increment();
    m->read_bytes->Add(total);
    return total;
  }

  base::Status Write(uint64_t offset, base::ByteSpan data) override {
    size_t total = 0;
    while (total < data.size()) {
      ssize_t n = ::pwrite(fd_, data.data() + total, data.size() - total,
                           static_cast<off_t>(offset + total));
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return ErrnoStatus("pwrite");
      }
      total += static_cast<size_t>(n);
    }
    StoreMetrics* m = GlobalStoreMetrics();
    m->writes->Increment();
    m->write_bytes->Add(total);
    return base::OkStatus();
  }

  base::Result<uint64_t> Append(base::ByteSpan data) override {
    ASSIGN_OR_RETURN(uint64_t size, Size());
    RETURN_IF_ERROR(Write(size, data));
    return size;
  }

  base::Status Sync() override {
    StoreMetrics* m = GlobalStoreMetrics();
    obs::ScopedTimer timer(m->sync_nanos);
    if (::fdatasync(fd_) != 0) {
      return ErrnoStatus("fdatasync");
    }
    m->syncs->Increment();
    return base::OkStatus();
  }

  base::Result<uint64_t> Size() const override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      return ErrnoStatus("fstat");
    }
    return static_cast<uint64_t>(st.st_size);
  }

  base::Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return ErrnoStatus("ftruncate");
    }
    return base::OkStatus();
  }

 private:
  int fd_;
};

class FileStore : public DurableStore {
 public:
  explicit FileStore(std::string dir) : dir_(std::move(dir)) {}

  base::Result<std::unique_ptr<DurableFile>> Open(const std::string& name,
                                                  bool create) override {
    // Open without O_CREAT first so we know whether this call created the
    // file; a creation must be followed by an fsync of the parent directory
    // or a crash can lose the new name (the dirent is volatile until then).
    int fd = ::open(Path(name).c_str(), O_RDWR);
    if (fd < 0 && errno == ENOENT && create) {
      fd = ::open(Path(name).c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
      if (fd < 0 && errno == EEXIST) {
        fd = ::open(Path(name).c_str(), O_RDWR);  // lost a creation race
      } else if (fd >= 0) {
        base::Status st = SyncDir();
        if (!st.ok()) {
          ::close(fd);
          return st;
        }
      }
    }
    if (fd < 0) {
      if (errno == ENOENT) {
        return base::NotFound("file not found: " + name);
      }
      return ErrnoStatus("open " + name);
    }
    return std::unique_ptr<DurableFile>(new PosixFile(fd));
  }

  base::Status Remove(const std::string& name) override {
    if (::unlink(Path(name).c_str()) != 0) {
      if (errno == ENOENT) {
        return base::OkStatus();
      }
      return ErrnoStatus("unlink " + name);
    }
    return SyncDir();
  }

  base::Result<bool> Exists(const std::string& name) override {
    struct stat st;
    if (::stat(Path(name).c_str(), &st) == 0) {
      return true;
    }
    if (errno == ENOENT) {
      return false;
    }
    return ErrnoStatus("stat " + name);
  }

  base::Result<std::vector<std::string>> List() override {
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
      if (entry.is_regular_file()) {
        names.push_back(entry.path().filename().string());
      }
    }
    if (ec) {
      return base::IoError("directory_iterator: " + ec.message());
    }
    return names;
  }

  base::Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(Path(from).c_str(), Path(to).c_str()) != 0) {
      return ErrnoStatus("rename " + from + " -> " + to);
    }
    // Without this barrier a crash right after rename() can surface the old
    // name again (or neither), losing the §3.4 checkpoint swap.
    return SyncDir();
  }

  base::Status SyncDir() override {
    int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0) {
      return base::IoError("open directory for fsync " + dir_ + ": " +
                           std::strerror(errno) +
                           " (namespace changes are not crash-durable)");
    }
    int rc = ::fsync(dfd);
    int saved_errno = errno;
    ::close(dfd);
    if (rc != 0) {
      errno = saved_errno;
      return ErrnoStatus("fsync directory " + dir_);
    }
    GlobalStoreMetrics()->dir_syncs->Increment();
    return base::OkStatus();
  }

 private:
  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

}  // namespace

base::Status DurableFile::ReadExact(uint64_t offset, void* buf, size_t len) {
  ASSIGN_OR_RETURN(size_t n, Read(offset, buf, len));
  if (n != len) {
    return base::DataLoss("short read");
  }
  return base::OkStatus();
}

base::Result<std::unique_ptr<DurableStore>> OpenFileStore(const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return base::IoError("create_directories " + directory + ": " + ec.message());
  }
  return std::unique_ptr<DurableStore>(new FileStore(directory));
}

}  // namespace store
