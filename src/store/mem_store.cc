#include "src/store/mem_store.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <set>

#include "src/store/store_metrics.h"

namespace store {

// A handle onto a MemStore file. Handles stay valid across Crash(); they see
// the post-crash contents, as a reopened file descriptor would.
class MemFile : public DurableFile {
 public:
  MemFile(MemStore* owner, std::shared_ptr<MemStore::FileState> state)
      : owner_(owner), state_(std::move(state)) {}

  base::Result<size_t> Read(uint64_t offset, void* buf, size_t len) override {
    base::MutexLock lock(owner_->mu_);
    const auto& data = state_->volatile_data;
    if (offset >= data.size()) {
      return size_t{0};
    }
    size_t n = std::min<size_t>(len, data.size() - offset);
    if (n > 0) {
      std::memcpy(buf, data.data() + offset, n);
    }
    StoreMetrics* m = GlobalStoreMetrics();
    m->reads->Increment();
    m->read_bytes->Add(n);
    return n;
  }

  base::Status Write(uint64_t offset, base::ByteSpan data) override {
    base::MutexLock lock(owner_->mu_);
    return WriteLocked(offset, data);
  }

  base::Result<uint64_t> Append(base::ByteSpan data) override {
    base::MutexLock lock(owner_->mu_);
    uint64_t size = state_->volatile_data.size();
    RETURN_IF_ERROR(WriteLocked(size, data));
    return size;
  }

  base::Status Sync() override {
    StoreMetrics* m = GlobalStoreMetrics();
    obs::ScopedTimer timer(m->sync_nanos);
    base::MutexLock lock(owner_->mu_);
    state_->durable_data = state_->volatile_data;
    state_->unsynced_writes.clear();
    // fsync of a freshly created file also commits its creation (the inode
    // reaches disk); a pending rename of an already-durable file does not.
    owner_->CommitCreationLocked(state_);
    ++owner_->sync_count_;
    m->syncs->Increment();
    return base::OkStatus();
  }

  base::Result<uint64_t> Size() const override {
    base::MutexLock lock(owner_->mu_);
    return static_cast<uint64_t>(state_->volatile_data.size());
  }

  base::Status Truncate(uint64_t size) override {
    base::MutexLock lock(owner_->mu_);
    state_->volatile_data.resize(size);
    state_->unsynced_writes.emplace_back(size, 0);
    return base::OkStatus();
  }

 private:
  // Common body of Write/Append.
  base::Status WriteLocked(uint64_t offset, base::ByteSpan data)
      LBC_REQUIRES(owner_->mu_) {
    if (owner_->fail_after_bytes_ >= 0) {
      if (owner_->fail_after_bytes_ < static_cast<int64_t>(data.size())) {
        return base::IoError("injected write failure");
      }
      owner_->fail_after_bytes_ -= static_cast<int64_t>(data.size());
    }
    auto& vec = state_->volatile_data;
    if (offset + data.size() > vec.size()) {
      vec.resize(offset + data.size());
    }
    if (!data.empty()) {
      std::memcpy(vec.data() + offset, data.data(), data.size());
    }
    state_->unsynced_writes.emplace_back(offset, data.size());
    owner_->total_bytes_written_ += data.size();
    StoreMetrics* m = GlobalStoreMetrics();
    m->writes->Increment();
    m->write_bytes->Add(data.size());
    return base::OkStatus();
  }

  MemStore* owner_;
  std::shared_ptr<MemStore::FileState> state_;
};

base::Result<std::unique_ptr<DurableFile>> MemStore::Open(const std::string& name,
                                                          bool create) {
  base::MutexLock lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) {
    if (!create) {
      return base::NotFound("file not found: " + name);
    }
    // Creation is volatile: the name enters the durable namespace only at the
    // file's first Sync or at the next SyncDir.
    it = files_.emplace(name, std::make_shared<FileState>()).first;
  }
  return std::unique_ptr<DurableFile>(new MemFile(this, it->second));
}

base::Status MemStore::Remove(const std::string& name) {
  base::MutexLock lock(mu_);
  files_.erase(name);  // durable namespace keeps the name until SyncDir
  return base::OkStatus();
}

base::Result<bool> MemStore::Exists(const std::string& name) {
  base::MutexLock lock(mu_);
  return files_.count(name) > 0;
}

base::Result<std::vector<std::string>> MemStore::List() {
  base::MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, state] : files_) {
    names.push_back(name);
  }
  return names;
}

base::Status MemStore::Rename(const std::string& from, const std::string& to) {
  base::MutexLock lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) {
    return base::NotFound("rename source missing: " + from);
  }
  files_[to] = it->second;
  files_.erase(it);
  return base::OkStatus();
}

base::Status MemStore::SyncDir() {
  base::MutexLock lock(mu_);
  durable_files_ = files_;
  StoreMetrics* m = GlobalStoreMetrics();
  m->dir_syncs->Increment();
  return base::OkStatus();
}

void MemStore::CommitCreationLocked(const std::shared_ptr<FileState>& state) {
  for (const auto& [name, durable] : durable_files_) {
    if (durable == state) {
      return;  // inode already durable under some name; keep it
    }
  }
  for (const auto& [name, vol] : files_) {
    if (vol == state) {
      durable_files_[name] = state;
    }
  }
}

void MemStore::Crash(size_t torn_bytes) {
  base::MutexLock lock(mu_);
  // Visit every inode reachable from either namespace exactly once (a file
  // may be linked under several names, e.g. mid-rename).
  std::set<FileState*> seen;
  auto crash_inode = [&](const std::shared_ptr<FileState>& state) {
    if (!seen.insert(state.get()).second) {
      return;
    }
    std::vector<uint8_t> image = state->durable_data;
    // Let a prefix of the unsynced writes (up to torn_bytes total, with the
    // final write possibly partial) reach the durable image.
    size_t budget = torn_bytes;
    for (const auto& [offset, len] : state->unsynced_writes) {
      if (budget == 0) {
        break;
      }
      size_t take = std::min<size_t>(len, budget);
      if (take == 0) {
        continue;
      }
      if (offset + take > image.size()) {
        image.resize(offset + take);
      }
      std::memcpy(image.data() + offset, state->volatile_data.data() + offset, take);
      budget -= take;
      if (take < len) {
        break;
      }
    }
    state->volatile_data = image;
    state->durable_data = image;
    state->unsynced_writes.clear();
  };
  for (auto& [name, state] : files_) {
    crash_inode(state);
  }
  for (auto& [name, state] : durable_files_) {
    crash_inode(state);
  }
  // Roll the namespace back: unsynced creations vanish, unsynced renames and
  // removes are undone.
  files_ = durable_files_;
}

void MemStore::FailWritesAfterBytes(int64_t bytes) {
  base::MutexLock lock(mu_);
  fail_after_bytes_ = bytes;
}

uint64_t MemStore::total_bytes_written() const {
  base::MutexLock lock(mu_);
  return total_bytes_written_;
}

uint64_t MemStore::sync_count() const {
  base::MutexLock lock(mu_);
  return sync_count_;
}

}  // namespace store
