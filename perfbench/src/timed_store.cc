#include "perfbench/src/timed_store.h"

#include "perfbench/src/trace.h"

namespace perfbench {

class TimedFile : public store::DurableFile {
 public:
  TimedFile(TimedStore* owner, std::unique_ptr<store::DurableFile> base)
      : owner_(owner), base_(std::move(base)) {}

  base::Result<size_t> Read(uint64_t offset, void* buf, size_t len) override {
    ScopedSpan span(Op::kStoreRead);
    owner_->CountOp();
    return base_->Read(offset, buf, len);
  }

  base::Status Write(uint64_t offset, base::ByteSpan data) override {
    ScopedSpan span(Op::kStoreWrite);
    owner_->CountOp();
    return base_->Write(offset, data);
  }

  base::Result<uint64_t> Append(base::ByteSpan data) override {
    ScopedSpan span(Op::kStoreAppend);
    owner_->CountOp();
    return base_->Append(data);
  }

  base::Status Sync() override {
    ScopedSpan span(Op::kStoreSync);
    const uint64_t start = NowNanos();
    base::Status st = base_->Sync();
    owner_->CountSync(NowNanos() - start);
    return st;
  }

  base::Result<uint64_t> Size() const override { return base_->Size(); }

  base::Status Truncate(uint64_t size) override {
    ScopedSpan span(Op::kStoreOther);
    owner_->CountOp();
    return base_->Truncate(size);
  }

 private:
  TimedStore* owner_;
  std::unique_ptr<store::DurableFile> base_;
};

base::Result<std::unique_ptr<store::DurableFile>> TimedStore::Open(const std::string& name,
                                                                   bool create) {
  ASSIGN_OR_RETURN(auto file, base_->Open(name, create));
  return std::unique_ptr<store::DurableFile>(new TimedFile(this, std::move(file)));
}

base::Status TimedStore::Remove(const std::string& name) {
  ScopedSpan span(Op::kStoreOther);
  CountOp();
  return base_->Remove(name);
}

base::Result<bool> TimedStore::Exists(const std::string& name) { return base_->Exists(name); }

base::Result<std::vector<std::string>> TimedStore::List() {
  ScopedSpan span(Op::kStoreOther);
  CountOp();
  return base_->List();
}

base::Status TimedStore::Rename(const std::string& from, const std::string& to) {
  ScopedSpan span(Op::kStoreOther);
  CountOp();
  return base_->Rename(from, to);
}

base::Status TimedStore::SyncDir() {
  ScopedSpan span(Op::kStoreOther);
  CountOp();
  return base_->SyncDir();
}

StoreCounts TimedStore::counts() const {
  return {ops_.load(std::memory_order_relaxed), syncs_.load(std::memory_order_relaxed),
          sync_nanos_.load(std::memory_order_relaxed)};
}

void TimedStore::CountSync(uint64_t nanos) {
  ops_.fetch_add(1, std::memory_order_relaxed);
  syncs_.fetch_add(1, std::memory_order_relaxed);
  sync_nanos_.fetch_add(nanos, std::memory_order_relaxed);
}

}  // namespace perfbench
