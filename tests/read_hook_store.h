// Test-only DurableStore decorator that runs a callback after every Read of
// one named file, and others before every Sync or Write of one named file,
// on the calling thread. Tests use it to stop a log scan, a log sync or a
// log append at a known point: park it on a latch while other threads
// commit (HookLatch), land a commit synchronously when the scan hits the
// end of the file, or fail the sync.
#ifndef TESTS_READ_HOOK_STORE_H_
#define TESTS_READ_HOOK_STORE_H_

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/sync.h"
#include "src/store/durable_store.h"

namespace lbc_test {

class ReadHookStore : public store::DurableStore {
 public:
  // Receives the Read's offset and the byte count it returned (0 at end of
  // file).
  using Hook = std::function<void(uint64_t offset, size_t got)>;
  // Runs before the Sync reaches the base store; a non-OK result fails the
  // Sync with that status and the base store never sees it.
  using SyncHook = std::function<base::Status()>;
  // Runs before the Write reaches the base store, with the same contract.
  using WriteHook = SyncHook;

  // Does not own `base`; it must outlive this store and its handles.
  explicit ReadHookStore(store::DurableStore* base) : base_(base) {}

  // Hooks Reads of `name` through handles opened under that name. An empty
  // hook disarms.
  void SetReadHook(const std::string& name, Hook hook) {
    base::MutexLock lock(mu_);
    name_ = name;
    hook_ = std::move(hook);
  }

  // Hooks Syncs of `name` through handles opened under that name. An empty
  // hook disarms.
  void SetSyncHook(const std::string& name, SyncHook hook) {
    base::MutexLock lock(mu_);
    sync_hook_ = {name, std::move(hook)};
  }

  // Hooks Writes of `name` through handles opened under that name. An
  // empty hook disarms.
  void SetWriteHook(const std::string& name, WriteHook hook) {
    base::MutexLock lock(mu_);
    write_hook_ = {name, std::move(hook)};
  }

  base::Result<std::unique_ptr<store::DurableFile>> Open(const std::string& name,
                                                         bool create) override {
    ASSIGN_OR_RETURN(auto file, base_->Open(name, create));
    return std::unique_ptr<store::DurableFile>(
        std::make_unique<HookedFile>(this, name, std::move(file)));
  }
  base::Status Remove(const std::string& name) override { return base_->Remove(name); }
  base::Result<bool> Exists(const std::string& name) override {
    return base_->Exists(name);
  }
  base::Result<std::vector<std::string>> List() override { return base_->List(); }
  base::Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  base::Status SyncDir() override { return base_->SyncDir(); }

 private:
  class HookedFile : public store::DurableFile {
   public:
    HookedFile(ReadHookStore* owner, std::string name,
               std::unique_ptr<store::DurableFile> base)
        : owner_(owner), name_(std::move(name)), base_(std::move(base)) {}

    base::Result<size_t> Read(uint64_t offset, void* buf, size_t len) override {
      ASSIGN_OR_RETURN(size_t got, base_->Read(offset, buf, len));
      owner_->AfterRead(name_, offset, got);
      return got;
    }
    base::Status Write(uint64_t offset, base::ByteSpan data) override {
      RETURN_IF_ERROR(owner_->Before(&ReadHookStore::write_hook_, name_));
      return base_->Write(offset, data);
    }
    base::Result<uint64_t> Append(base::ByteSpan data) override {
      return base_->Append(data);
    }
    base::Status Sync() override {
      RETURN_IF_ERROR(owner_->Before(&ReadHookStore::sync_hook_, name_));
      return base_->Sync();
    }
    base::Result<uint64_t> Size() const override { return base_->Size(); }
    base::Status Truncate(uint64_t size) override { return base_->Truncate(size); }

   private:
    ReadHookStore* owner_;
    std::string name_;
    std::unique_ptr<store::DurableFile> base_;
  };

  // Runs the hook outside mu_, so it may block or do store I/O.
  void AfterRead(const std::string& name, uint64_t offset, size_t got) {
    Hook hook;
    {
      base::MutexLock lock(mu_);
      if (!hook_ || name != name_) {
        return;
      }
      hook = hook_;
    }
    hook(offset, got);
  }

  // A Sync or Write hook and the file name it is armed for.
  struct OpHook {
    std::string name;
    SyncHook hook;
  };

  // Runs the `which` hook if it is armed for `name`, outside mu_.
  base::Status Before(OpHook ReadHookStore::*which, const std::string& name) {
    SyncHook hook;
    {
      base::MutexLock lock(mu_);
      const OpHook& armed = this->*which;
      if (!armed.hook || name != armed.name) {
        return base::OkStatus();
      }
      hook = armed.hook;
    }
    return hook();
  }

  store::DurableStore* base_;
  base::Mutex mu_{"test.read_hook"};
  std::string name_ LBC_GUARDED_BY(mu_);
  Hook hook_ LBC_GUARDED_BY(mu_);
  OpHook sync_hook_ LBC_GUARDED_BY(mu_);
  OpHook write_hook_ LBC_GUARDED_BY(mu_);
};

// One-shot latch for hooked Reads, Syncs or Writes: the caller of the
// (skip + 1)-th hooked op parks until Release(); every other op passes
// straight through.
class HookLatch {
 public:
  explicit HookLatch(int skip = 0) : skip_(skip) {}

  ReadHookStore::Hook ReadHook() {
    return [this](uint64_t, size_t) { Park(); };
  }
  ReadHookStore::SyncHook SyncHook() {
    return [this] {
      Park();
      return base::OkStatus();
    };
  }
  ReadHookStore::WriteHook WriteHook() { return SyncHook(); }

  // True once a reader is parked; false if none arrived within `timeout`.
  bool WaitParked(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    base::MutexLock lock(mu_);
    while (!parked_) {
      if (!cv_.WaitUntil(lock, deadline)) {
        return parked_;
      }
    }
    return true;
  }

  void Release() {
    base::MutexLock lock(mu_);
    released_ = true;
    cv_.NotifyAll();
  }

 private:
  void Park() {
    base::MutexLock lock(mu_);
    if (parked_ || reads_++ < skip_) {
      return;
    }
    parked_ = true;
    cv_.NotifyAll();
    while (!released_) {
      cv_.Wait(lock);
    }
  }

  const int skip_;
  base::Mutex mu_{"test.hook_latch"};
  base::CondVar cv_;
  int reads_ LBC_GUARDED_BY(mu_) = 0;
  bool parked_ LBC_GUARDED_BY(mu_) = false;
  bool released_ LBC_GUARDED_BY(mu_) = false;
};

}  // namespace lbc_test

#endif  // TESTS_READ_HOOK_STORE_H_
