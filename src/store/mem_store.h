// In-memory DurableStore with crash simulation.
//
// Every file keeps two images: the *volatile* image (all writes) and the
// *durable* image (contents as of the last Sync). The namespace itself is
// likewise kept twice: Open(create)/Rename/Remove edit only the volatile
// namespace, and a crash rolls the namespace back to what the last barrier
// made durable — exactly the real-FS behavior where a rename or create is
// lost unless the parent directory was fsynced (SyncDir) or, for creation,
// the file itself was fsynced. Crash() discards volatile state, optionally
// leaving a torn prefix of the unsynced writes behind — modeling a machine
// that dies mid-way through flushing its log tail. The recovery tests crash
// a store, reopen it, and check that replay restores exactly the last
// committed state.
#ifndef SRC_STORE_MEM_STORE_H_
#define SRC_STORE_MEM_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/sync.h"
#include "src/store/durable_store.h"

namespace store {

class MemStore : public DurableStore {
 public:
  MemStore() = default;

  base::Result<std::unique_ptr<DurableFile>> Open(const std::string& name,
                                                  bool create) override;
  base::Status Remove(const std::string& name) override;
  base::Result<bool> Exists(const std::string& name) override;
  base::Result<std::vector<std::string>> List() override;
  base::Status Rename(const std::string& from, const std::string& to) override;
  base::Status SyncDir() override;

  // --- failure injection -------------------------------------------------

  // Simulates a crash: every file reverts to its durable image, and the
  // namespace reverts to the durable namespace (unsynced creations vanish,
  // unsynced renames/removes roll back). If `torn_bytes` > 0, up to that
  // many bytes of each file's *oldest* unsynced write survive — a torn tail
  // that recovery must detect via CRC.
  void Crash(size_t torn_bytes = 0);

  // After this many more successfully written bytes, writes fail with
  // IO_ERROR until cleared with a negative value.
  void FailWritesAfterBytes(int64_t bytes);

  // Counters for assertions in tests.
  uint64_t total_bytes_written() const;
  uint64_t sync_count() const;

 private:
  friend class MemFile;

  struct FileState {
    std::vector<uint8_t> volatile_data;
    std::vector<uint8_t> durable_data;
    // Byte offsets (into volatile_data) written since the last Sync, in
    // write order; used to construct torn images.
    std::vector<std::pair<uint64_t, uint64_t>> unsynced_writes;  // offset,len
  };

  // Registers the inode's current volatile name(s) in the durable namespace
  // (called from a file Sync: fsync of a fresh file commits its creation, but
  // it does NOT commit a pending rename — the durable namespace keeps any
  // name it already had).
  void CommitCreationLocked(const std::shared_ptr<FileState>& state) LBC_REQUIRES(mu_);

  mutable base::Mutex mu_{"store.mem", base::LockRank::kStoreMem};
  // Volatile and durable namespaces; entries may share FileState inodes.
  std::map<std::string, std::shared_ptr<FileState>> files_ LBC_GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<FileState>> durable_files_ LBC_GUARDED_BY(mu_);
  int64_t fail_after_bytes_ LBC_GUARDED_BY(mu_) = -1;  // <0 means disabled
  uint64_t total_bytes_written_ LBC_GUARDED_BY(mu_) = 0;
  uint64_t sync_count_ LBC_GUARDED_BY(mu_) = 0;
};

}  // namespace store

#endif  // SRC_STORE_MEM_STORE_H_
