// ResourceStore: a DurableStore decorator modeling *resource* faults — the
// gray-failure class where the disk is neither healthy nor dead:
//
//   * Byte quota: the namespace has a fixed capacity. A Write or Truncate
//     that would grow the store past it fails whole with RESOURCE_EXHAUSTED
//     (POSIX pwrite into a full filesystem), and an Append that only partly
//     fits performs a deterministic *short write* of the bytes that fit
//     before failing — exactly the torn log tail a real ENOSPC leaves, which
//     recovery must then detect via CRC. Frees (Remove, Truncate-down,
//     Rename over an existing file) return capacity.
//   * Seeded latency: per-file-pattern delays on Read/Write/Append/Sync/
//     Truncate model a disk that is slow but alive. Jitter comes from a
//     seeded base::Rng so every run is reproducible.
//
// The decorator slots in like CrashPointStore/CorruptionInjectingStore and
// composes with both (wrap it *under* them: crash and EIO injection decide
// first, quota and latency apply to the I/O that actually reaches the
// media). Accounting assumes all mutations flow through this store's
// handles; out-of-band writes to the base store are not charged.
//
// This is the repo's only byte quota: neither MemStore nor FileStore has one
// of its own. The crash explorer stacks it under the crash point
// (CrashPointStore -> ResourceStore -> MemStore) and calls RescanUsage after
// every simulated power cut, since MemStore::Crash shrinks files behind the
// decorator's back.
#ifndef SRC_STORE_RESOURCE_STORE_H_
#define SRC_STORE_RESOURCE_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/sync.h"
#include "src/store/durable_store.h"

namespace store {

class ResourceStore : public DurableStore {
 public:
  // Does not own `base`; it must outlive this store and all open handles.
  explicit ResourceStore(DurableStore* base, uint64_t seed = 0xD15C);

  // --- DurableStore --------------------------------------------------------
  base::Result<std::unique_ptr<DurableFile>> Open(const std::string& name,
                                                  bool create) override;
  base::Status Remove(const std::string& name) override;
  base::Result<bool> Exists(const std::string& name) override;
  base::Result<std::vector<std::string>> List() override;
  base::Status Rename(const std::string& from, const std::string& to) override;
  base::Status SyncDir() override;

  // --- byte quota ----------------------------------------------------------

  // Caps the namespace at `bytes` total file bytes (0 = unlimited). Current
  // usage is initialized by RescanUsage and maintained incrementally from
  // then on. May be called mid-run to tighten or relax.
  base::Status SetQuotaBytes(uint64_t bytes);

  // Rebuilds used_bytes() from the base store's current file sizes. Call it
  // when the base changed out of band, e.g. after MemStore::Crash dropped
  // unsynced bytes; like SetQuotaBytes, not while traffic is in flight.
  base::Status RescanUsage();

  uint64_t quota_bytes() const;
  uint64_t used_bytes() const;
  // Ops refused or shortened by the quota since construction.
  uint64_t enospc_count() const;

  // --- latency injection ---------------------------------------------------

  // Every data op (Read/Write/Append/Sync/Truncate) on a file whose name
  // contains `substring` sleeps mean_nanos +/- jitter_nanos (seeded uniform;
  // empty substring matches every file). Replaces any previous rule for the
  // same substring; mean 0 with jitter 0 removes the rule.
  void InjectLatency(const std::string& substring, uint64_t mean_nanos,
                     uint64_t jitter_nanos = 0);
  void ClearLatency();

 private:
  friend class ResourceFile;

  struct LatencyRule {
    std::string substring;
    uint64_t mean_nanos = 0;
    uint64_t jitter_nanos = 0;
  };

  // Reserves up to `want` growth bytes against the quota. Returns the bytes
  // granted: `want` when it fits, the remaining capacity (possibly 0) when
  // it does not — the caller performs the short write and reports ENOSPC.
  // `allow_partial` is false for Write/Truncate, which fail whole.
  uint64_t ReserveGrowth(uint64_t want, bool allow_partial, bool* fits);
  // Returns reserved-but-unwritten bytes after a failed base op, or charges
  // a (possibly negative) settled delta from Truncate/Remove/Rename.
  void AdjustUsage(int64_t delta);

  // Sleeps per the first matching latency rule (called outside mu_).
  void MaybeDelay(const std::string& name);

  mutable base::Mutex mu_{"store.resource", base::LockRank::kStoreResource};
  DurableStore* base_;
  base::Rng rng_ LBC_GUARDED_BY(mu_);
  uint64_t quota_ LBC_GUARDED_BY(mu_) = 0;  // 0 = unlimited
  uint64_t used_ LBC_GUARDED_BY(mu_) = 0;
  uint64_t enospc_ LBC_GUARDED_BY(mu_) = 0;
  std::vector<LatencyRule> latency_ LBC_GUARDED_BY(mu_);
};

}  // namespace store

#endif  // SRC_STORE_RESOURCE_STORE_H_
