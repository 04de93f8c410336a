// Pass-through DurableStore decorator that counts and times every device
// operation on its way to the store below, and records a store.* span per
// operation when tracing is on. Counts are kept in both modes (relaxed
// atomics); they are the store layer's per-layer figures.
#ifndef PERFBENCH_SRC_TIMED_STORE_H_
#define PERFBENCH_SRC_TIMED_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/store/durable_store.h"

namespace perfbench {

struct StoreCounts {
  uint64_t ops = 0;  // Read + Write + Append + Sync + Truncate + namespace ops
  uint64_t syncs = 0;
  uint64_t sync_nanos = 0;

  StoreCounts operator-(const StoreCounts& o) const {
    return {ops - o.ops, syncs - o.syncs, sync_nanos - o.sync_nanos};
  }
  StoreCounts& operator+=(const StoreCounts& o) {
    ops += o.ops;
    syncs += o.syncs;
    sync_nanos += o.sync_nanos;
    return *this;
  }
};

class TimedStore : public store::DurableStore {
 public:
  // Does not own `base`; it must outlive this store and its handles.
  explicit TimedStore(store::DurableStore* base) : base_(base) {}

  base::Result<std::unique_ptr<store::DurableFile>> Open(const std::string& name,
                                                         bool create) override;
  base::Status Remove(const std::string& name) override;
  base::Result<bool> Exists(const std::string& name) override;
  base::Result<std::vector<std::string>> List() override;
  base::Status Rename(const std::string& from, const std::string& to) override;
  base::Status SyncDir() override;

  StoreCounts counts() const;

 private:
  friend class TimedFile;
  void CountOp() { ops_.fetch_add(1, std::memory_order_relaxed); }
  void CountSync(uint64_t nanos);

  store::DurableStore* base_;
  std::atomic<uint64_t> ops_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> sync_nanos_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TIMED_STORE_H_
