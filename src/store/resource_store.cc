#include "src/store/resource_store.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/store/store_metrics.h"

namespace store {
namespace {

base::Status Enospc(const std::string& name, uint64_t want, uint64_t granted) {
  GlobalStoreMetrics()->resource_enospc->Increment();
  return base::ResourceExhausted("ENOSPC: " + name + ": " +
                                 std::to_string(granted) + "/" +
                                 std::to_string(want) + " bytes fit the quota");
}

}  // namespace

// A handle that charges growth against the owner's quota and injects the
// owner's per-file latency. The owner's mutex is never held across an I/O
// call on the base file, so the decorator composes with any store nesting
// without adding lock-order edges.
class ResourceFile : public DurableFile {
 public:
  ResourceFile(ResourceStore* owner, std::string name,
               std::unique_ptr<DurableFile> base)
      : owner_(owner), name_(std::move(name)), base_(std::move(base)) {}

  base::Result<size_t> Read(uint64_t offset, void* buf, size_t len) override {
    owner_->MaybeDelay(name_);
    return base_->Read(offset, buf, len);
  }

  base::Status Write(uint64_t offset, base::ByteSpan data) override {
    owner_->MaybeDelay(name_);
    ASSIGN_OR_RETURN(uint64_t size, base_->Size());
    uint64_t end = offset + data.size();
    uint64_t growth = end > size ? end - size : 0;
    if (growth > 0) {
      bool fits = false;
      owner_->ReserveGrowth(growth, /*allow_partial=*/false, &fits);
      if (!fits) {
        // Whole-op failure: nothing of a quota-busting pwrite lands.
        return Enospc(name_, growth, 0);
      }
    }
    base::Status st = base_->Write(offset, data);
    if (!st.ok() && growth > 0) {
      owner_->AdjustUsage(-static_cast<int64_t>(growth));
    }
    return st;
  }

  base::Result<uint64_t> Append(base::ByteSpan data) override {
    owner_->MaybeDelay(name_);
    bool fits = false;
    uint64_t granted =
        owner_->ReserveGrowth(data.size(), /*allow_partial=*/true, &fits);
    if (fits) {
      auto r = base_->Append(data);
      if (!r.ok()) {
        owner_->AdjustUsage(-static_cast<int64_t>(data.size()));
      }
      return r;
    }
    // Deterministic short write: the bytes that fit reach the media (the
    // torn tail a real ENOSPC append leaves), then the op reports failure.
    if (granted > 0) {
      auto r = base_->Append(base::ByteSpan(data.data(), granted));
      if (!r.ok()) {
        owner_->AdjustUsage(-static_cast<int64_t>(granted));
        return r.status();
      }
      GlobalStoreMetrics()->resource_short_appends->Increment();
    }
    return Enospc(name_, data.size(), granted);
  }

  base::Status Sync() override {
    owner_->MaybeDelay(name_);
    return base_->Sync();
  }

  base::Result<uint64_t> Size() const override { return base_->Size(); }

  base::Status Truncate(uint64_t size) override {
    owner_->MaybeDelay(name_);
    ASSIGN_OR_RETURN(uint64_t cur, base_->Size());
    if (size > cur) {
      bool fits = false;
      owner_->ReserveGrowth(size - cur, /*allow_partial=*/false, &fits);
      if (!fits) {
        return Enospc(name_, size - cur, 0);
      }
      base::Status st = base_->Truncate(size);
      if (!st.ok()) {
        owner_->AdjustUsage(-static_cast<int64_t>(size - cur));
      }
      return st;
    }
    RETURN_IF_ERROR(base_->Truncate(size));
    owner_->AdjustUsage(-static_cast<int64_t>(cur - size));
    return base::OkStatus();
  }

 private:
  ResourceStore* owner_;
  std::string name_;
  std::unique_ptr<DurableFile> base_;
};

ResourceStore::ResourceStore(DurableStore* base, uint64_t seed)
    : base_(base), rng_(seed) {}

base::Result<std::unique_ptr<DurableFile>> ResourceStore::Open(
    const std::string& name, bool create) {
  ASSIGN_OR_RETURN(auto file, base_->Open(name, create));
  return std::unique_ptr<DurableFile>(
      new ResourceFile(this, name, std::move(file)));
}

base::Status ResourceStore::Remove(const std::string& name) {
  // Settle the freed bytes only after the base accepted the removal.
  uint64_t freed = 0;
  ASSIGN_OR_RETURN(bool exists, base_->Exists(name));
  if (exists) {
    ASSIGN_OR_RETURN(auto file, base_->Open(name, /*create=*/false));
    ASSIGN_OR_RETURN(freed, file->Size());
  }
  RETURN_IF_ERROR(base_->Remove(name));
  AdjustUsage(-static_cast<int64_t>(freed));
  return base::OkStatus();
}

base::Result<bool> ResourceStore::Exists(const std::string& name) {
  return base_->Exists(name);
}

base::Result<std::vector<std::string>> ResourceStore::List() {
  return base_->List();
}

base::Status ResourceStore::Rename(const std::string& from,
                                   const std::string& to) {
  // Renaming over an existing file frees the overwritten bytes.
  uint64_t freed = 0;
  ASSIGN_OR_RETURN(bool exists, base_->Exists(to));
  if (exists && to != from) {
    ASSIGN_OR_RETURN(auto file, base_->Open(to, /*create=*/false));
    ASSIGN_OR_RETURN(freed, file->Size());
  }
  RETURN_IF_ERROR(base_->Rename(from, to));
  AdjustUsage(-static_cast<int64_t>(freed));
  return base::OkStatus();
}

base::Status ResourceStore::SyncDir() { return base_->SyncDir(); }

base::Status ResourceStore::SetQuotaBytes(uint64_t bytes) {
  RETURN_IF_ERROR(RescanUsage());
  base::MutexLock lock(mu_);
  quota_ = bytes;
  return base::OkStatus();
}

base::Status ResourceStore::RescanUsage() {
  // Scan outside mu_ (never hold our mutex across base I/O); callers rescan
  // before concurrent traffic starts, as with the other injectors.
  uint64_t used = 0;
  ASSIGN_OR_RETURN(auto names, base_->List());
  for (const auto& name : names) {
    ASSIGN_OR_RETURN(auto file, base_->Open(name, /*create=*/false));
    ASSIGN_OR_RETURN(uint64_t size, file->Size());
    used += size;
  }
  base::MutexLock lock(mu_);
  used_ = used;
  return base::OkStatus();
}

uint64_t ResourceStore::quota_bytes() const {
  base::MutexLock lock(mu_);
  return quota_;
}

uint64_t ResourceStore::used_bytes() const {
  base::MutexLock lock(mu_);
  return used_;
}

uint64_t ResourceStore::enospc_count() const {
  base::MutexLock lock(mu_);
  return enospc_;
}

void ResourceStore::InjectLatency(const std::string& substring,
                                  uint64_t mean_nanos, uint64_t jitter_nanos) {
  base::MutexLock lock(mu_);
  auto it = std::find_if(
      latency_.begin(), latency_.end(),
      [&](const LatencyRule& r) { return r.substring == substring; });
  if (mean_nanos == 0 && jitter_nanos == 0) {
    if (it != latency_.end()) {
      latency_.erase(it);
    }
    return;
  }
  if (it == latency_.end()) {
    latency_.push_back({substring, mean_nanos, jitter_nanos});
  } else {
    it->mean_nanos = mean_nanos;
    it->jitter_nanos = jitter_nanos;
  }
}

void ResourceStore::ClearLatency() {
  base::MutexLock lock(mu_);
  latency_.clear();
}

uint64_t ResourceStore::ReserveGrowth(uint64_t want, bool allow_partial,
                                      bool* fits) {
  base::MutexLock lock(mu_);
  if (quota_ == 0 || used_ + want <= quota_) {
    used_ += want;
    *fits = true;
    return want;
  }
  *fits = false;
  ++enospc_;
  if (!allow_partial) {
    return 0;
  }
  uint64_t granted = quota_ > used_ ? quota_ - used_ : 0;
  used_ += granted;
  return granted;
}

void ResourceStore::AdjustUsage(int64_t delta) {
  base::MutexLock lock(mu_);
  if (delta < 0 && used_ < static_cast<uint64_t>(-delta)) {
    used_ = 0;  // out-of-band shrink already settled; clamp, don't wrap
    return;
  }
  used_ += delta;
}

void ResourceStore::MaybeDelay(const std::string& name) {
  uint64_t nanos = 0;
  {
    base::MutexLock lock(mu_);
    for (const auto& rule : latency_) {
      if (name.find(rule.substring) != std::string::npos) {
        uint64_t lo = rule.mean_nanos > rule.jitter_nanos
                          ? rule.mean_nanos - rule.jitter_nanos
                          : 0;
        nanos = lo + (rule.jitter_nanos > 0
                          ? rng_.Uniform(2 * rule.jitter_nanos + 1)
                          : 0);
        break;
      }
    }
  }
  if (nanos == 0) {
    return;
  }
  StoreMetrics* m = GlobalStoreMetrics();
  m->resource_delays->Increment();
  m->resource_delay_nanos->Add(nanos);
  std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
}

}  // namespace store
