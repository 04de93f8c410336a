#include "src/rvm/replay_on_demand.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "src/rvm/recovery.h"

namespace rvm {

IncrementalRecoveryMetrics* GlobalIncrementalRecoveryMetrics() {
  static IncrementalRecoveryMetrics* metrics = [] {
    auto* reg = obs::MetricsRegistry::Global();
    auto* m = new IncrementalRecoveryMetrics();
    m->index_build_ms = reg->GetCounter("recovery.index_build_ms");
    m->pages_on_demand = reg->GetCounter("recovery.pages_on_demand");
    m->pages_background = reg->GetCounter("recovery.pages_background");
    m->first_commit_ms = reg->GetCounter("recovery.first_commit_ms");
    return m;
  }();
  return metrics;
}

IncrementalRecovery::IncrementalRecovery(store::DurableStore* store, LogIndex index,
                                         base::Mutex* io_mu)
    : store_(store), io_mu_(io_mu != nullptr ? io_mu : &own_io_mu_) {
  base::MutexLock lk(mu_);
  index_ = std::move(index);
  for (const auto& key : index_.Pages()) {
    pages_.emplace(key, PageEntry{});
  }
  pending_ = pages_.size();
}

base::Status IncrementalRecovery::MaterializeRegion(RegionId region,
                                                    uint64_t deadline_ms) {
  return ReplayRegion(region, deadline_ms, /*background=*/false);
}

base::Status IncrementalRecovery::ReplayRegion(RegionId region, uint64_t deadline_ms,
                                               bool background) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  base::MutexLock lk(mu_);
  for (;;) {
    std::vector<uint64_t> claimed;  // ascending page numbers
    std::vector<uint64_t> gens;     // each claimed page's generation at claim
    std::vector<LogIndex::Slice> slices;
    bool in_flight = false;
    for (auto it = pages_.lower_bound({region, 0});
         it != pages_.end() && it->first.first == region; ++it) {
      PageEntry& entry = it->second;
      if (entry.state == PageState::kInProgress) {
        in_flight = true;
      } else if (entry.state == PageState::kPending) {
        entry.state = PageState::kInProgress;
        claimed.push_back(it->first.second);
        gens.push_back(entry.gen);
        const std::vector<LogIndex::Slice>* page_slices =
            index_.SlicesFor(region, it->first.second);
        slices.insert(slices.end(), page_slices->begin(), page_slices->end());
      }
    }
    if (claimed.empty()) {
      if (!in_flight || background) {
        return base::OkStatus();
      }
      if (deadline_ms == 0) {
        cv_.Wait(lk);
      } else if (!cv_.WaitUntil(lk, deadline)) {
        return base::DeadlineExceeded("timed out waiting for page replay: region " +
                                      std::to_string(region));
      }
      continue;
    }
    // A range spanning several claimed pages is applied once; merged order
    // is slice order, so every page still sees its redo in sequence.
    std::sort(slices.begin(), slices.end());
    slices.erase(std::unique(slices.begin(), slices.end()), slices.end());
    std::vector<const RangeImage*> ranges;
    ranges.reserve(slices.size());
    for (const LogIndex::Slice& s : slices) {
      ranges.push_back(&index_.transactions()[s.txn].ranges[s.range]);
    }
    lk.Unlock();
    base::Status replayed = [&]() -> base::Status {
      base::MutexLock io(*io_mu_);
      ReplayOptions options;
      options.verify_preimages = true;
      options.page_filter = [region, &claimed](RegionId r, uint64_t page) {
        return r == region && std::binary_search(claimed.begin(), claimed.end(), page);
      };
      ReplayWriteSet writes(store_, std::move(options));
      for (const RangeImage* range : ranges) {
        RETURN_IF_ERROR(writes.Apply(*range));
      }
      return writes.Commit();
    }();
    lk.Lock();
    auto* m = GlobalIncrementalRecoveryMetrics();
    for (size_t i = 0; i < claimed.size(); ++i) {
      PageEntry& entry = pages_[{region, claimed[i]}];
      if (!replayed.ok() || entry.gen != gens[i]) {
        // Failed: stays recoverable (repair + retry). Re-extended: replay
        // again so the page is never done while redo for it is outstanding.
        entry.state = PageState::kPending;
        continue;
      }
      entry.state = PageState::kDone;
      --pending_;
      (background ? m->pages_background : m->pages_on_demand)->Increment();
    }
    cv_.NotifyAll();
    if (!replayed.ok() || background) {
      return replayed;
    }
  }
}

base::Result<bool> IncrementalRecovery::DrainStep(RegionId* failed_region) {
  RegionId region = 0;
  {
    base::MutexLock lk(mu_);
    for (;;) {
      if (pending_ == 0) {
        return false;
      }
      auto it = std::find_if(pages_.begin(), pages_.end(), [](const auto& page) {
        return page.second.state == PageState::kPending;
      });
      if (it != pages_.end()) {
        region = it->first.first;
        break;
      }
      // Every remaining page is in flight on another thread; wait for one
      // to complete (or fail back to pending) rather than spinning.
      cv_.Wait(lk);
    }
  }
  base::Status st = ReplayRegion(region, /*deadline_ms=*/0, /*background=*/true);
  if (!st.ok()) {
    if (failed_region != nullptr) {
      *failed_region = region;
    }
    return st;
  }
  return true;
}

bool IncrementalRecovery::Drained() const {
  base::MutexLock lk(mu_);
  return pending_ == 0;
}

uint64_t IncrementalRecovery::PendingPages() const {
  base::MutexLock lk(mu_);
  return pending_;
}

void IncrementalRecovery::Extend(std::vector<TransactionRecord> merged) {
  base::MutexLock lk(mu_);
  std::vector<LogIndex::PageKey> touched = index_.Extend(std::move(merged));
  for (const LogIndex::PageKey& key : touched) {
    auto [it, inserted] = pages_.try_emplace(key);
    if (inserted) {
      ++pending_;
      continue;
    }
    switch (it->second.state) {
      case PageState::kDone:
        it->second.state = PageState::kPending;
        ++pending_;
        break;
      case PageState::kInProgress:
        ++it->second.gen;  // in-flight replay re-runs before marking done
        break;
      case PageState::kPending:
        break;
    }
  }
  cv_.NotifyAll();
}

}  // namespace rvm
