// Replay-on-first-touch over a LogIndex: the serving half of recovery.
//
// A restarting server does not replay the merged history before it serves.
// IncrementalRecovery tracks, per indexed page, whether its redo has been
// materialized into the database file yet, and replays a region's pending
// pages the first time anything needs them — a client mapping the region,
// the background drainer, or a synchronous DrainRecovery barrier (a caller
// that wants replay-before-serve drains first). Once every page is done the
// object is retired by its owner.
//
// Per-page state machine (mu_, rank LockRank::kRecovery):
//
//   kPending ──claim──> kInProgress ──replayed──> kDone
//      ^                    │  │
//      └──── error ─────────┘  └── Extend() bumped the page's generation
//                                  mid-flight: back to kPending and replay
//                                  again with the newly indexed records.
//
// Replay is batched per region. The claiming thread marks every pending
// page of the region kInProgress and resolves their slices to the index's
// own redo ranges while holding mu_ (the history is a deque, so Extend
// appending records never moves one), releases mu_, and replays the batch
// through one ReplayWriteSet with verify_preimages=true: one data sync and
// one sidecar sync on each side of it per region, not per page. Page writes are
// serialized with the owner's other database writers via `io_mu` (the
// cluster passes its DbMutex). Threads needing a page another thread has in
// flight wait on the condvar; a non-zero deadline turns that wait into
// kDeadlineExceeded so a mapping client's transaction stays usable under a
// stalled drain.
//
// Invariant the crash sweep leans on: a page leaves kPending only through a
// CRC-gated replay (pre-image checked against the sidecar, entry cleared
// before the data, read-back verified and re-certified after), so a
// recovering server never serves an unreplayed or uncertified byte — rot
// discovered lazily fails the region's batch with DATA_LOSS before any
// write instead of being replayed over, and the caller routes it through
// the Scrubber.
#ifndef SRC_RVM_REPLAY_ON_DEMAND_H_
#define SRC_RVM_REPLAY_ON_DEMAND_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/base/status.h"
#include "src/base/sync.h"
#include "src/obs/metrics.h"
#include "src/rvm/log_index.h"
#include "src/rvm/types.h"
#include "src/store/durable_store.h"

namespace rvm {

// Process-wide incremental-recovery instruments (recovery.*).
// index_build_ms is advanced by LogIndex::Build and first_commit_ms by the
// cluster's admission path; they are registered here so the whole family
// exports together (zeros before the first restart).
struct IncrementalRecoveryMetrics {
  obs::Counter* index_build_ms;     // total ms spent building log indexes
  obs::Counter* pages_on_demand;    // pages materialized on first touch
  obs::Counter* pages_background;   // pages materialized by the drainer
  obs::Counter* first_commit_ms;    // recovery-start -> first admitted commit
};
IncrementalRecoveryMetrics* GlobalIncrementalRecoveryMetrics();

class IncrementalRecovery {
 public:
  // `io_mu` serializes this object's database-file writes with the owner's
  // other writers (lbc::Cluster passes its DbMutex); nullptr uses a private
  // mutex of the same rank (standalone use in tests and crash sweeps).
  IncrementalRecovery(store::DurableStore* store, LogIndex index,
                      base::Mutex* io_mu = nullptr);

  IncrementalRecovery(const IncrementalRecovery&) = delete;
  IncrementalRecovery& operator=(const IncrementalRecovery&) = delete;

  // Materializes every currently pending page of `region` as one batch
  // (first-touch path). deadline_ms > 0 bounds the time spent waiting on
  // pages another thread is already replaying; 0 waits indefinitely.
  base::Status MaterializeRegion(RegionId region, uint64_t deadline_ms = 0);

  // Background drain: replays the pending pages of one region
  // (deterministically the first in (region, page) order) as one batch.
  // Returns false when every page is done; blocks while the only remaining
  // pages are in flight on other threads. On error, *failed_region (if
  // non-null) names the region for repair.
  base::Result<bool> DrainStep(RegionId* failed_region = nullptr);

  bool Drained() const;
  uint64_t PendingPages() const;  // pages not yet kDone

  // Folds newly merged records (a dead client's log) into the index and
  // re-pends the pages they touch — including pages already materialized or
  // currently in flight (their generation is bumped so the in-flight replay
  // re-runs with the new records before the page is marked done).
  void Extend(std::vector<TransactionRecord> merged);

 private:
  enum class PageState { kPending, kInProgress, kDone };
  struct PageEntry {
    PageState state = PageState::kPending;
    uint64_t gen = 0;  // bumped by Extend while kInProgress
  };

  // The claim-and-replay routine behind both entry points: claims every
  // kPending page of `region`, replays them as one write set with mu_
  // released, and settles each page — kDone, or back to kPending when the
  // replay failed or Extend bumped the page's generation mid-flight. The
  // drainer (`background`) returns after one batch; first touch repeats
  // until no page of the region is pending or in flight elsewhere.
  base::Status ReplayRegion(RegionId region, uint64_t deadline_ms, bool background)
      LBC_EXCLUDES(mu_);

  store::DurableStore* store_;
  base::Mutex own_io_mu_{"rvm.recovery.io", base::LockRank::kClusterDb};
  base::Mutex* io_mu_;
  mutable base::Mutex mu_{"rvm.recovery", base::LockRank::kRecovery};
  base::CondVar cv_;
  LogIndex index_ LBC_GUARDED_BY(mu_);
  std::map<LogIndex::PageKey, PageEntry> pages_ LBC_GUARDED_BY(mu_);
  uint64_t pending_ LBC_GUARDED_BY(mu_) = 0;  // pages not kDone
};

}  // namespace rvm

#endif  // SRC_RVM_REPLAY_ON_DEMAND_H_
