// Recovery: replays committed redo records into the permanent database
// files, restoring the last committed state after a crash (write-ahead
// logging invariant). Replay is idempotent — records carry absolute new
// values — so a crash during recovery is harmless.
//
// With multiple clients each writing its own log, the logs are first merged
// into a single serial order using the lock records (see log_merge.h),
// exactly as the paper's new RVM merge utility does (§3.4).
#ifndef SRC_RVM_RECOVERY_H_
#define SRC_RVM_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/rvm/types.h"
#include "src/store/durable_store.h"

namespace rvm {

// Reads all valid transaction records from a log file, stopping cleanly at
// a torn tail (reported via *tail_was_torn when non-null).
base::Result<std::vector<TransactionRecord>> ReadLogTransactions(
    store::DurableStore* store, const std::string& log_name, bool* tail_was_torn = nullptr);

// The single replay core shared by the trim paths' full replay
// (ApplyToDatabase), recovery's per-region page replay (replay_on_demand.h),
// and the standby checkpoint's image write (lbc::CheckpointFromStandby).
//
// Apply() only stages a redo range and marks the pages it touches; it reads
// and writes nothing. Commit() groups the marked pages into runs — maximal
// stretches of consecutive marked pages of one region — and issues one
// device op per run at each stage, in one order for every caller:
//   1. read the run's pre-image (zero-filled past end of file, and only
//      there), then apply the staged ranges in call order;
//   2. (verify_preimages) read the run's sidecar entries, check each page;
//   3. clear the run's entries, then sync the sidecars;
//   4. write the run's image, then sync every opened database file;
//   5. read the run back and verify each page against its image;
//   6. write the run's entries from those verified images, then sync the
//      sidecars.
// So the CRC/sidecar logic exists exactly once. A power cut anywhere in
// between leaves entries that are either cleared (the page verifies
// vacuously) or describe bytes already durable; never old checksums over
// new bytes, nor a checksum of an image the data never reached.
//
// Options:
//   page_filter      When set, only pages for which it returns true are
//                    marked and written (a recovery batch's claimed pages),
//                    so a run never spans a page the filter rejects.
//   verify_preimages Recovery's rot gate. Before any mutation, each marked
//                    page's pre-image is checked against its existing
//                    sidecar entry. A mismatch is accepted only when the
//                    pending redo covers the whole page, in which case the
//                    pre-image is irrelevant. Any other mismatch is genuine
//                    rot under partially-covering redo: Commit fails with
//                    DATA_LOSS before writing a byte, so the caller routes
//                    the page through the Scrubber instead of laundering the
//                    rot into a freshly certified page. An interrupted
//                    earlier replay of the same page is never mistaken for
//                    rot: it left the entry cleared.
struct ReplayOptions {
  std::function<bool(RegionId, uint64_t)> page_filter;
  bool verify_preimages = false;
};

class ReplayWriteSet {
 public:
  explicit ReplayWriteSet(store::DurableStore* store, ReplayOptions options = {});

  // Stages one redo range and marks its pages (opens the region's database
  // file; no reads or writes). The range is kept by reference: it must stay
  // alive and unchanged until Commit() returns.
  base::Status Apply(const RangeImage& range);
  base::Status Apply(RangeImage&& range) = delete;
  // Loads, writes, syncs, read-back-verifies, and checksums every marked
  // page, run by run. The sidecar entries are cleared and synced BEFORE the
  // data, so a crash mid-write leaves pages that verify vacuously.
  base::Status Commit();

 private:
  // A maximal stretch of consecutive marked pages of one region.
  struct Run {
    RegionId region = 0;
    uint64_t first_page = 0;
    uint64_t pages = 0;
    std::vector<uint8_t> image;      // pre-image + redo, zero-padded
    std::vector<uint32_t> pre_crcs;  // per-page pre-image CRC (verify mode)
    std::vector<uint8_t> covered;    // per-byte redo coverage (verify mode)
  };

  // Groups the marked pages into runs_, reads each run's pre-image with one
  // read, and applies the staged ranges in call order.
  base::Status Load();

  store::DurableStore* store_;
  ReplayOptions options_;
  std::map<RegionId, std::unique_ptr<store::DurableFile>> files_;
  std::vector<const RangeImage*> staged_;
  std::set<std::pair<RegionId, uint64_t>> marked_;
  std::vector<Run> runs_;  // ordered by (region, first_page)
};

// Applies transactions, in the given order, to the region database files.
base::Status ApplyToDatabase(store::DurableStore* store,
                             const std::vector<TransactionRecord>& txns);

// Full recovery path: read the named logs, merge them into a single order
// (single log: no merge needed), and replay into the database files. A
// named log that does not exist is treated as empty — a node that crashed
// before its first flush has no durable log and nothing to recover. Logs
// are left intact; callers truncate them afterwards if desired.
base::Status ReplayLogsIntoDatabase(store::DurableStore* store,
                                    const std::vector<std::string>& log_names);

}  // namespace rvm

#endif  // SRC_RVM_RECOVERY_H_
