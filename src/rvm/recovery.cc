#include "src/rvm/recovery.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "src/obs/metrics.h"
#include "src/rvm/log_format.h"
#include "src/rvm/log_io.h"
#include "src/rvm/log_merge.h"
#include "src/rvm/page_checksum.h"

namespace rvm {
namespace {

// Process-wide recovery instruments (rvm.*): recovery is a whole-cluster
// event, so these are totals rather than per-node counters.
struct RecoveryMetrics {
  obs::Counter* replays;              // ReplayLogsIntoDatabase invocations
  obs::Counter* torn_tails_detected;  // log scans that hit a torn tail
};

RecoveryMetrics* GlobalRecoveryMetrics() {
  static RecoveryMetrics* metrics = [] {
    auto* reg = obs::MetricsRegistry::Global();
    auto* m = new RecoveryMetrics();
    m->replays = reg->GetCounter("rvm.recovery_replays");
    m->torn_tails_detected = reg->GetCounter("rvm.torn_tails_detected");
    return m;
  }();
  return metrics;
}

// Reads `len` bytes at `offset` into *out, as zeros past end of file and
// only there: inside the file a short read is an error, not zeros.
base::Status ReadZeroPadded(store::DurableFile* file, uint64_t offset, size_t len,
                            std::vector<uint8_t>* out) {
  out->assign(len, 0);
  ASSIGN_OR_RETURN(uint64_t file_size, file->Size());
  if (offset < file_size) {
    RETURN_IF_ERROR(
        file->ReadExact(offset, out->data(), std::min<uint64_t>(len, file_size - offset)));
  }
  return base::OkStatus();
}

// The CRC of each kDbPageSize page of a run's image.
std::vector<uint32_t> PageCrcs(const std::vector<uint8_t>& image) {
  std::vector<uint32_t> crcs;
  for (size_t offset = 0; offset < image.size(); offset += kDbPageSize) {
    crcs.push_back(PageCrc(image.data() + offset, kDbPageSize));
  }
  return crcs;
}

}  // namespace

base::Result<std::vector<TransactionRecord>> ReadLogTransactions(store::DurableStore* store,
                                                                 const std::string& log_name,
                                                                 bool* tail_was_torn) {
  ASSIGN_OR_RETURN(auto file, store->Open(log_name, /*create=*/false));
  LogReader reader(file.get());
  std::vector<TransactionRecord> txns;
  std::vector<uint8_t> payload;
  bool at_end = false;
  while (true) {
    RETURN_IF_ERROR(reader.ReadNext(&payload, &at_end));
    if (at_end) {
      break;
    }
    base::ByteSpan span(payload.data(), payload.size());
    ASSIGN_OR_RETURN(LogRecordKind kind, PeekKind(span));
    if (kind == LogRecordKind::kCheckpoint) {
      // A checkpoint payload is exactly its kind byte. Anything longer is a
      // forged or mis-framed record — and a checkpoint CLEARS the recovered
      // prefix, so accepting a loose one would silently truncate recovery.
      if (span.size() != 1) {
        return base::DataLoss("checkpoint record with trailing bytes");
      }
      // Everything before a checkpoint is already in the database files.
      txns.clear();
      continue;
    }
    TransactionRecord txn;
    RETURN_IF_ERROR(DecodeTransaction(span, &txn));
    txns.push_back(std::move(txn));
  }
  if (reader.tail_was_torn()) {
    GlobalRecoveryMetrics()->torn_tails_detected->Increment();
  }
  if (tail_was_torn != nullptr) {
    *tail_was_torn = reader.tail_was_torn();
  }
  return txns;
}

ReplayWriteSet::ReplayWriteSet(store::DurableStore* store, ReplayOptions options)
    : store_(store), options_(std::move(options)) {}

base::Status ReplayWriteSet::Apply(const RangeImage& range) {
  if (files_.find(range.region) == files_.end()) {
    ASSIGN_OR_RETURN(auto file, store_->Open(RegionFileName(range.region), /*create=*/true));
    files_.emplace(range.region, std::move(file));
  }
  if (range.data.empty()) {
    return base::OkStatus();
  }
  uint64_t first_page = range.offset / kDbPageSize;
  uint64_t last_page = (range.offset + range.data.size() - 1) / kDbPageSize;
  bool marked = false;
  for (uint64_t page = first_page; page <= last_page; ++page) {
    if (!options_.page_filter || options_.page_filter(range.region, page)) {
      marked_.emplace(range.region, page);
      marked = true;
    }
  }
  if (marked) {
    staged_.push_back(&range);
  }
  return base::OkStatus();
}

base::Status ReplayWriteSet::Load() {
  for (auto it = marked_.begin(); it != marked_.end();) {
    Run& run = runs_.emplace_back();
    run.region = it->first;
    run.first_page = it->second;
    do {
      ++run.pages;
      ++it;
    } while (it != marked_.end() &&
             *it == std::make_pair(run.region, run.first_page + run.pages));
    // Past end of file the pre-image is zeros, matching file growth.
    RETURN_IF_ERROR(ReadZeroPadded(files_[run.region].get(), run.first_page * kDbPageSize,
                                   run.pages * kDbPageSize, &run.image));
    if (options_.verify_preimages) {
      run.pre_crcs = PageCrcs(run.image);
      run.covered.assign(run.image.size(), 0);
    }
  }
  for (const RangeImage* range : staged_) {
    const uint64_t end = range->offset + range->data.size();
    // The first run of the range's region that ends at or after its first
    // page; the runs it overlaps follow in order.
    auto run = std::lower_bound(
        runs_.begin(), runs_.end(), std::make_pair(range->region, range->offset / kDbPageSize),
        [](const Run& r, const std::pair<RegionId, uint64_t>& key) {
          return std::make_pair(r.region, r.first_page + r.pages - 1) < key;
        });
    for (; run != runs_.end() && run->region == range->region &&
           run->first_page * kDbPageSize < end;
         ++run) {
      const uint64_t run_start = run->first_page * kDbPageSize;
      const uint64_t lo = std::max(range->offset, run_start);
      const uint64_t hi = std::min<uint64_t>(end, run_start + run->image.size());
      std::memcpy(run->image.data() + (lo - run_start), range->data.data() + (lo - range->offset),
                  hi - lo);
      if (options_.verify_preimages) {
        std::memset(run->covered.data() + (lo - run_start), 1, hi - lo);
      }
    }
  }
  return base::OkStatus();
}

base::Status ReplayWriteSet::Commit() {
  RETURN_IF_ERROR(Load());
  std::map<RegionId, std::unique_ptr<ChecksumSidecar>> sidecars;
  auto sidecar_for = [&](RegionId region) -> base::Result<ChecksumSidecar*> {
    auto it = sidecars.find(region);
    if (it == sidecars.end()) {
      ASSIGN_OR_RETURN(auto sidecar, ChecksumSidecar::Open(store_, region, /*create=*/true));
      it = sidecars.emplace(region, std::move(sidecar)).first;
    }
    return it->second.get();
  };
  // Writes every run's entries — its pages' final-image CRCs, or cleared
  // entries — and syncs the sidecars.
  auto write_entries = [&](bool clear) -> base::Status {
    for (const Run& run : runs_) {
      ASSIGN_OR_RETURN(ChecksumSidecar * sidecar, sidecar_for(run.region));
      RETURN_IF_ERROR(clear ? sidecar->ClearEntries(run.first_page, run.pages)
                            : sidecar->WriteEntries(run.first_page, PageCrcs(run.image)));
    }
    for (auto& [region, sidecar] : sidecars) {
      RETURN_IF_ERROR(sidecar->Sync());
    }
    return base::OkStatus();
  };
  if (options_.verify_preimages) {
    // Rot gate: check every pre-image against its sidecar entry before
    // mutating anything, so a DATA_LOSS leaves the store untouched.
    for (const Run& run : runs_) {
      ASSIGN_OR_RETURN(ChecksumSidecar * sidecar, sidecar_for(run.region));
      ASSIGN_OR_RETURN(auto entries, sidecar->ReadEntries(run.first_page, run.pages));
      for (uint64_t i = 0; i < run.pages; ++i) {
        const uint8_t* covered = run.covered.data() + i * kDbPageSize;
        bool fully_covered =
            std::find(covered, covered + kDbPageSize, 0) == covered + kDbPageSize;
        if (!entries[i].has_value()) {
          GlobalIntegrityMetrics()->pages_unverified->Increment();
        } else if (*entries[i] == run.pre_crcs[i]) {
          GlobalIntegrityMetrics()->pages_verified->Increment();
        } else if (!fully_covered) {
          // A fully covered page's rotten pre-image is irrelevant: redo
          // overwrites every byte. Anything else is rot.
          GlobalIntegrityMetrics()->verify_failures->Increment();
          return base::DataLoss("pre-image failed sidecar verification before replay: region " +
                                std::to_string(run.region) + " page " +
                                std::to_string(run.first_page + i));
        }
      }
    }
  }
  // The entries follow the data, so clear them first: a power cut before
  // they are rewritten leaves pages that verify vacuously, never new bytes
  // under old checksums — which the next boot's gated replay would read as
  // rot — nor a certified image that newer redo has since moved past.
  RETURN_IF_ERROR(write_entries(/*clear=*/true));
  for (const Run& run : runs_) {
    RETURN_IF_ERROR(files_[run.region]->Write(run.first_page * kDbPageSize,
                                              base::ByteSpan(run.image.data(), run.image.size())));
  }
  // Sync every opened file — even ones with no marked pages, so full
  // replay keeps its "database durable before log truncation" guarantee for
  // regions touched only by empty ranges.
  for (auto& [region, file] : files_) {
    RETURN_IF_ERROR(file->Sync());
  }
  // Read-back verification of every replayed page.
  std::vector<uint8_t> readback;
  for (const Run& run : runs_) {
    RETURN_IF_ERROR(ReadZeroPadded(files_[run.region].get(), run.first_page * kDbPageSize,
                                   run.image.size(), &readback));
    for (uint64_t i = 0; i < run.pages; ++i) {
      if (std::memcmp(readback.data() + i * kDbPageSize, run.image.data() + i * kDbPageSize,
                      kDbPageSize) != 0) {
        GlobalIntegrityMetrics()->verify_failures->Increment();
        return base::DataLoss("replayed page failed read-back verification: region " +
                              std::to_string(run.region) + " page " +
                              std::to_string(run.first_page + i));
      }
      GlobalIntegrityMetrics()->pages_verified->Increment();
    }
  }
  // The entries come straight from the images the read-back just verified.
  return write_entries(/*clear=*/false);
}

base::Status ApplyToDatabase(store::DurableStore* store,
                             const std::vector<TransactionRecord>& txns) {
  ReplayWriteSet writes(store);
  for (const auto& txn : txns) {
    for (const auto& range : txn.ranges) {
      RETURN_IF_ERROR(writes.Apply(range));
    }
  }
  return writes.Commit();
}

base::Status ReplayLogsIntoDatabase(store::DurableStore* store,
                                    const std::vector<std::string>& log_names) {
  GlobalRecoveryMetrics()->replays->Increment();
  // A named log may not exist: a node that crashed before its first flush
  // never made the file durable. Such a node has no committed transactions,
  // so its log reads as empty.
  std::vector<std::string> present;
  for (const std::string& name : log_names) {
    ASSIGN_OR_RETURN(bool exists, store->Exists(name));
    if (exists) {
      present.push_back(name);
    }
  }
  if (present.empty()) {
    return base::OkStatus();
  }
  if (present.size() == 1) {
    ASSIGN_OR_RETURN(auto txns, ReadLogTransactions(store, present[0]));
    return ApplyToDatabase(store, txns);
  }
  ASSIGN_OR_RETURN(auto merged, MergeLogs(store, present));
  return ApplyToDatabase(store, merged);
}

}  // namespace rvm
