#include "src/rvm/rvm.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "src/base/clock.h"
#include "src/obs/metrics.h"
#include "src/rvm/log_format.h"
#include "src/rvm/page_checksum.h"

namespace rvm {
namespace {

// Process-wide log-quota backpressure instruments (backpressure.*), exported
// in bench/chaos snapshots. All zero on the clean path.
struct BackpressureMetrics {
  obs::Counter* stalls;         // commits blocked at the hard watermark
  obs::Counter* stall_nanos;    // total stalled time
  obs::Counter* trim_requests;  // trim-hook firings (soft crossings + stalls)
  obs::Counter* exhausted;      // stalls that expired -> RESOURCE_EXHAUSTED
};

BackpressureMetrics* GlobalBackpressureMetrics() {
  static BackpressureMetrics* metrics = [] {
    auto* reg = obs::MetricsRegistry::Global();
    auto* m = new BackpressureMetrics();
    m->stalls = reg->GetCounter("backpressure.stalls");
    m->stall_nanos = reg->GetCounter("backpressure.stall_nanos");
    m->trim_requests = reg->GetCounter("backpressure.trim_requests");
    m->exhausted = reg->GetCounter("backpressure.exhausted");
    return m;
  }();
  return metrics;
}

// Process-wide group-commit instruments (commit.batch.*), exported in bench
// snapshots. A batch of one is still a batch: one vectored write and at most
// one sync, exactly the pre-pipeline store-op sequence.
struct CommitBatchMetrics {
  obs::Counter* batches;            // leader drains (one vectored append each)
  obs::Counter* txns;               // transactions committed through the pipeline
  obs::Counter* bytes;              // framed bytes written by batches
  obs::Counter* fsyncs_saved;       // kFlush commits that shared another's sync
  obs::Histogram* size;             // transactions per batch
  obs::Histogram* cohort_wait_nanos;  // enqueue -> batch-completion wait
};

CommitBatchMetrics* GlobalCommitBatchMetrics() {
  static CommitBatchMetrics* metrics = [] {
    auto* reg = obs::MetricsRegistry::Global();
    auto* m = new CommitBatchMetrics();
    m->batches = reg->GetCounter("commit.batch.batches");
    m->txns = reg->GetCounter("commit.batch.txns");
    m->bytes = reg->GetCounter("commit.batch.bytes");
    m->fsyncs_saved = reg->GetCounter("commit.batch.fsyncs_saved");
    m->size = reg->GetHistogram("commit.batch.size");
    m->cohort_wait_nanos = reg->GetHistogram("commit.batch.cohort_wait_nanos");
    return m;
  }();
  return metrics;
}

}  // namespace

base::Result<std::unique_ptr<Rvm>> Rvm::Open(store::DurableStore* store, NodeId node,
                                             const RvmOptions& options) {
  std::unique_ptr<Rvm> rvm(new Rvm(store, node, options));
  RETURN_IF_ERROR(rvm->Init());
  return rvm;
}

base::Status Rvm::Init() {
  // Init runs before the instance escapes Open(), but commit_seq_ and log_
  // are guarded members and this is an ordinary method, so hold the lock.
  base::MutexLock lock(mu_);
  auto* reg = obs::MetricsRegistry::Global();
  obs_detect_nanos_ = reg->GetCounter(obs::NodeMetricName("rvm", node_, "detect_nanos"));
  obs_collect_nanos_ = reg->GetCounter(obs::NodeMetricName("rvm", node_, "collect_nanos"));
  obs_disk_nanos_ = reg->GetCounter(obs::NodeMetricName("rvm", node_, "disk_nanos"));
  obs_apply_nanos_ = reg->GetCounter(obs::NodeMetricName("rvm", node_, "apply_nanos"));
  obs_commits_ = reg->GetCounter(obs::NodeMetricName("rvm", node_, "commits"));
  obs_commit_latency_ =
      reg->GetHistogram(obs::NodeMetricName("rvm", node_, "commit_nanos"));

  ASSIGN_OR_RETURN(auto file, store_->Open(LogFileName(node_), /*create=*/true));
  // Append after any existing valid records; a torn tail is overwritten.
  uint64_t valid_end = 0;
  {
    LogReader reader(file.get());
    std::vector<uint8_t> payload;
    bool at_end = false;
    while (true) {
      RETURN_IF_ERROR(reader.ReadNext(&payload, &at_end));
      if (at_end) {
        break;
      }
      TransactionRecord txn;
      if (PeekKind(base::ByteSpan(payload.data(), payload.size())).ok() &&
          DecodeTransaction(base::ByteSpan(payload.data(), payload.size()), &txn).ok()) {
        commit_seq_ = std::max(commit_seq_, txn.commit_seq);
      }
      valid_end = reader.offset();
    }
  }
  {
    base::MutexLock log_lock(log_mu_);
    log_ = std::make_unique<LogWriter>(std::move(file), valid_end);
  }
  return base::OkStatus();
}

base::Result<Region*> Rvm::MapRegion(RegionId id, uint64_t length) {
  base::MutexLock lock(mu_);
  if (regions_.count(id)) {
    return base::AlreadyExists("region already mapped: " + std::to_string(id));
  }
  ASSIGN_OR_RETURN(auto file, store_->Open(RegionFileName(id), /*create=*/true));
  std::vector<uint8_t> image(length, 0);
  ASSIGN_OR_RETURN(uint64_t file_size, file->Size());
  uint64_t to_read = std::min<uint64_t>(file_size, length);
  if (to_read > 0) {
    RETURN_IF_ERROR(file->ReadExact(0, image.data(), to_read));
  }
  // Integrity gate on the image fetch: a page that fails its sidecar
  // checksum must not become a client's cached truth. Refuse the mapping
  // (DATA_LOSS) and leave repair to the scrubber — the client retries.
  ASSIGN_OR_RETURN(auto bad_pages,
                   VerifyImagePages(store_, id, image.data(), to_read, file_size));
  if (!bad_pages.empty()) {
    return base::DataLoss("region " + std::to_string(id) + " failed checksum on " +
                          std::to_string(bad_pages.size()) + " page(s); first bad page " +
                          std::to_string(bad_pages.front()));
  }
  auto region = std::make_unique<Region>(id, std::move(image));
  Region* raw = region.get();
  regions_[id] = std::move(region);
  return raw;
}

Region* Rvm::GetRegion(RegionId id) {
  base::MutexLock lock(mu_);
  auto it = regions_.find(id);
  return it == regions_.end() ? nullptr : it->second.get();
}

base::Status Rvm::UnmapRegion(RegionId id) {
  base::MutexLock lock(mu_);
  if (regions_.erase(id) == 0) {
    return base::NotFound("region not mapped: " + std::to_string(id));
  }
  return base::OkStatus();
}

TxnId Rvm::BeginTransaction(RestoreMode mode) {
  base::MutexLock lock(mu_);
  TxnId id = next_txn_++;
  Txn& txn = txns_[id];
  txn.mode = mode;
  txn.active = true;
  return id;
}

base::Status Rvm::SetRange(TxnId txn_id, RegionId region_id, uint64_t offset, uint64_t len) {
  obs::ScopedTimer timer(obs_detect_nanos_);
  base::MutexLock lock(mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end() || !it->second.active) {
    return base::FailedPrecondition("no such active transaction");
  }
  auto region_it = regions_.find(region_id);
  if (region_it == regions_.end()) {
    return base::NotFound("region not mapped: " + std::to_string(region_id));
  }
  Region* region = region_it->second.get();
  if (offset + len > region->size()) {
    return base::OutOfRange("set_range beyond region end");
  }

  Txn& txn = it->second;
  auto [ranges_it, inserted] =
      txn.ranges.try_emplace(region_id, RangeSet(options_.coalesce));
  AddOutcome outcome = ranges_it->second.Add(offset, len);

  // Undo copies: snapshot the declared range before the application mutates
  // it. Exact re-registrations skip the snapshot — the first registration
  // already holds the pre-transaction bytes, and undo entries are restored
  // in reverse order so earlier snapshots win.
  if (txn.mode == RestoreMode::kRestore && outcome != AddOutcome::kExactDuplicate) {
    Txn::UndoEntry undo;
    undo.region = region_id;
    undo.offset = offset;
    undo.old_data.assign(region->data() + offset, region->data() + offset + len);
    txn.undo.push_back(std::move(undo));
  }

  ++stats_.set_range_calls;
  if (outcome == AddOutcome::kExactDuplicate) {
    ++stats_.set_range_duplicates;
  }
  stats_.detect_nanos += timer.StopNanos();
  return base::OkStatus();
}

base::Status Rvm::SetLockId(TxnId txn_id, LockId lock, uint64_t sequence) {
  base::MutexLock lock_guard(mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end() || !it->second.active) {
    return base::FailedPrecondition("no such active transaction");
  }
  // Strict two-phase locking means each lock is acquired at most once per
  // transaction (§3.3); a repeated call updates the sequence number.
  for (auto& rec : it->second.locks) {
    if (rec.lock_id == lock) {
      rec.sequence = sequence;
      return base::OkStatus();
    }
  }
  it->second.locks.push_back(LockRecord{lock, sequence});
  return base::OkStatus();
}

base::Status Rvm::EndTransaction(TxnId txn_id, CommitMode mode) {
  // Whole-commit latency (gather + log write + commit hook) for the
  // histogram; the phase counters below split the same work.
  obs::ScopedTimer commit_timer(nullptr, obs_commit_latency_);
  CommitContext ctx;
  bool crossed_soft = false;
  {
    obs::ScopedTimer collect_timer(obs_collect_nanos_);
    base::MutexLock lock(mu_);

    // Hard-watermark backpressure: stall (never abort) until a trim frees
    // log space or the stall budget runs out. The wait releases mu_, so a
    // janitor thread can run TrimLogWithBaselines meanwhile; the first
    // staller also fires the trim hook itself, exactly once per episode.
    // Runs before the txn lookup because the lock is dropped.
    const uint64_t hard = options_.log_hard_limit_bytes;
    if (options_.disk_logging && hard > 0 && CurrentLogBytes() >= hard) {
      auto* bp = GlobalBackpressureMetrics();
      ++stats_.backpressure_stalls;
      bp->stalls->Increment();
      const uint64_t start = base::SteadyClock::Instance()->NowNanos();
      const uint64_t deadline =
          start + options_.backpressure_stall_ms * 1'000'000ull;
      base::Status stall_status = base::OkStatus();
      while (CurrentLogBytes() >= hard) {
        // Deadline first, re-read every iteration: both the trim hook and
        // the condvar wait release mu_ for unbounded stretches, so any step
        // below may land back here long past the budget.
        uint64_t now = base::SteadyClock::Instance()->NowNanos();
        if (now >= deadline) {
          ++stats_.commits_exhausted;
          bp->exhausted->Increment();
          stall_status = base::ResourceExhausted(
              "log quota: " + std::to_string(CurrentLogBytes()) +
              " bytes at hard watermark " + std::to_string(hard) +
              " and trim freed no space");
          break;
        }
        // One hook firing per stall episode across ALL stalled commits: the
        // guard is shared state cleared by the trims themselves, not a
        // per-caller local, so late arrivals wait for the in-flight trim
        // instead of stacking redundant requests behind it.
        if (trim_hook_ && !trim_hook_fired_) {
          trim_hook_fired_ = true;
          ++stats_.trim_requests;
          bp->trim_requests->Increment();
          uint64_t used = CurrentLogBytes();
          lock.Unlock();
          trim_hook_(used, hard);
          lock.Lock();
          log_space_cv_.NotifyAll();
          continue;
        }
        // Clamp the nap to the remaining budget: a wait granted just under
        // the deadline must not overshoot it by a full tick.
        log_space_cv_.WaitFor(
            lock, std::chrono::nanoseconds(
                      std::min<uint64_t>(deadline - now, 5'000'000ull)));
      }
      uint64_t stalled = base::SteadyClock::Instance()->NowNanos() - start;
      stats_.backpressure_stall_nanos += stalled;
      bp->stall_nanos->Add(stalled);
      // The transaction stays active on failure: the caller may trim out of
      // band and retry EndTransaction, or abort.
      RETURN_IF_ERROR(stall_status);
    }

    auto it = txns_.find(txn_id);
    if (it == txns_.end() || !it->second.active) {
      return base::FailedPrecondition("no such active transaction");
    }
    Txn& txn = it->second;

    ctx.node = node_;
    ctx.commit_seq = ++commit_seq_;
    ctx.locks = &txn.locks;
    constexpr uint64_t kPageSize = 8192;
    for (const auto& [region_id, range_set] : txn.ranges) {
      Region* region = regions_.at(region_id).get();
      // Gather (offset, len) in address order, optionally collapsing
      // update-dense pages into one covering span (adaptive hybrid).
      std::vector<std::pair<uint64_t, uint64_t>> spans;
      spans.reserve(range_set.range_count());
      for (const auto& [offset, len] : range_set.ranges()) {
        spans.emplace_back(offset, len);
      }
      if (options_.adaptive_ranges_per_page > 0) {
        std::vector<std::pair<uint64_t, uint64_t>> out;
        out.reserve(spans.size());
        size_t i = 0;
        while (i < spans.size()) {
          uint64_t page = spans[i].first / kPageSize;
          size_t j = i;
          uint64_t span_end = 0;
          // Group the ranges that *start* in this page.
          while (j < spans.size() && spans[j].first / kPageSize == page) {
            span_end = std::max(span_end, spans[j].first + spans[j].second);
            ++j;
          }
          if (j - i > options_.adaptive_ranges_per_page) {
            out.emplace_back(spans[i].first, span_end - spans[i].first);
            ++stats_.adaptive_pages_coalesced;
          } else {
            out.insert(out.end(), spans.begin() + i, spans.begin() + j);
          }
          i = j;
        }
        spans = std::move(out);
      }

      uint64_t next_uncounted_page = 0;
      for (const auto& [offset, len] : spans) {
        ctx.ranges.push_back(RangeRef{region_id, offset, region->data() + offset, len});
        if (len == 0) {
          continue;
        }
        // Distinct-page counting: span starts are in address order, but a
        // coalesced span can extend many pages past its start, so the next
        // span may begin pages BEHIND the furthest page already counted.
        // Track the first not-yet-counted page, not just the previous
        // span's last page, or those pages get counted twice.
        uint64_t first = std::max(offset / kPageSize, next_uncounted_page);
        uint64_t last = (offset + len - 1) / kPageSize;
        if (first <= last) {
          stats_.pages_logged += last - first + 1;
          next_uncounted_page = last + 1;
        }
      }
    }

    stats_.ranges_logged += ctx.ranges.size();
    stats_.bytes_logged += ctx.TotalBytes();

    // Read-only transactions (no registered ranges) leave no log record:
    // the coherency layer rolls their lock sequence numbers back, so a
    // record would only confuse the merge order.
    if (options_.disk_logging && !ctx.ranges.empty()) {
      // Encode the whole record NOW, while the images still hold exactly
      // this transaction's bytes: the pipeline wait below releases mu_, and
      // later transactions overwrite the live images before the batch
      // leader gets this record to disk. The contiguous payload doubles as
      // the zero-copy broadcast buffer — ctx.record is refcounted, and the
      // RangeRefs are repointed into it so the commit hook (and every peer
      // channel it fans out to) reads bytes that can no longer change.
      EncodedTransactionMeta meta = EncodeTransactionMeta(ctx);
      std::vector<uint8_t> encoded;
      encoded.reserve(meta.payload_len);
      encoded.insert(encoded.end(), meta.header.begin(), meta.header.end());
      std::vector<size_t> data_offsets(ctx.ranges.size());
      for (size_t i = 0; i < ctx.ranges.size(); ++i) {
        encoded.insert(encoded.end(), meta.range_prefixes[i].begin(),
                       meta.range_prefixes[i].end());
        data_offsets[i] = encoded.size();
        encoded.insert(encoded.end(), ctx.ranges[i].data,
                       ctx.ranges[i].data + ctx.ranges[i].len);
      }
      ctx.record = base::Buffer(std::move(encoded));
      for (size_t i = 0; i < ctx.ranges.size(); ++i) {
        ctx.ranges[i].data = ctx.record.data() + data_offsets[i];
      }
      stats_.collect_nanos += collect_timer.StopNanos();

      obs::ScopedTimer disk_timer(obs_disk_nanos_);
      PendingCommit pc;
      pc.payload = ctx.record;
      pc.mode = mode;
      pc.enqueued_nanos = base::SteadyClock::Instance()->NowNanos();
      commit_queue_.push_back(&pc);

      // Group commit in two stages, each with no lock held for its I/O.
      // Append: the first waiter that finds the baton free drains the WHOLE
      // queue as one vectored append and hands the baton straight on, so
      // the next cohort appends while this one syncs. Sync: once written,
      // a kFlush entry whose end no sync covers yet, and that finds no
      // sync in flight, leads one; it settles every entry it covered.
      // Everyone else naps until a leader marks their entry done.
      while (!pc.done) {
        if (!pc.written && !commit_leader_active_ && !commit_pipeline_held_) {
          std::vector<PendingCommit*> batch = TakeBatchLocked();
          lock.Unlock();
          BatchResult result = WriteBatch(batch);
          lock.Lock();
          FinishBatchLocked(batch, result, &crossed_soft);
        } else if (pc.written && !sync_in_flight_) {
          SyncTicket ticket = BeginSyncLocked();
          lock.Unlock();
          base::Status status = ticket.file->Sync();
          lock.Lock();
          FinishSyncLocked(ticket, status);
        } else {
          commit_cv_.Wait(lock);
        }
      }
      stats_.disk_nanos += disk_timer.StopNanos();
      GlobalCommitBatchMetrics()->cohort_wait_nanos->Record(
          base::SteadyClock::Instance()->NowNanos() - pc.enqueued_nanos);
      // The transaction stays active on a failed append or sync: the
      // caller may trim out of band and retry EndTransaction, or abort.
      RETURN_IF_ERROR(pc.status);
    } else {
      stats_.collect_nanos += collect_timer.StopNanos();
    }

    ++stats_.transactions_committed;
    obs_commits_->Increment();
    // Keep the lock records alive for the hook invocation below. txns_ is a
    // node-based map, so `it` survived the pipeline's Unlock/Lock windows
    // (other committers only ever erase their own entries).
    Txn finished = std::move(txn);
    txns_.erase(it);
    lock.Unlock();

    ctx.locks = &finished.locks;
    if (commit_hook_) {
      commit_hook_(ctx);
    }
  }
  // Edge-triggered soft watermark: only the batch that crossed it asks for
  // a trim, so a growing log fires one request per crossing rather than one
  // per commit.
  if (crossed_soft) {
    FireSoftTrim();
  }
  return base::OkStatus();
}

std::vector<Rvm::PendingCommit*> Rvm::TakeBatchLocked() {
  commit_leader_active_ = true;
  std::vector<PendingCommit*> batch(commit_queue_.begin(), commit_queue_.end());
  commit_queue_.clear();
  return batch;
}

Rvm::BatchResult Rvm::WriteBatch(const std::vector<PendingCommit*>& batch) {
  std::vector<base::ByteSpan> payloads;
  payloads.reserve(batch.size());
  for (const PendingCommit* pc : batch) {
    payloads.push_back(pc->payload.span());
  }
  std::vector<uint8_t> frames;
  EncodeFrames(payloads, &frames);
  BatchResult result;
  std::shared_ptr<store::DurableFile> file;
  {
    base::MutexLock log_lock(log_mu_);
    result.generation = log_generation_;
    result.bytes_before = log_->bytes_written();
    file = log_->file();
    append_in_flight_ = true;
  }
  // No lock across the write: syncs settle and swaps queue meanwhile. The
  // baton makes this the only append, and every swap waits for the flag,
  // so the noted offset stays this file's end until the offset advances.
  result.status =
      file->Write(result.bytes_before, base::ByteSpan(frames.data(), frames.size()));
  base::MutexLock log_lock(log_mu_);
  if (result.status.ok()) {
    log_->Advance(frames.size(), batch.size());
  }
  result.bytes_after = log_->bytes_written();
  append_in_flight_ = false;
  append_cv_.NotifyAll();
  return result;
}

void Rvm::WaitForAppendLocked(base::MutexLock& log_lock) {
  while (append_in_flight_) {
    append_cv_.Wait(log_lock);
  }
}

void Rvm::FinishBatchLocked(const std::vector<PendingCommit*>& batch,
                            const BatchResult& result, bool* crossed_soft) {
  bool parked = false;
  for (PendingCommit* pc : batch) {
    pc->written = true;
    pc->status = result.status;
    pc->generation = result.generation;
    pc->end = result.bytes_after;
    if (result.status.ok() && pc->mode == CommitMode::kFlush) {
      sync_waiters_.push_back(pc);
      parked = true;
    } else {
      pc->done = true;
    }
  }
  commit_leader_active_ = false;
  commit_cv_.NotifyAll();
  if (!result.status.ok()) {
    return;
  }
  if (parked) {
    // A sync that began after the write may already have finished.
    SettleSyncWaitersLocked(nullptr, base::OkStatus());
  }
  auto* m = GlobalCommitBatchMetrics();
  ++stats_.commit_batches;
  stats_.commit_batch_txns += batch.size();
  const uint64_t delta = result.bytes_after - result.bytes_before;
  stats_.log_bytes_written += delta;
  m->batches->Increment();
  m->txns->Add(batch.size());
  m->bytes->Add(delta);
  m->size->Record(batch.size());
  const uint64_t soft = options_.log_soft_limit_bytes;
  if (soft > 0 && result.bytes_before < soft && result.bytes_after >= soft) {
    *crossed_soft = true;
  }
}

Rvm::SyncTicket Rvm::BeginSyncLocked() {
  sync_in_flight_ = true;
  base::MutexLock log_lock(log_mu_);
  return SyncTicket{log_->file(), log_generation_, log_->bytes_written()};
}

void Rvm::FinishSyncLocked(const SyncTicket& ticket, const base::Status& status) {
  {
    base::MutexLock log_lock(log_mu_);
    // A swap meanwhile reset the watermark for a new file; this sync says
    // nothing about that one.
    if (status.ok() && ticket.generation == log_generation_) {
      synced_end_ = std::max(synced_end_, ticket.end);
    }
  }
  SettleSyncWaitersLocked(&ticket, status);
  sync_in_flight_ = false;
  commit_cv_.NotifyAll();
}

void Rvm::SettleSyncWaitersLocked(const SyncTicket* sync, const base::Status& status) {
  uint64_t generation;
  uint64_t synced;
  {
    base::MutexLock log_lock(log_mu_);
    generation = log_generation_;
    synced = synced_end_;
  }
  uint64_t acked = 0;  // commits this sync made durable
  auto keep = sync_waiters_.begin();
  for (PendingCommit* pc : sync_waiters_) {
    const bool covered =
        sync != nullptr && pc->generation == sync->generation && pc->end <= sync->end;
    if (covered && !status.ok()) {
      // After a failed fsync the dirty pages may be gone: a later sync
      // cannot vouch for these frames.
      pc->status = status;
    } else if (pc->generation == generation && pc->end > synced) {
      *keep++ = pc;
      continue;
    } else if (covered && !pc->payload.empty()) {
      ++acked;
    }
    pc->done = true;
  }
  sync_waiters_.erase(keep, sync_waiters_.end());
  if (acked > 1) {
    // Without the pipeline each kFlush commit would have synced alone.
    stats_.fsyncs_saved += acked - 1;
    GlobalCommitBatchMetrics()->fsyncs_saved->Add(acked - 1);
  }
}

base::Status Rvm::SyncLogTo(uint64_t generation, uint64_t end) {
  base::MutexLock lock(mu_);
  PendingCommit request;
  request.written = true;
  request.generation = generation;
  request.end = end;
  sync_waiters_.push_back(&request);
  SettleSyncWaitersLocked(nullptr, base::OkStatus());
  while (!request.done) {
    if (!sync_in_flight_) {
      SyncTicket ticket = BeginSyncLocked();
      lock.Unlock();
      base::Status status = ticket.file->Sync();
      lock.Lock();
      FinishSyncLocked(ticket, status);
    } else {
      commit_cv_.Wait(lock);
    }
  }
  return request.status;
}

uint64_t Rvm::CurrentLogBytes() const {
  base::MutexLock log_lock(log_mu_);
  return log_->bytes_written();
}

void Rvm::FireSoftTrim() {
  if (!trim_hook_) {
    return;
  }
  uint64_t used = CurrentLogBytes();
  {
    base::MutexLock lock(mu_);
    ++stats_.trim_requests;
  }
  GlobalBackpressureMetrics()->trim_requests->Increment();
  trim_hook_(used, options_.log_soft_limit_bytes);
}

void Rvm::HoldCommitPipeline() {
  base::MutexLock lock(mu_);
  commit_pipeline_held_ = true;
}

base::Status Rvm::ReleaseCommitPipeline() {
  bool crossed_soft = false;
  BatchResult result;
  bool flush = false;
  {
    base::MutexLock lock(mu_);
    while (commit_leader_active_) {
      commit_cv_.Wait(lock);
    }
    commit_pipeline_held_ = false;
    if (commit_queue_.empty()) {
      commit_cv_.NotifyAll();
      return base::OkStatus();
    }
    std::vector<PendingCommit*> batch = TakeBatchLocked();
    for (const PendingCommit* pc : batch) {
      flush |= pc->mode == CommitMode::kFlush;
    }
    lock.Unlock();
    result = WriteBatch(batch);
    lock.Lock();
    FinishBatchLocked(batch, result, &crossed_soft);
  }
  base::Status status = result.status;
  if (status.ok() && flush) {
    status = SyncLogTo(result.generation, result.bytes_after);
  }
  if (crossed_soft) {
    FireSoftTrim();
  }
  return status;
}

size_t Rvm::PendingCommitCount() const {
  base::MutexLock lock(mu_);
  return commit_queue_.size();
}

base::Status Rvm::AbortTransaction(TxnId txn_id) {
  base::MutexLock lock(mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end() || !it->second.active) {
    return base::FailedPrecondition("no such active transaction");
  }
  Txn& txn = it->second;
  if (txn.mode != RestoreMode::kRestore && !txn.ranges.empty()) {
    txns_.erase(it);
    return base::FailedPrecondition("abort of a no-restore transaction with updates");
  }
  // Restore in reverse registration order so the earliest snapshot of any
  // overlapping byte is applied last.
  for (auto undo_it = txn.undo.rbegin(); undo_it != txn.undo.rend(); ++undo_it) {
    Region* region = regions_.at(undo_it->region).get();
    std::copy(undo_it->old_data.begin(), undo_it->old_data.end(),
              region->data() + undo_it->offset);
  }
  txns_.erase(it);
  ++stats_.transactions_aborted;
  return base::OkStatus();
}

base::Status Rvm::FlushLog() {
  if (!options_.disk_logging) {
    return base::OkStatus();
  }
  // The commits' own sync step: no lock is held across the sync, so
  // appenders keep appending, and a sync already in flight is waited out
  // (or, if it covers the log's end, shared).
  uint64_t generation;
  uint64_t end;
  {
    base::MutexLock log_lock(log_mu_);
    generation = log_generation_;
    end = log_->bytes_written();
  }
  return SyncLogTo(generation, end);
}

base::Status Rvm::ApplyExternalUpdate(RegionId region_id, uint64_t offset,
                                      base::ByteSpan data) {
  obs::ScopedTimer timer(obs_apply_nanos_);
  base::MutexLock lock(mu_);
  auto it = regions_.find(region_id);
  if (it == regions_.end()) {
    return base::NotFound("region not mapped: " + std::to_string(region_id));
  }
  Region* region = it->second.get();
  if (offset + data.size() > region->size()) {
    return base::OutOfRange("external update beyond region end");
  }
  std::copy(data.begin(), data.end(), region->data() + offset);
  ++stats_.external_updates_applied;
  stats_.external_bytes_applied += data.size();
  stats_.apply_nanos += timer.StopNanos();
  return base::OkStatus();
}

RvmStats Rvm::stats() const {
  base::MutexLock lock(mu_);
  return stats_;
}

void Rvm::ResetStats() {
  base::MutexLock lock(mu_);
  stats_ = RvmStats{};
}

uint64_t Rvm::commit_seq() const {
  base::MutexLock lock(mu_);
  return commit_seq_;
}

uint64_t Rvm::log_bytes() const { return CurrentLogBytes(); }

base::Status Rvm::TrimLogWithBaselines(const std::map<LockId, uint64_t>& baselines) {
  if (!options_.disk_logging) {
    return base::OkStatus();
  }
  // Reads frames until the end of the valid log and keeps the records the
  // checkpoint does not cover. A record is covered iff it has lock records
  // and every one of them is at or below its lock's baseline.
  auto scan = [&baselines](LogReader* reader,
                           std::vector<std::vector<uint8_t>>* kept) -> base::Status {
    std::vector<uint8_t> payload;
    bool at_end = false;
    while (true) {
      RETURN_IF_ERROR(reader->ReadNext(&payload, &at_end));
      if (at_end) {
        return base::OkStatus();
      }
      base::ByteSpan span(payload.data(), payload.size());
      ASSIGN_OR_RETURN(LogRecordKind kind, PeekKind(span));
      bool covered = false;
      if (kind == LogRecordKind::kTransaction) {
        TransactionRecord txn;
        RETURN_IF_ERROR(DecodeTransaction(span, &txn));
        covered = !txn.locks.empty();
        for (const auto& lr : txn.locks) {
          auto it = baselines.find(lr.lock_id);
          if (it == baselines.end() || lr.sequence > it->second) {
            covered = false;
            break;
          }
        }
      }
      if (!covered) {
        kept->push_back(payload);
      }
    }
  };

  // Two phases, neither holding mu_: begins, commits and peer applies run
  // throughout, and batch leaders keep appending until the swap. The first
  // attempt scans the synced log with no lock held, then takes log_mu_ to
  // read only the frames appended meanwhile (the same reader picks up where
  // it stopped) and swap. If another trim replaced the file in between,
  // the generation moved and the scan is stale; the retry holds log_mu_ for
  // the whole scan, so it cannot be raced again.
  const std::string log_name = LogFileName(node_);
  for (bool hold_for_scan : {false, true}) {
    RETURN_IF_ERROR(FlushLog());
    base::MutexLock log_lock(log_mu_);
    // The scan under log_mu_ waits out any append being written with no
    // lock held: it would copy a torn tail, and the write would land in the
    // file the swap replaces. The wait releases log_mu_, so a swap may slip
    // in; it therefore precedes the generation read and check.
    if (hold_for_scan) {
      WaitForAppendLocked(log_lock);
    }
    const uint64_t generation = log_generation_;
    ASSIGN_OR_RETURN(auto file, store_->Open(log_name, /*create=*/false));
    LogReader reader(file.get());
    std::vector<std::vector<uint8_t>> kept;
    if (!hold_for_scan) {
      log_lock.Unlock();
      RETURN_IF_ERROR(scan(&reader, &kept));
      log_lock.Lock();
      WaitForAppendLocked(log_lock);
      if (log_generation_ != generation) {
        continue;
      }
    }
    RETURN_IF_ERROR(scan(&reader, &kept));

    // Crash-safe swap: build the trimmed log beside the live one, sync it,
    // then atomically rename it into place and reopen our writer on it. A
    // crash before the rename leaves the old log; after, the new one — both
    // are complete when combined with the caller's checkpoint.
    const std::string temp_name = log_name + ".trim";
    {
      ASSIGN_OR_RETURN(auto temp, store_->Open(temp_name, /*create=*/true));
      RETURN_IF_ERROR(temp->Truncate(0));
      LogWriter writer(std::move(temp));
      std::vector<base::ByteSpan> payloads(kept.begin(), kept.end());
      RETURN_IF_ERROR(writer.AppendBatch(payloads));
      RETURN_IF_ERROR(writer.Sync());
    }
    RETURN_IF_ERROR(store_->Rename(temp_name, log_name));
    // Make the swap itself durable. Without this barrier, a crash after the
    // rename can resurrect the *old* log inode under the live name while the
    // commits we append below land only on the new (unlinked-at-crash) inode —
    // recovery would then silently drop them. The crash explorer pins this.
    RETURN_IF_ERROR(store_->SyncDir());
    ASSIGN_OR_RETURN(auto reopened, store_->Open(log_name, /*create=*/false));
    ASSIGN_OR_RETURN(uint64_t new_size, reopened->Size());
    log_ = std::make_unique<LogWriter>(std::move(reopened), new_size);
    // The new file was synced before the rename: it is durable to its end.
    // A commit still waiting for its sync is now durable either way: its
    // record was copied into that file, or the checkpoint covers it.
    synced_end_ = new_size;
    ++log_generation_;
    break;
  }
  base::MutexLock lock(mu_);
  SettleSyncWaitersLocked(nullptr, base::OkStatus());
  commit_cv_.NotifyAll();
  // The trim that just ran ends the current backpressure episode.
  trim_hook_fired_ = false;
  log_space_cv_.NotifyAll();
  return base::OkStatus();
}

}  // namespace rvm
