// RVM under concurrency: multiple application threads running transactions
// against one runtime (RVM supports multi-threaded clients; updates may or
// may not be serializable — §3's "minimalist philosophy"), and external
// updates racing local commits.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "src/rvm/recovery.h"
#include "src/rvm/rvm.h"
#include "src/rvm/scrub.h"
#include "src/store/mem_store.h"
#include "tests/read_hook_store.h"

namespace {

constexpr rvm::RegionId kRegion = 1;

TEST(RvmConcurrency, ParallelDisjointTransactions) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 64 * 1024);
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 50;

  auto worker = [&](int t) {
    for (int i = 0; i < kTxnsPerThread; ++i) {
      rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kRestore);
      uint64_t offset = static_cast<uint64_t>(t) * 16384 + static_cast<uint64_t>(i) * 64;
      ASSERT_TRUE(r->SetRange(txn, kRegion, offset, 8).ok());
      uint64_t value = static_cast<uint64_t>(t) * 1000 + static_cast<uint64_t>(i);
      std::memcpy(region->data() + offset, &value, 8);
      ASSERT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kNoFlush).ok());
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(worker, t);
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_TRUE(r->FlushLog().ok());
  EXPECT_EQ(static_cast<uint64_t>(kThreads * kTxnsPerThread),
            r->stats().transactions_committed);

  // Recovery reproduces every thread's committed values.
  store.Crash();
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&store, {rvm::LogFileName(1)}).ok());
  auto r2 = std::move(*rvm::Rvm::Open(&store, 2, rvm::RvmOptions{}));
  rvm::Region* region2 = *r2->MapRegion(kRegion, 64 * 1024);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kTxnsPerThread; ++i) {
      uint64_t offset = static_cast<uint64_t>(t) * 16384 + static_cast<uint64_t>(i) * 64;
      uint64_t value;
      std::memcpy(&value, region2->data() + offset, 8);
      EXPECT_EQ(static_cast<uint64_t>(t) * 1000 + static_cast<uint64_t>(i), value);
    }
  }
}

TEST(RvmConcurrency, InterleavedBeginsAndAborts) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 4096);
  std::memset(region->data(), 0x11, 4096);

  // Open two transactions over disjoint ranges; abort one, commit the other.
  rvm::TxnId keep = r->BeginTransaction(rvm::RestoreMode::kRestore);
  rvm::TxnId drop = r->BeginTransaction(rvm::RestoreMode::kRestore);
  ASSERT_TRUE(r->SetRange(keep, kRegion, 0, 8).ok());
  ASSERT_TRUE(r->SetRange(drop, kRegion, 100, 8).ok());
  std::memset(region->data(), 0x22, 8);
  std::memset(region->data() + 100, 0x33, 8);
  ASSERT_TRUE(r->AbortTransaction(drop).ok());
  ASSERT_TRUE(r->EndTransaction(keep, rvm::CommitMode::kFlush).ok());
  EXPECT_EQ(0x22, region->data()[0]);
  EXPECT_EQ(0x11, region->data()[100]);
}

TEST(RvmConcurrency, ExternalUpdatesRaceLocalCommits) {
  store::MemStore store;
  rvm::RvmOptions options;
  options.disk_logging = false;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, options));
  rvm::Region* region = *r->MapRegion(kRegion, 8192);

  std::atomic<bool> stop{false};
  std::thread applier([&] {
    uint8_t data[8] = {9, 9, 9, 9, 9, 9, 9, 9};
    while (!stop) {
      r->ApplyExternalUpdate(kRegion, 4096, base::ByteSpan(data, 8)).ok();
    }
  });
  for (int i = 0; i < 200; ++i) {
    rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
    ASSERT_TRUE(r->SetRange(txn, kRegion, 0, 8).ok());
    std::memset(region->data(), i & 0xFF, 8);
    ASSERT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kNoFlush).ok());
  }
  // Make sure the applier actually interleaved at least once (on a single
  // core it may not have been scheduled during the burst above).
  for (int i = 0; i < 2000 && r->stats().external_updates_applied == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop = true;
  applier.join();
  EXPECT_EQ(9, region->data()[4096]);
  EXPECT_GT(r->stats().external_updates_applied, 0u);
}

TEST(RvmConcurrency, HookRunsWithoutRvmLockHeld) {
  // The commit hook may call back into the runtime (the coherency layer
  // reads regions and stats); re-entrancy must not deadlock.
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 4096);
  r->SetCommitHook([&](const rvm::CommitContext& ctx) {
    EXPECT_NE(nullptr, r->GetRegion(kRegion));
    uint8_t probe[1] = {42};
    EXPECT_TRUE(r->ApplyExternalUpdate(kRegion, 2048, base::ByteSpan(probe, 1)).ok());
  });
  rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  ASSERT_TRUE(r->SetRange(txn, kRegion, 0, 1).ok());
  region->data()[0] = 1;
  ASSERT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  EXPECT_EQ(42, region->data()[2048]);
}

TEST(GroupCommit, HeldPipelineCommitsCohortAsOneBatchWithOneSync) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 4096);
  constexpr int kCommitters = 4;

  // Park the pipeline so the four committers form one deterministic batch.
  r->HoldCommitPipeline();
  std::vector<std::thread> committers;
  std::vector<base::Status> results(kCommitters);
  for (int t = 0; t < kCommitters; ++t) {
    committers.emplace_back([&, t] {
      rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
      base::Status st = r->SetRange(txn, kRegion, static_cast<uint64_t>(t) * 64, 8);
      if (st.ok()) {
        std::memset(region->data() + t * 64, 0x50 + t, 8);
        st = r->EndTransaction(txn, rvm::CommitMode::kFlush);
      }
      results[t] = st;
    });
  }
  while (r->PendingCommitCount() < kCommitters) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(0u, r->stats().commit_batches);
  ASSERT_TRUE(r->ReleaseCommitPipeline().ok());
  for (auto& th : committers) {
    th.join();
  }
  for (int t = 0; t < kCommitters; ++t) {
    EXPECT_TRUE(results[t].ok()) << "committer " << t << ": " << results[t].ToString();
  }

  rvm::RvmStats s = r->stats();
  EXPECT_EQ(1u, s.commit_batches);
  EXPECT_EQ(static_cast<uint64_t>(kCommitters), s.commit_batch_txns);
  // Four kFlush commits rode one leader sync.
  EXPECT_EQ(static_cast<uint64_t>(kCommitters - 1), s.fsyncs_saved);

  // That one sync made all four durable: crash and recover.
  store.Crash();
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&store, {rvm::LogFileName(1)}).ok());
  auto r2 = std::move(*rvm::Rvm::Open(&store, 2, rvm::RvmOptions{}));
  rvm::Region* region2 = *r2->MapRegion(kRegion, 4096);
  for (int t = 0; t < kCommitters; ++t) {
    EXPECT_EQ(0x50 + t, region2->data()[t * 64]) << "committer " << t;
  }
}

TEST(GroupCommit, HookSeesCommittedBytesNotLaterImageWrites) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 4096);

  // Both transactions rewrite the SAME 8 bytes; by the time the batch
  // leader finishes, the live image holds only the second one's value. The
  // hook's RangeRefs must show each transaction its OWN bytes (they point
  // into ctx.record, encoded while the image still held them).
  std::atomic<int> empty_records{0};
  std::atomic<int> byte_mismatches{0};
  r->SetCommitHook([&](const rvm::CommitContext& ctx) {
    if (ctx.record.empty()) {
      ++empty_records;
    }
    const uint8_t expected = static_cast<uint8_t>(0x60 + ctx.commit_seq);
    for (const auto& range : ctx.ranges) {
      for (uint64_t i = 0; i < range.len; ++i) {
        if (range.data[i] != expected) {
          ++byte_mismatches;
        }
      }
    }
  });

  r->HoldCommitPipeline();
  // Committer 1 encodes 0x61 into its record, then parks.
  std::thread first([&] {
    rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
    ASSERT_TRUE(r->SetRange(txn, kRegion, 0, 8).ok());
    std::memset(region->data(), 0x61, 8);
    ASSERT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  });
  while (r->PendingCommitCount() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Committer 2 overwrites the image with 0x62 and parks behind it.
  std::thread second([&] {
    rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
    ASSERT_TRUE(r->SetRange(txn, kRegion, 0, 8).ok());
    std::memset(region->data(), 0x62, 8);
    ASSERT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  });
  while (r->PendingCommitCount() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(r->ReleaseCommitPipeline().ok());
  first.join();
  second.join();

  EXPECT_EQ(0, empty_records.load());
  EXPECT_EQ(0, byte_mismatches.load());
  EXPECT_EQ(0x62, region->data()[0]);
}

TEST(GroupCommit, CommittersRaceJanitorAndScrubber) {
  // TSan chaos phase: committers batching through the pipeline while a
  // janitor flushes and trims (swapping the log file under log_mu_) and a
  // scrubber walks the same store detect-only. Pins the two-mutex design:
  // leaders write without mu_, maintenance takes mu_ then log_mu_.
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 64 * 1024);
  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 60;

  std::atomic<bool> stop{false};
  base::Status janitor_status = base::OkStatus();
  std::thread janitor([&] {
    while (!stop) {
      base::Status st = r->FlushLog();
      if (st.ok()) {
        // Empty baselines cover nothing: the trim rewrites the log in place
        // (full crash-safe swap) without dropping any record.
        st = r->TrimLogWithBaselines({});
      }
      if (!st.ok()) {
        janitor_status = st;
        return;
      }
      (void)r->log_bytes();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::atomic<int> scrub_failures{0};
  std::thread scrub_thread([&] {
    rvm::Scrubber scrubber(&store);
    while (!stop) {
      if (!scrubber.ScrubRegion(kRegion).ok()) {
        ++scrub_failures;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> committers;
  std::vector<base::Status> results(kThreads, base::OkStatus());
  for (int t = 0; t < kThreads; ++t) {
    committers.emplace_back([&, t] {
      for (int i = 0; i < kTxnsPerThread && results[t].ok(); ++i) {
        rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
        uint64_t offset = static_cast<uint64_t>(t) * 8192 + static_cast<uint64_t>(i) * 128;
        base::Status st = r->SetRange(txn, kRegion, offset, 8);
        if (st.ok()) {
          uint64_t value = static_cast<uint64_t>(t) * 1000 + static_cast<uint64_t>(i);
          std::memcpy(region->data() + offset, &value, 8);
          st = r->EndTransaction(
              txn, (i % 2 == 0) ? rvm::CommitMode::kFlush : rvm::CommitMode::kNoFlush);
        }
        results[t] = st;
      }
    });
  }
  for (auto& th : committers) {
    th.join();
  }
  stop = true;
  janitor.join();
  scrub_thread.join();

  ASSERT_TRUE(janitor_status.ok()) << janitor_status.ToString();
  EXPECT_EQ(0, scrub_failures.load());
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(results[t].ok()) << "committer " << t << ": " << results[t].ToString();
  }
  rvm::RvmStats s = r->stats();
  EXPECT_EQ(static_cast<uint64_t>(kThreads * kTxnsPerThread), s.transactions_committed);
  EXPECT_GE(s.commit_batches, 1u);
  EXPECT_EQ(s.commit_batch_txns, s.transactions_committed);

  // Nothing the janitor or scrubber did lost a committed record.
  ASSERT_TRUE(r->FlushLog().ok());
  store.Crash();
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&store, {rvm::LogFileName(1)}).ok());
  auto r2 = std::move(*rvm::Rvm::Open(&store, 2, rvm::RvmOptions{}));
  rvm::Region* region2 = *r2->MapRegion(kRegion, 64 * 1024);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kTxnsPerThread; ++i) {
      uint64_t offset = static_cast<uint64_t>(t) * 8192 + static_cast<uint64_t>(i) * 128;
      uint64_t value;
      std::memcpy(&value, region2->data() + offset, 8);
      EXPECT_EQ(static_cast<uint64_t>(t) * 1000 + static_cast<uint64_t>(i), value);
    }
  }
}

// Polls `done` for up to 10 s; false if it never held.
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Runs one kFlush transaction writing `value` at `offset`; reports its
// status through `out`.
void CommitByte(rvm::Rvm* r, uint64_t offset, uint8_t value, base::Status* out) {
  rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  base::Status st = r->SetRange(txn, kRegion, offset, 1);
  if (st.ok()) {
    r->GetRegion(kRegion)->data()[offset] = value;
    st = r->EndTransaction(txn, rvm::CommitMode::kFlush);
  }
  *out = st;
}

TEST(GroupCommit, NextBatchAppendsWhileSyncIsInFlightButWaitsForItsOwnSync) {
  // A's sync parks. B must still append (the append baton does not wait
  // for the sync), but B may return only after a sync that began after
  // its append: A's sync, begun before, cannot vouch for B's frames.
  store::MemStore mem;
  lbc_test::ReadHookStore store(&mem);
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  ASSERT_TRUE(r->MapRegion(kRegion, 4096).ok());
  lbc_test::HookLatch latch;
  auto park = latch.SyncHook();
  std::atomic<int> syncs_started{0};
  store.SetSyncHook(rvm::LogFileName(1), [&] {
    ++syncs_started;
    return park();
  });

  base::Status a_status, b_status;
  std::thread a([&] { CommitByte(r.get(), 0, 0xA1, &a_status); });
  if (!latch.WaitParked(std::chrono::seconds(10))) {
    latch.Release();
    a.join();
    FAIL() << "A never synced";
  }
  const uint64_t a_end = r->log_bytes();
  std::atomic<bool> b_returned{false};
  std::atomic<int> syncs_when_b_returned{0};
  std::thread b([&] {
    CommitByte(r.get(), 1, 0xB2, &b_status);
    syncs_when_b_returned = syncs_started.load();
    b_returned = true;
  });
  const bool b_appended = WaitFor([&] { return r->log_bytes() > a_end; });
  const int syncs_when_b_appended = syncs_started.load();
  // Give B every chance to return early; only A's parked sync is running.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const bool b_returned_early = b_returned;
  latch.Release();
  a.join();
  b.join();
  store.SetSyncHook("", nullptr);

  EXPECT_TRUE(b_appended) << "B's append waited for A's sync";
  EXPECT_EQ(1, syncs_when_b_appended);
  EXPECT_FALSE(b_returned_early) << "B returned on a sync that began before its append";
  ASSERT_TRUE(a_status.ok()) << a_status.ToString();
  ASSERT_TRUE(b_status.ok()) << b_status.ToString();
  EXPECT_GT(syncs_when_b_returned.load(), syncs_when_b_appended);
  EXPECT_EQ(2u, r->stats().commit_batches);
}

TEST(GroupCommit, SyncSettlesAndPeerAppliesWhileAnAppendIsInFlight) {
  // A appends and its sync parks; B's append then parks inside its write.
  // The append leader writes with no lock held, so when A's sync returns A
  // settles and returns, and a peer's update and a new transaction get the
  // instance lock: nothing on this node waits behind B's write.
  store::MemStore mem;
  lbc_test::ReadHookStore store(&mem);
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  ASSERT_TRUE(r->MapRegion(kRegion, 4096).ok());
  lbc_test::HookLatch sync_latch;
  store.SetSyncHook(rvm::LogFileName(1), sync_latch.SyncHook());
  lbc_test::HookLatch write_latch;

  base::Status a_status, b_status;
  std::atomic<bool> a_returned{false};
  std::thread a([&] {
    CommitByte(r.get(), 0, 0xA1, &a_status);
    a_returned = true;
  });
  if (!sync_latch.WaitParked(std::chrono::seconds(10))) {
    sync_latch.Release();
    a.join();
    FAIL() << "A never synced";
  }
  // Armed only now, so the first hooked write is B's.
  store.SetWriteHook(rvm::LogFileName(1), write_latch.WriteHook());
  std::thread b([&] { CommitByte(r.get(), 1, 0xB2, &b_status); });
  if (!write_latch.WaitParked(std::chrono::seconds(10))) {
    write_latch.Release();
    sync_latch.Release();
    a.join();
    b.join();
    FAIL() << "B never appended";
  }
  sync_latch.Release();
  const bool a_settled = WaitFor([&] { return a_returned.load(); });
  base::Status peer_status;
  std::atomic<bool> peer_done{false};
  std::thread peer([&] {
    const uint8_t byte = 0xEE;
    peer_status = r->ApplyExternalUpdate(kRegion, 100, base::ByteSpan(&byte, 1));
    rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
    if (peer_status.ok()) {
      peer_status = r->AbortTransaction(txn);
    }
    peer_done = true;
  });
  const bool peer_in_time = WaitFor([&] { return peer_done.load(); });
  write_latch.Release();
  a.join();
  b.join();
  peer.join();
  store.SetSyncHook("", nullptr);
  store.SetWriteHook("", nullptr);

  EXPECT_TRUE(a_settled) << "A's sync returned but A waited for B's in-flight append";
  EXPECT_TRUE(peer_in_time) << "a peer apply or a begin waited for B's in-flight append";
  ASSERT_TRUE(a_status.ok()) << a_status.ToString();
  ASSERT_TRUE(b_status.ok()) << b_status.ToString();
  ASSERT_TRUE(peer_status.ok()) << peer_status.ToString();
  EXPECT_EQ(2u, r->stats().commit_batches);
  auto logged = *rvm::ReadLogTransactions(&mem, rvm::LogFileName(1));
  ASSERT_EQ(2u, logged.size());
  EXPECT_EQ(0u, logged[0].ranges[0].offset);
  EXPECT_EQ(1u, logged[1].ranges[0].offset);
}

TEST(GroupCommit, FailedSyncFailsEveryCommitItCoveredAndNoLaterSyncAcksThem) {
  // A1 and A2 append as one batch and share a sync that parks, then fails.
  // B appends meanwhile, so the failed sync does not cover it; B's own
  // sync succeeds, and it covers the file A1 and A2 were written to. Still
  // both must fail, and stay active so the caller can retry.
  store::MemStore mem;
  lbc_test::ReadHookStore store(&mem);
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 4096);
  std::atomic<int> hook_runs{0};
  r->SetCommitHook([&](const rvm::CommitContext&) { ++hook_runs; });
  lbc_test::HookLatch latch;
  auto park = latch.SyncHook();
  std::atomic<int> syncs{0};
  store.SetSyncHook(rvm::LogFileName(1), [&]() -> base::Status {
    const bool first = syncs++ == 0;
    RETURN_IF_ERROR(park());
    return first ? base::IoError("injected sync failure") : base::OkStatus();
  });

  r->HoldCommitPipeline();
  rvm::TxnId a_txns[2];
  base::Status a_status[2];
  std::vector<std::thread> a;
  for (int i = 0; i < 2; ++i) {
    a_txns[i] = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
    ASSERT_TRUE(r->SetRange(a_txns[i], kRegion, static_cast<uint64_t>(i), 1).ok());
    region->data()[i] = static_cast<uint8_t>(0xA1 + i);
    a.emplace_back([&, i] { a_status[i] = r->EndTransaction(a_txns[i], rvm::CommitMode::kFlush); });
    ASSERT_TRUE(WaitFor([&] { return r->PendingCommitCount() == static_cast<size_t>(i) + 1; }));
  }
  base::Status release;
  std::thread releaser([&] { release = r->ReleaseCommitPipeline(); });
  ASSERT_TRUE(latch.WaitParked(std::chrono::seconds(10)));
  const uint64_t a_end = r->log_bytes();
  base::Status b_status;
  std::thread b([&] { CommitByte(r.get(), 8, 0xB0, &b_status); });
  const bool b_appended = WaitFor([&] { return r->log_bytes() > a_end; });
  latch.Release();
  releaser.join();
  for (auto& t : a) {
    t.join();
  }
  b.join();
  store.SetSyncHook("", nullptr);

  EXPECT_TRUE(b_appended);
  EXPECT_EQ(2, syncs.load()) << "the failed sync and B's";
  EXPECT_EQ(base::StatusCode::kIoError, release.code()) << release.ToString();
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(base::StatusCode::kIoError, a_status[i].code())
        << "A" << i << ": " << a_status[i].ToString();
  }
  ASSERT_TRUE(b_status.ok()) << b_status.ToString();
  EXPECT_EQ(1, hook_runs.load()) << "a failed commit ran its commit hook";
  EXPECT_EQ(1u, r->stats().transactions_committed);

  // Both stay active: a retry appends again and is acknowledged.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(r->EndTransaction(a_txns[i], rvm::CommitMode::kFlush).ok()) << "A" << i;
  }
  EXPECT_EQ(3u, r->stats().transactions_committed);
}

TEST(GroupCommit, TrimSwapBetweenAppendAndSyncMakesTheCommitDurable) {
  // A trim parks mid-scan. A appends and its sync parks; B appends behind
  // it and waits. The trim then drops the checkpointed record, copies A's
  // and B's into the new file, syncs it and swaps: B is durable without
  // any sync of the old file covering it, so it returns while A's sync is
  // still parked — and the old file's handle must survive the swap under
  // that in-flight sync. The new file is shorter than B's old end offset,
  // so only the generation, not the watermark, can vouch for B.
  store::MemStore mem;
  lbc_test::ReadHookStore store(&mem);
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 4096);
  constexpr rvm::LockId kLock = 9;
  rvm::TxnId checkpointed = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  ASSERT_TRUE(r->SetRange(checkpointed, kRegion, 2, 1).ok());
  region->data()[2] = 0xC0;
  ASSERT_TRUE(r->SetLockId(checkpointed, kLock, 1).ok());
  ASSERT_TRUE(r->EndTransaction(checkpointed, rvm::CommitMode::kFlush).ok());
  lbc_test::HookLatch scan_latch;
  store.SetReadHook(rvm::LogFileName(1), scan_latch.ReadHook());
  lbc_test::HookLatch sync_latch;
  store.SetSyncHook(rvm::LogFileName(1), sync_latch.SyncHook());

  base::Status trim_status;
  std::thread trim([&] { trim_status = r->TrimLogWithBaselines({{kLock, 1}}); });
  if (!scan_latch.WaitParked(std::chrono::seconds(10))) {
    scan_latch.Release();
    trim.join();
    FAIL() << "the trim never read the log";
  }
  base::Status a_status, b_status;
  std::thread a([&] { CommitByte(r.get(), 0, 0xA1, &a_status); });
  if (!sync_latch.WaitParked(std::chrono::seconds(10))) {
    sync_latch.Release();
    scan_latch.Release();
    a.join();
    trim.join();
    FAIL() << "A never synced";
  }
  const uint64_t a_end = r->log_bytes();
  std::atomic<bool> b_returned{false};
  std::thread b([&] {
    CommitByte(r.get(), 1, 0xB2, &b_status);
    b_returned = true;
  });
  const bool b_appended = WaitFor([&] { return r->log_bytes() > a_end; });
  const uint64_t b_end = r->log_bytes();
  scan_latch.Release();
  trim.join();
  // Checked before the joins: a B that waits for a sync of the new file
  // would never return.
  EXPECT_TRUE(WaitFor([&] { return b_returned.load(); }))
      << "B waited for a sync after the swap";
  sync_latch.Release();
  a.join();
  b.join();
  store.SetReadHook("", nullptr);
  store.SetSyncHook("", nullptr);

  EXPECT_TRUE(b_appended);
  ASSERT_TRUE(trim_status.ok()) << trim_status.ToString();
  EXPECT_LT(r->log_bytes(), b_end) << "the trim dropped no record";
  ASSERT_TRUE(a_status.ok()) << a_status.ToString();
  ASSERT_TRUE(b_status.ok()) << b_status.ToString();

  mem.Crash();
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&mem, {rvm::LogFileName(1)}).ok());
  auto r2 = std::move(*rvm::Rvm::Open(&mem, 2, rvm::RvmOptions{}));
  rvm::Region* region2 = *r2->MapRegion(kRegion, 4096);
  EXPECT_EQ(0xA1, region2->data()[0]);
  EXPECT_EQ(0xB2, region2->data()[1]);
}

TEST(RvmConcurrency, TrimRescansWhenAnotherTrimSwapsTheLogMidScan) {
  // A trim scans the log with no lock held. Park one in its scan after it
  // has kept the first record, then trim the log with a covering baseline,
  // commit, and run a third trim on another thread. The parked scan is
  // stale: it must start over, so nothing the covering trim removed comes
  // back and nothing committed after it is lost.
  store::MemStore mem;
  lbc_test::ReadHookStore store(&mem);
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 4096);
  constexpr rvm::LockId kLock = 9;
  auto commit = [&](uint64_t offset, uint8_t value, uint64_t lock_seq = 0) {
    rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
    base::Status st = r->SetRange(txn, kRegion, offset, 1);
    if (st.ok() && lock_seq != 0) {
      st = r->SetLockId(txn, kLock, lock_seq);
    }
    if (!st.ok()) {
      return st;
    }
    region->data()[offset] = value;
    return r->EndTransaction(txn, rvm::CommitMode::kFlush);
  };
  for (uint8_t i = 0; i < 3; ++i) {
    // Locked, and removed by the covering trim below.
    ASSERT_TRUE(commit(i, 0xA0 + i, /*lock_seq=*/i + 1).ok());
  }

  // Two reads pass (the first record's header and payload); the trim parks
  // on the second record's header. Reads at offset 0 after the release can
  // only come from a rescan: the parked reader is past the first frame.
  lbc_test::HookLatch latch(/*skip=*/2);
  auto park = latch.ReadHook();
  std::atomic<bool> released{false};
  std::atomic<int> rescan_reads{0};
  store.SetReadHook(rvm::LogFileName(1), [&](uint64_t offset, size_t got) {
    if (released && offset == 0) {
      ++rescan_reads;
    }
    park(offset, got);
  });
  base::Status first_trim;
  std::thread first([&] { first_trim = r->TrimLogWithBaselines({}); });
  if (!latch.WaitParked(std::chrono::seconds(10))) {
    latch.Release();
    first.join();
    FAIL() << "the trim never read the log";
  }

  // Neither of the racer's trims may wait for the parked scan.
  base::Status covering_trim, post_trim, second_trim;
  std::atomic<bool> raced{false};
  std::thread racer([&] {
    covering_trim = r->TrimLogWithBaselines({{kLock, 3}});
    post_trim = commit(10, 0xB0);
    second_trim = r->TrimLogWithBaselines({});
    raced = true;
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!raced && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool raced_in_time = raced;
  released = true;
  latch.Release();
  racer.join();
  first.join();
  store.SetReadHook("", nullptr);
  EXPECT_TRUE(raced_in_time) << "the racer's trims blocked behind the parked scan";
  ASSERT_TRUE(covering_trim.ok()) << covering_trim.ToString();
  ASSERT_TRUE(post_trim.ok()) << post_trim.ToString();
  ASSERT_TRUE(second_trim.ok()) << second_trim.ToString();
  ASSERT_TRUE(first_trim.ok()) << first_trim.ToString();
  EXPECT_GT(rescan_reads.load(), 0) << "the parked trim swapped a stale scan";

  // The log holds exactly the commits made after the covering trim, the
  // one landing after every trim included.
  ASSERT_TRUE(commit(11, 0xC0).ok());
  auto kept = *rvm::ReadLogTransactions(&mem, rvm::LogFileName(1));
  ASSERT_EQ(2u, kept.size());
  EXPECT_EQ(10u, kept[0].ranges[0].offset);
  EXPECT_EQ(11u, kept[1].ranges[0].offset);

  // Recovery agrees: the covered records stay gone (this test never
  // applied them to the database), the later two survive.
  mem.Crash();
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&mem, {rvm::LogFileName(1)}).ok());
  auto r2 = std::move(*rvm::Rvm::Open(&mem, 2, rvm::RvmOptions{}));
  rvm::Region* region2 = *r2->MapRegion(kRegion, 4096);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(0, region2->data()[i]) << "covered record " << i << " came back";
  }
  EXPECT_EQ(0xB0, region2->data()[10]);
  EXPECT_EQ(0xC0, region2->data()[11]);
}

TEST(RvmConcurrency, TrimWaitsForAnInFlightAppend) {
  // The append leader writes with no lock held. A trim that copied the
  // tail and swapped meanwhile would drop the record and leave the write in
  // the replaced file, so it must wait for the write.
  store::MemStore mem;
  lbc_test::ReadHookStore store(&mem);
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 4096);
  auto log_file_size = [&] {
    auto file = std::move(*mem.Open(rvm::LogFileName(1), /*create=*/false));
    return *file->Size();
  };

  // A checkpointed record, then A's write parks, and the trim scans to
  // the end of the file and must not swap until A's write is done.
  constexpr rvm::LockId kLock = 9;
  rvm::TxnId checkpointed = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  ASSERT_TRUE(r->SetRange(checkpointed, kRegion, 2, 1).ok());
  region->data()[2] = 0xC0;
  ASSERT_TRUE(r->SetLockId(checkpointed, kLock, 1).ok());
  ASSERT_TRUE(r->EndTransaction(checkpointed, rvm::CommitMode::kFlush).ok());
  lbc_test::HookLatch trim_latch;
  store.SetWriteHook(rvm::LogFileName(1), trim_latch.WriteHook());
  base::Status a_status;
  std::thread a([&] { CommitByte(r.get(), 0, 0xA1, &a_status); });
  if (!trim_latch.WaitParked(std::chrono::seconds(10))) {
    trim_latch.Release();
    a.join();
    FAIL() << "A never appended";
  }
  std::atomic<bool> scanned_to_end{false};
  store.SetReadHook(rvm::LogFileName(1), [&](uint64_t, size_t got) {
    if (got == 0) {
      scanned_to_end = true;
    }
  });
  base::Status trim_status;
  std::atomic<bool> trimmed{false};
  std::thread trim([&] {
    trim_status = r->TrimLogWithBaselines({{kLock, 1}});
    trimmed = true;
  });
  const bool reached_end = WaitFor([&] { return scanned_to_end.load(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const bool trimmed_early = trimmed;
  trim_latch.Release();
  trim.join();
  a.join();
  store.SetReadHook("", nullptr);
  store.SetWriteHook("", nullptr);
  EXPECT_TRUE(reached_end) << "the trim never scanned the log";
  EXPECT_FALSE(trimmed_early) << "the trim swapped while an append was in flight";
  ASSERT_TRUE(trim_status.ok()) << trim_status.ToString();
  ASSERT_TRUE(a_status.ok()) << a_status.ToString();
  auto kept = *rvm::ReadLogTransactions(&mem, rvm::LogFileName(1));
  ASSERT_EQ(1u, kept.size()) << "the trim lost A's record or kept the checkpointed one";
  EXPECT_EQ(0u, kept[0].ranges[0].offset);
  EXPECT_EQ(log_file_size(), r->log_bytes());

  mem.Crash();
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&mem, {rvm::LogFileName(1)}).ok());
  auto r2 = std::move(*rvm::Rvm::Open(&mem, 2, rvm::RvmOptions{}));
  rvm::Region* region2 = *r2->MapRegion(kRegion, 4096);
  EXPECT_EQ(0xA1, region2->data()[0]);
}

}  // namespace
