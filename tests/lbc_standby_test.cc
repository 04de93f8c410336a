// Standby-driven checkpointing: log trimming without quiescing writers,
// crash recovery from the trimmed state, the selective trim's coverage
// rules (multi-lock records, lock-free records), and lock-rank order under
// the checkpoint.
#include "src/lbc/standby.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/base/sync.h"
#include "src/rvm/recovery.h"
#include "src/store/mem_store.h"
#include "tests/read_hook_store.h"

namespace {

constexpr rvm::RegionId kRegion = 1;
constexpr rvm::LockId kLock = 10;

struct StandbyFixture {
  explicit StandbyFixture(int n_writers) {
    cluster = std::make_unique<lbc::Cluster>(&hooked);
    cluster->DefineLock(kLock, kRegion, 1);
    for (int i = 0; i < n_writers; ++i) {
      writers.push_back(std::move(*lbc::Client::Create(cluster.get(), 1 + i, {})));
      EXPECT_TRUE(writers.back()->MapRegion(kRegion, 8192).ok());
    }
    lbc::ClientOptions standby_options;
    standby_options.versioned_reads = true;
    standby = std::move(*lbc::Client::Create(cluster.get(), 100, standby_options));
    EXPECT_TRUE(standby->MapRegion(kRegion, 8192).ok());
  }

  std::vector<lbc::Client*> WriterPtrs() {
    std::vector<lbc::Client*> out;
    for (auto& w : writers) {
      out.push_back(w.get());
    }
    return out;
  }

  uint64_t LogSize(rvm::NodeId node) {
    auto file = std::move(*store.Open(rvm::LogFileName(node), true));
    return *file->Size();
  }

  store::MemStore store;
  // Every client's I/O goes through here, so a test can stop a log scan.
  lbc_test::ReadHookStore hooked{&store};
  std::unique_ptr<lbc::Cluster> cluster;
  std::vector<std::unique_ptr<lbc::Client>> writers;
  std::unique_ptr<lbc::Client> standby;
};

void CommitByte(lbc::Client* c, uint64_t offset, uint8_t value) {
  lbc::Transaction txn = c->Begin();
  ASSERT_TRUE(txn.Acquire(kLock).ok());
  ASSERT_TRUE(txn.SetRange(kRegion, offset, 1).ok());
  c->GetRegion(kRegion)->data()[offset] = value;
  ASSERT_TRUE(txn.Commit().ok());
}

TEST(Standby, CheckpointEmptiesFullyCoveredLogs) {
  StandbyFixture fx(2);
  CommitByte(fx.writers[0].get(), 0, 1);
  ASSERT_TRUE(fx.writers[1]->WaitForAppliedSeq(kLock, 1, 5000));
  CommitByte(fx.writers[1].get(), 1, 2);
  // Wait until the standby has RECEIVED both updates (buffered).
  for (int i = 0; i < 2000 && fx.standby->stats().updates_received < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(fx.standby->stats().updates_received, 2u);

  EXPECT_GT(fx.LogSize(1), 0u);
  ASSERT_TRUE(lbc::CheckpointFromStandby(fx.cluster.get(), fx.standby.get(),
                                         fx.WriterPtrs())
                  .ok());
  EXPECT_EQ(0u, fx.LogSize(1));
  EXPECT_EQ(0u, fx.LogSize(2));

  // The database file holds the checkpointed state.
  auto db = std::move(*fx.store.Open(rvm::RegionFileName(kRegion), false));
  uint8_t buf[2];
  ASSERT_TRUE(db->ReadExact(0, buf, 2).ok());
  EXPECT_EQ(1, buf[0]);
  EXPECT_EQ(2, buf[1]);
}

TEST(Standby, UncoveredRecordsSurviveTheTrim) {
  StandbyFixture fx(1);
  lbc::Client* writer = fx.writers[0].get();
  CommitByte(writer, 0, 1);
  for (int i = 0; i < 2000 && fx.standby->stats().updates_received < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Fix the cut (covers seq 1) but commit MORE work before the trim runs —
  // emulating commits racing the checkpoint.
  ASSERT_TRUE(fx.standby->Accept().ok());
  CommitByte(writer, 1, 2);  // seq 2: above the cut
  ASSERT_TRUE(lbc::CheckpointFromStandby(fx.cluster.get(), fx.standby.get(),
                                         fx.WriterPtrs())
                  .ok());
  // NOTE: CheckpointFromStandby re-Accepts, so the cut may now cover seq 2
  // as well (if the update arrived in time). Either way, recovery must
  // produce both bytes:
  fx.store.Crash();
  lbc::Cluster cluster2(&fx.store);
  cluster2.DefineLock(kLock, kRegion, 1);
  ASSERT_TRUE(cluster2.RecoverAndTrim({1}).ok());
  auto db = std::move(*fx.store.Open(rvm::RegionFileName(kRegion), false));
  uint8_t buf[2];
  ASSERT_TRUE(db->ReadExact(0, buf, 2).ok());
  EXPECT_EQ(1, buf[0]);
  EXPECT_EQ(2, buf[1]);
}

// Polls `done` for up to `timeout`; a blocked thread is left running, for
// the caller to unblock and join.
bool SetWithin(const std::atomic<bool>& done, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done;
}

TEST(Standby, WritersKeepCommittingDuringCheckpoint) {
  lbc_test::HookLatch latch;  // outlives the fixture's store, which calls it
  StandbyFixture fx(2);
  lbc::Client* writer = fx.writers[0].get();
  for (int i = 0; i < 5; ++i) {
    CommitByte(writer, static_cast<uint64_t>(i), static_cast<uint8_t>(i + 1));
  }
  for (int i = 0; i < 2000 && fx.standby->stats().updates_received < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Park the trim of writer 1's log inside its scan: the first Read of the
  // log after this point is the trim's (the checkpoint reads no log before).
  fx.hooked.SetReadHook(rvm::LogFileName(1), latch.ReadHook());
  base::Status checkpoint_status;
  std::thread checkpoint([&] {
    checkpoint_status =
        lbc::CheckpointFromStandby(fx.cluster.get(), fx.standby.get(), fx.WriterPtrs());
  });
  if (!latch.WaitParked(std::chrono::seconds(10))) {
    latch.Release();
    checkpoint.join();
    FAIL() << "the trim never read writer 1's log";
  }

  // While the trim is parked, the same node commits (kFlush) and applies a
  // peer's update. A trim that held the rvm lock for its scan would block
  // both until the latch opens, so each gets a bounded wait.
  std::atomic<bool> committed{false};
  std::thread commit([&] {
    CommitByte(writer, 7, 77);
    committed = true;
  });
  const bool commit_returned = SetWithin(committed, std::chrono::seconds(10));
  std::atomic<bool> applied{false};
  base::Status apply_status;
  std::thread apply([&] {
    const uint8_t peer_byte = 99;
    apply_status = writer->rvm()->ApplyExternalUpdate(kRegion, 100, {&peer_byte, 1});
    applied = true;
  });
  const bool apply_returned = SetWithin(applied, std::chrono::seconds(10));
  latch.Release();
  commit.join();
  apply.join();
  checkpoint.join();
  fx.hooked.SetReadHook("", nullptr);
  EXPECT_TRUE(commit_returned) << "commit blocked behind the trim's scan";
  EXPECT_TRUE(apply_returned) << "peer apply blocked behind the trim's scan";
  ASSERT_TRUE(apply_status.ok()) << apply_status.ToString();
  ASSERT_TRUE(checkpoint_status.ok()) << checkpoint_status.ToString();

  // The checkpoint consumed no sequence number: the mid-trim commit took
  // the next one, above the cut, so the trim kept its record and only it.
  EXPECT_EQ(6u, writer->AppliedSeq(kLock));
  auto kept = *rvm::ReadLogTransactions(&fx.store, rvm::LogFileName(1));
  ASSERT_EQ(1u, kept.size());
  ASSERT_EQ(1u, kept[0].locks.size());
  EXPECT_EQ(6u, kept[0].locks[0].sequence);

  // And a crash now recovers checkpoint + the mid-trim record.
  fx.store.Crash();
  lbc::Cluster cluster2(&fx.store);
  cluster2.DefineLock(kLock, kRegion, 1);
  ASSERT_TRUE(cluster2.RecoverAndTrim({1, 2}).ok());
  auto db = std::move(*fx.store.Open(rvm::RegionFileName(kRegion), false));
  uint8_t buf[8];
  ASSERT_TRUE(db->ReadExact(0, buf, 8).ok());
  EXPECT_EQ(5, buf[4]);
  EXPECT_EQ(77, buf[7]);
}

TEST(Standby, RequiresMappedRegions) {
  StandbyFixture fx(1);
  fx.cluster->DefineLock(99, /*region=*/50, /*manager=*/1);  // standby lacks region 50
  EXPECT_EQ(base::StatusCode::kFailedPrecondition,
            lbc::CheckpointFromStandby(fx.cluster.get(), fx.standby.get(),
                                       fx.WriterPtrs())
                .code());
}

TEST(Standby, BaselineLetsLateJoinersSkipHistory) {
  StandbyFixture fx(1);
  CommitByte(fx.writers[0].get(), 0, 42);
  for (int i = 0; i < 2000 && fx.standby->stats().updates_received < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(lbc::CheckpointFromStandby(fx.cluster.get(), fx.standby.get(),
                                         fx.WriterPtrs())
                  .ok());
  auto late = std::move(*lbc::Client::Create(fx.cluster.get(), 50, {}));
  rvm::Region* region = *late->MapRegion(kRegion, 8192);
  EXPECT_EQ(42, region->data()[0]);            // image from the checkpoint
  EXPECT_EQ(1u, late->AppliedSeq(kLock));      // baseline adopted
  // Fully participates afterwards.
  CommitByte(fx.writers[0].get(), 1, 7);
  ASSERT_TRUE(late->WaitForAppliedSeq(kLock, 2, 5000));
  EXPECT_EQ(7, late->GetRegion(kRegion)->data()[1]);
}

TEST(Standby, MultiLockRecordKeptUntilBothLocksCovered) {
  // A record holding two locks is only covered when BOTH sequence numbers
  // are at or below their baselines.
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 1);
  cluster.DefineLock(11, kRegion, 1);
  auto writer = std::move(*lbc::Client::Create(&cluster, 1, {}));
  ASSERT_TRUE(writer->MapRegion(kRegion, 8192).ok());
  {
    lbc::Transaction txn = writer->Begin();
    ASSERT_TRUE(txn.Acquire(kLock).ok());
    ASSERT_TRUE(txn.Acquire(11).ok());
    ASSERT_TRUE(txn.SetRange(kRegion, 0, 1).ok());
    writer->GetRegion(kRegion)->data()[0] = 1;
    ASSERT_TRUE(txn.Commit().ok());
  }
  // Baseline covers kLock but NOT lock 11: record must survive.
  std::map<rvm::LockId, uint64_t> partial = {{kLock, 1}};
  ASSERT_TRUE(writer->rvm()->TrimLogWithBaselines(partial).ok());
  auto kept = *rvm::ReadLogTransactions(&store, rvm::LogFileName(1));
  ASSERT_EQ(1u, kept.size());
  // Covering both locks trims it.
  std::map<rvm::LockId, uint64_t> full = {{kLock, 1}, {11, 1}};
  ASSERT_TRUE(writer->rvm()->TrimLogWithBaselines(full).ok());
  kept = *rvm::ReadLogTransactions(&store, rvm::LogFileName(1));
  EXPECT_TRUE(kept.empty());
}

// The checkpoint holds the cluster's database-writer lock while it writes
// the images; nothing it does under that lock may take the standby's
// lower-ranked client lock. Optimized builds leave the lock-order detector
// off, so the test forces it on and collects reports instead of aborting.
TEST(Standby, CheckpointRespectsLockRanks) {
  base::Mutex reports_mu{"test.standby.reports"};
  std::vector<std::string> reports;
  const bool was_enabled = base::LockOrderEnabled();
  base::LockOrderTestOnlyReset();
  base::SetLockOrderEnabled(true);
  base::SetLockOrderHandler([&](const base::LockOrderReport& report) {
    base::MutexLock guard(reports_mu);
    reports.push_back(report.message);
  });
  {
    StandbyFixture fx(1);
    CommitByte(fx.writers[0].get(), 0, 7);
    for (int i = 0; i < 2000 && fx.standby->stats().updates_received < 1; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(lbc::CheckpointFromStandby(fx.cluster.get(), fx.standby.get(),
                                           fx.WriterPtrs())
                    .ok());
  }
  base::SetLockOrderHandler(nullptr);
  base::SetLockOrderEnabled(was_enabled);
  base::LockOrderTestOnlyReset();
  EXPECT_TRUE(reports.empty()) << reports.front();
}

}  // namespace
