// DurableStore conformance tests run against every implementation (including
// the CrashPointStore decorator over each), plus MemStore-specific crash and
// failure-injection behaviour and CrashPointStore crash-injection tests.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <vector>

#include "src/store/corrupting_store.h"
#include "src/store/crash_point_store.h"
#include "src/store/durable_store.h"
#include "src/store/mem_store.h"
#include "src/store/replicated_store.h"
#include "src/store/resource_store.h"

namespace {

enum class StoreKind {
  kMem,
  kFile,
  kCrashPointMem,
  kCrashPointFile,
  kReplicatedMem,
  kCorruptingMem,
  kResourceMem,
  kResourceFile,
  kResourceReplicated,
};

class StoreConformanceTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  void SetUp() override {
    StoreKind kind = GetParam();
    if (kind == StoreKind::kFile || kind == StoreKind::kCrashPointFile ||
        kind == StoreKind::kResourceFile) {
      dir_ = std::filesystem::temp_directory_path() /
             ("lbc_store_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name());
      std::filesystem::remove_all(dir_);
      backing_ = std::move(*store::OpenFileStore(dir_.string()));
    } else {
      backing_ = std::make_unique<store::MemStore>();
    }
    switch (kind) {
      case StoreKind::kCrashPointMem:
      case StoreKind::kCrashPointFile:
        store_ = std::make_unique<store::CrashPointStore>(backing_.get());
        break;
      case StoreKind::kReplicatedMem:
        backing2_ = std::make_unique<store::MemStore>();
        store_ = std::make_unique<store::ReplicatedStore>(
            std::vector<store::DurableStore*>{backing_.get(), backing2_.get()});
        break;
      case StoreKind::kCorruptingMem:
        store_ = std::make_unique<store::CorruptionInjectingStore>(backing_.get());
        break;
      case StoreKind::kResourceMem:
      case StoreKind::kResourceFile:
        store_ = std::make_unique<store::ResourceStore>(backing_.get());
        break;
      case StoreKind::kResourceReplicated:
        backing2_ = std::make_unique<store::MemStore>();
        inner_ = std::make_unique<store::ReplicatedStore>(
            std::vector<store::DurableStore*>{backing_.get(), backing2_.get()});
        store_ = std::make_unique<store::ResourceStore>(inner_.get());
        break;
      default:
        store_ = std::move(backing_);
        break;
    }
  }

  void TearDown() override {
    store_.reset();
    inner_.reset();
    backing2_.reset();
    backing_.reset();
    if (!dir_.empty()) {
      std::filesystem::remove_all(dir_);
    }
  }

  std::unique_ptr<store::DurableStore> backing_;  // set when store_ decorates
  std::unique_ptr<store::DurableStore> backing2_;  // second replica (replicated kinds)
  std::unique_ptr<store::DurableStore> inner_;    // middle layer (kResourceReplicated)
  std::unique_ptr<store::DurableStore> store_;
  std::filesystem::path dir_;
};

TEST_P(StoreConformanceTest, OpenMissingWithoutCreateFails) {
  auto r = store_->Open("nope", /*create=*/false);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(base::StatusCode::kNotFound, r.status().code());
}

TEST_P(StoreConformanceTest, WriteReadRoundTrip) {
  auto file = std::move(*store_->Open("f", true));
  ASSERT_TRUE(file->Write(0, base::AsBytes("hello", 5)).ok());
  char buf[5];
  ASSERT_TRUE(file->ReadExact(0, buf, 5).ok());
  EXPECT_EQ(0, std::memcmp(buf, "hello", 5));
}

TEST_P(StoreConformanceTest, WriteExtendsFile) {
  auto file = std::move(*store_->Open("f", true));
  ASSERT_TRUE(file->Write(100, base::AsBytes("x", 1)).ok());
  EXPECT_EQ(101u, *file->Size());
  // The gap reads as zeros.
  char buf[3];
  ASSERT_TRUE(file->ReadExact(50, buf, 3).ok());
  EXPECT_EQ(0, buf[0]);
}

TEST_P(StoreConformanceTest, ReadPastEndIsShort) {
  auto file = std::move(*store_->Open("f", true));
  ASSERT_TRUE(file->Write(0, base::AsBytes("abc", 3)).ok());
  char buf[10];
  EXPECT_EQ(3u, *file->Read(0, buf, 10));
  EXPECT_EQ(0u, *file->Read(3, buf, 10));
  EXPECT_EQ(base::StatusCode::kDataLoss, file->ReadExact(0, buf, 10).code());
}

TEST_P(StoreConformanceTest, AppendReturnsOffset) {
  auto file = std::move(*store_->Open("f", true));
  EXPECT_EQ(0u, *file->Append(base::AsBytes("aaa", 3)));
  EXPECT_EQ(3u, *file->Append(base::AsBytes("bb", 2)));
  EXPECT_EQ(5u, *file->Size());
}

TEST_P(StoreConformanceTest, TruncateShrinks) {
  auto file = std::move(*store_->Open("f", true));
  ASSERT_TRUE(file->Write(0, base::AsBytes("abcdef", 6)).ok());
  ASSERT_TRUE(file->Truncate(2).ok());
  EXPECT_EQ(2u, *file->Size());
}

TEST_P(StoreConformanceTest, ExistsRemoveList) {
  EXPECT_FALSE(*store_->Exists("f"));
  { auto file = std::move(*store_->Open("f", true)); }
  EXPECT_TRUE(*store_->Exists("f"));
  auto names = *store_->List();
  EXPECT_EQ(1u, names.size());
  ASSERT_TRUE(store_->Remove("f").ok());
  EXPECT_FALSE(*store_->Exists("f"));
  // Removing a missing file is not an error (idempotent cleanup).
  EXPECT_TRUE(store_->Remove("f").ok());
}

TEST_P(StoreConformanceTest, RenameMovesContent) {
  {
    auto file = std::move(*store_->Open("a", true));
    ASSERT_TRUE(file->Write(0, base::AsBytes("data", 4)).ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  ASSERT_TRUE(store_->Rename("a", "b").ok());
  EXPECT_FALSE(*store_->Exists("a"));
  auto file = std::move(*store_->Open("b", false));
  char buf[4];
  ASSERT_TRUE(file->ReadExact(0, buf, 4).ok());
  EXPECT_EQ(0, std::memcmp(buf, "data", 4));
}

TEST_P(StoreConformanceTest, SyncDirSucceeds) {
  { auto file = std::move(*store_->Open("f", true)); }
  EXPECT_TRUE(store_->SyncDir().ok());
  ASSERT_TRUE(store_->Rename("f", "g").ok());
  EXPECT_TRUE(store_->SyncDir().ok());
}

INSTANTIATE_TEST_SUITE_P(Impls, StoreConformanceTest,
                         ::testing::Values(StoreKind::kMem, StoreKind::kFile,
                                           StoreKind::kCrashPointMem,
                                           StoreKind::kCrashPointFile,
                                           StoreKind::kReplicatedMem,
                                           StoreKind::kCorruptingMem,
                                           StoreKind::kResourceMem,
                                           StoreKind::kResourceFile,
                                           StoreKind::kResourceReplicated),
                         [](const auto& info) {
                           switch (info.param) {
                             case StoreKind::kMem: return "Mem";
                             case StoreKind::kFile: return "File";
                             case StoreKind::kCrashPointMem: return "CrashPointMem";
                             case StoreKind::kCrashPointFile: return "CrashPointFile";
                             case StoreKind::kReplicatedMem: return "ReplicatedMem";
                             case StoreKind::kCorruptingMem: return "CorruptingMem";
                             case StoreKind::kResourceMem: return "ResourceMem";
                             case StoreKind::kResourceFile: return "ResourceFile";
                             default: return "ResourceReplicated";
                           }
                         });

// --- MemStore crash semantics ----------------------------------------------

TEST(MemStoreCrash, UnsyncedWritesVanish) {
  store::MemStore store;
  auto file = std::move(*store.Open("f", true));
  ASSERT_TRUE(file->Write(0, base::AsBytes("SAFE", 4)).ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Write(0, base::AsBytes("GONE", 4)).ok());
  store.Crash();
  char buf[4];
  ASSERT_TRUE(file->ReadExact(0, buf, 4).ok());
  EXPECT_EQ(0, std::memcmp(buf, "SAFE", 4));
}

TEST(MemStoreCrash, TornWriteLeavesPrefix) {
  store::MemStore store;
  auto file = std::move(*store.Open("f", true));
  ASSERT_TRUE(file->Write(0, base::AsBytes("AAAA", 4)).ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Write(0, base::AsBytes("BBBB", 4)).ok());
  store.Crash(/*torn_bytes=*/2);
  char buf[4];
  ASSERT_TRUE(file->ReadExact(0, buf, 4).ok());
  EXPECT_EQ(0, std::memcmp(buf, "BBAA", 4));
}

TEST(MemStoreCrash, TornBudgetSpansWritesInOrder) {
  store::MemStore store;
  auto file = std::move(*store.Open("f", true));
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Write(0, base::AsBytes("11", 2)).ok());
  ASSERT_TRUE(file->Write(2, base::AsBytes("22", 2)).ok());
  ASSERT_TRUE(file->Write(4, base::AsBytes("33", 2)).ok());
  store.Crash(/*torn_bytes=*/3);
  char buf[6] = {0};
  size_t n = *file->Read(0, buf, 6);
  // First write fully survives, second tears after one byte, third is gone.
  ASSERT_GE(n, 3u);
  EXPECT_EQ(0, std::memcmp(buf, "112", 3));
  EXPECT_EQ(3u, n);
}

TEST(MemStoreInjection, FailWritesAfterBudget) {
  store::MemStore store;
  auto file = std::move(*store.Open("f", true));
  store.FailWritesAfterBytes(5);
  ASSERT_TRUE(file->Write(0, base::AsBytes("1234", 4)).ok());
  EXPECT_EQ(base::StatusCode::kIoError, file->Write(4, base::AsBytes("5678", 4)).code());
  store.FailWritesAfterBytes(-1);
  EXPECT_TRUE(file->Write(4, base::AsBytes("5678", 4)).ok());
}

TEST(MemStoreStats, CountsBytesAndSyncs) {
  store::MemStore store;
  auto file = std::move(*store.Open("f", true));
  ASSERT_TRUE(file->Write(0, base::AsBytes("12345", 5)).ok());
  ASSERT_TRUE(file->Sync().ok());
  EXPECT_EQ(5u, store.total_bytes_written());
  EXPECT_EQ(1u, store.sync_count());
}

TEST(MemStore, HandlesSurviveCrash) {
  store::MemStore store;
  auto a = std::move(*store.Open("f", true));
  auto b = std::move(*store.Open("f", true));
  ASSERT_TRUE(a->Write(0, base::AsBytes("x", 1)).ok());
  ASSERT_TRUE(a->Sync().ok());
  store.Crash();
  char c;
  ASSERT_TRUE(b->ReadExact(0, &c, 1).ok());
  EXPECT_EQ('x', c);
}

// --- MemStore namespace durability (real-FS dirent semantics) ---------------

TEST(MemStoreNamespace, UnsyncedCreationVanishesAtCrash) {
  store::MemStore store;
  {
    auto file = std::move(*store.Open("f", true));
    ASSERT_TRUE(file->Write(0, base::AsBytes("data", 4)).ok());
    // No Sync, no SyncDir: the dirent never reached disk.
  }
  store.Crash();
  EXPECT_FALSE(*store.Exists("f"));
}

TEST(MemStoreNamespace, FileSyncCommitsCreation) {
  store::MemStore store;
  auto file = std::move(*store.Open("f", true));
  ASSERT_TRUE(file->Write(0, base::AsBytes("data", 4)).ok());
  ASSERT_TRUE(file->Sync().ok());
  store.Crash();
  EXPECT_TRUE(*store.Exists("f"));
  char buf[4];
  ASSERT_TRUE(file->ReadExact(0, buf, 4).ok());
  EXPECT_EQ(0, std::memcmp(buf, "data", 4));
}

TEST(MemStoreNamespace, SyncDirCommitsCreationButNotContent) {
  store::MemStore store;
  auto file = std::move(*store.Open("f", true));
  ASSERT_TRUE(file->Write(0, base::AsBytes("data", 4)).ok());
  ASSERT_TRUE(store.SyncDir().ok());
  store.Crash();
  // The name survives (dirent fsynced) but the unsynced bytes do not.
  EXPECT_TRUE(*store.Exists("f"));
  EXPECT_EQ(0u, *file->Size());
}

TEST(MemStoreNamespace, UnsyncedRenameRollsBackAtCrash) {
  store::MemStore store;
  {
    auto file = std::move(*store.Open("a", true));
    ASSERT_TRUE(file->Write(0, base::AsBytes("v", 1)).ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  ASSERT_TRUE(store.Rename("a", "b").ok());
  store.Crash();
  EXPECT_TRUE(*store.Exists("a"));
  EXPECT_FALSE(*store.Exists("b"));
}

TEST(MemStoreNamespace, SyncDirCommitsRename) {
  store::MemStore store;
  {
    auto file = std::move(*store.Open("a", true));
    ASSERT_TRUE(file->Write(0, base::AsBytes("v", 1)).ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  ASSERT_TRUE(store.Rename("a", "b").ok());
  ASSERT_TRUE(store.SyncDir().ok());
  store.Crash();
  EXPECT_FALSE(*store.Exists("a"));
  EXPECT_TRUE(*store.Exists("b"));
}

TEST(MemStoreNamespace, FileSyncDoesNotCommitRename) {
  store::MemStore store;
  auto file = std::move(*store.Open("a", true));
  ASSERT_TRUE(file->Write(0, base::AsBytes("v", 1)).ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(store.Rename("a", "b").ok());
  // fsync of the file flushes content but not the parent directory: the
  // rename itself stays volatile (this is what loses a checkpoint swap).
  ASSERT_TRUE(file->Sync().ok());
  store.Crash();
  EXPECT_TRUE(*store.Exists("a"));
  EXPECT_FALSE(*store.Exists("b"));
}

TEST(MemStoreNamespace, UnsyncedRemoveRollsBackAtCrash) {
  store::MemStore store;
  {
    auto file = std::move(*store.Open("f", true));
    ASSERT_TRUE(file->Write(0, base::AsBytes("v", 1)).ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  ASSERT_TRUE(store.Remove("f").ok());
  EXPECT_FALSE(*store.Exists("f"));
  store.Crash();
  EXPECT_TRUE(*store.Exists("f"));  // unlink never reached disk
}

TEST(MemStoreNamespace, SyncDirCommitsRemove) {
  store::MemStore store;
  {
    auto file = std::move(*store.Open("f", true));
    ASSERT_TRUE(file->Sync().ok());
  }
  ASSERT_TRUE(store.Remove("f").ok());
  ASSERT_TRUE(store.SyncDir().ok());
  store.Crash();
  EXPECT_FALSE(*store.Exists("f"));
}

// --- CrashPointStore --------------------------------------------------------

TEST(CrashPointStore, NumbersMutatingOpsAndLogsKinds) {
  store::MemStore mem;
  store::CrashPointStore cps(&mem);
  auto file = std::move(*cps.Open("f", true));             // op 0: create
  ASSERT_TRUE(file->Write(0, base::AsBytes("x", 1)).ok()); // op 1: write
  ASSERT_TRUE(file->Sync().ok());                          // op 2: sync
  ASSERT_TRUE(file->Append(base::AsBytes("y", 1)).ok());   // op 3: append
  ASSERT_TRUE(file->Truncate(1).ok());                     // op 4: truncate
  ASSERT_TRUE(cps.Rename("f", "g").ok());                  // op 5: rename
  ASSERT_TRUE(cps.SyncDir().ok());                         // op 6: syncdir
  ASSERT_TRUE(cps.Remove("g").ok());                       // op 7: remove
  // Reads, Exists, List, and re-opens of existing files are not mutations.
  { auto again = std::move(*cps.Open("g", true)); }        // op 8: create again
  EXPECT_TRUE(*cps.Exists("g"));
  EXPECT_EQ(9u, cps.op_count());
  using K = store::CrashOpKind;
  std::vector<K> expected = {K::kCreate, K::kWrite,  K::kSync,
                             K::kAppend, K::kTruncate, K::kRename,
                             K::kSyncDir, K::kRemove, K::kCreate};
  EXPECT_EQ(expected, cps.op_kinds());
}

TEST(CrashPointStore, CrashHaltsStoreUntilDisarm) {
  store::MemStore mem;
  bool hook_ran = false;
  store::CrashPointStore cps(&mem);
  cps.SetCrashHook([&] {
    hook_ran = true;
    mem.Crash(0);
  });
  auto file = std::move(*cps.Open("f", true));  // op 0
  ASSERT_TRUE(file->Write(0, base::AsBytes("AA", 2)).ok());  // op 1
  ASSERT_TRUE(file->Sync().ok());                            // op 2
  cps.ArmCrashAtOp(3);
  auto st = file->Write(0, base::AsBytes("BB", 2));          // op 3: boom
  EXPECT_EQ(base::StatusCode::kUnavailable, st.code());
  EXPECT_TRUE(cps.crashed());
  EXPECT_TRUE(hook_ran);
  EXPECT_EQ(3u, cps.crash_op());
  // Everything fails until reboot, reads included.
  char buf[2];
  EXPECT_FALSE(file->Read(0, buf, 2).ok());
  EXPECT_FALSE(cps.Exists("f").ok());
  cps.Disarm();
  ASSERT_TRUE(file->ReadExact(0, buf, 2).ok());
  EXPECT_EQ(0, std::memcmp(buf, "AA", 2));  // interrupted write never landed
}

TEST(CrashPointStore, TornVariantPersistsPrefixOfInterruptedWrite) {
  store::MemStore mem;
  store::CrashPointStore cps(&mem);
  cps.SetCrashHook([&] { mem.Crash(0); });
  auto file = std::move(*cps.Open("f", true));               // op 0
  ASSERT_TRUE(file->Write(0, base::AsBytes("AAAA", 4)).ok());  // op 1
  ASSERT_TRUE(file->Sync().ok());                              // op 2
  cps.ArmCrashAtOp(3, /*torn_bytes=*/2);
  EXPECT_FALSE(file->Write(0, base::AsBytes("BBBB", 4)).ok());  // op 3
  cps.Disarm();
  char buf[4];
  ASSERT_TRUE(file->ReadExact(0, buf, 4).ok());
  EXPECT_EQ(0, std::memcmp(buf, "BBAA", 4));
}

TEST(CrashPointStore, CrashAtCreateLeavesNoFile) {
  store::MemStore mem;
  store::CrashPointStore cps(&mem);
  cps.SetCrashHook([&] { mem.Crash(0); });
  cps.ArmCrashAtOp(0);
  EXPECT_FALSE(cps.Open("f", true).ok());
  cps.Disarm();
  EXPECT_FALSE(*cps.Exists("f"));
}

TEST(CrashPointStore, ResetOpCountStartsNewEpoch) {
  store::MemStore mem;
  store::CrashPointStore cps(&mem);
  auto file = std::move(*cps.Open("f", true));
  ASSERT_TRUE(file->Sync().ok());
  EXPECT_EQ(2u, cps.op_count());
  cps.ResetOpCount();
  EXPECT_EQ(0u, cps.op_count());
  ASSERT_TRUE(file->Sync().ok());
  EXPECT_EQ(1u, cps.op_count());
}

// --- CorruptionInjectingStore ------------------------------------------------

TEST(CorruptingStore, FlipBitMutatesStoredByte) {
  store::MemStore mem;
  store::CorruptionInjectingStore cs(&mem);
  auto file = std::move(*cs.Open("f", true));
  ASSERT_TRUE(file->Write(0, base::AsBytes("\x0F", 1)).ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(cs.FlipBit("f", 0, 7).ok());
  char c;
  ASSERT_TRUE(file->ReadExact(0, &c, 1).ok());
  EXPECT_EQ('\x8F', c);
  EXPECT_EQ(1u, cs.injected_corruptions());
  // The damage is already durable: it survives a simulated power loss.
  mem.Crash();
  ASSERT_TRUE(file->ReadExact(0, &c, 1).ok());
  EXPECT_EQ('\x8F', c);
}

TEST(CorruptingStore, FlipBitOutOfRangeFails) {
  store::MemStore mem;
  store::CorruptionInjectingStore cs(&mem);
  { auto file = std::move(*cs.Open("f", true)); }
  EXPECT_FALSE(cs.FlipBit("f", 0, 0).ok());  // empty file
  EXPECT_FALSE(cs.FlipBit("missing", 0, 0).ok());
}

TEST(CorruptingStore, ZeroRangeClampsToFileSize) {
  store::MemStore mem;
  store::CorruptionInjectingStore cs(&mem);
  auto file = std::move(*cs.Open("f", true));
  ASSERT_TRUE(file->Write(0, base::AsBytes("abcdef", 6)).ok());
  ASSERT_TRUE(cs.ZeroRange("f", 4, 100).ok());
  char buf[6];
  ASSERT_TRUE(file->ReadExact(0, buf, 6).ok());
  EXPECT_EQ(0, std::memcmp(buf, "abcd\0\0", 6));
  EXPECT_EQ(6u, *file->Size());  // zeroing never extends the file
}

TEST(CorruptingStore, CorruptRandomBitIsSeededDeterministic) {
  auto run = [](uint64_t seed) {
    store::MemStore mem;
    store::CorruptionInjectingStore cs(&mem, seed);
    auto file = std::move(*cs.Open("f", true));
    std::vector<uint8_t> data(128, 0xAA);
    EXPECT_TRUE(file->Write(0, base::ByteSpan(data.data(), data.size())).ok());
    return *cs.CorruptRandomBit("f");
  };
  EXPECT_EQ(run(1234), run(1234));
}

TEST(CorruptingStore, ReadGateFailsOnlyTheNamedFile) {
  store::MemStore mem;
  store::CorruptionInjectingStore cs(&mem);
  auto bad = std::move(*cs.Open("bad", true));
  auto good = std::move(*cs.Open("good", true));
  ASSERT_TRUE(bad->Write(0, base::AsBytes("x", 1)).ok());
  ASSERT_TRUE(good->Write(0, base::AsBytes("y", 1)).ok());
  cs.FailReads("bad", true);
  char c;
  EXPECT_EQ(base::StatusCode::kIoError, bad->Read(0, &c, 1).status().code());
  EXPECT_TRUE(good->ReadExact(0, &c, 1).ok());
  cs.ClearFailures();
  EXPECT_TRUE(bad->ReadExact(0, &c, 1).ok());
}

TEST(CorruptingStore, WriteAndSyncGates) {
  store::MemStore mem;
  store::CorruptionInjectingStore cs(&mem);
  auto file = std::move(*cs.Open("f", true));
  cs.FailWrites("f", true);
  EXPECT_EQ(base::StatusCode::kIoError, file->Write(0, base::AsBytes("x", 1)).code());
  EXPECT_EQ(base::StatusCode::kIoError, file->Append(base::AsBytes("x", 1)).status().code());
  EXPECT_EQ(base::StatusCode::kIoError, file->Truncate(0).code());
  cs.FailWrites("f", false);
  ASSERT_TRUE(file->Write(0, base::AsBytes("x", 1)).ok());
  cs.FailSyncs("f", true);
  EXPECT_EQ(base::StatusCode::kIoError, file->Sync().code());
  cs.FailSyncs("f", false);
  EXPECT_TRUE(file->Sync().ok());
}

TEST(CrashPointStore, OfflineFailsEverythingWithoutCrashing) {
  store::MemStore mem;
  store::CrashPointStore cps(&mem);
  auto file = std::move(*cps.Open("f", true));
  ASSERT_TRUE(file->Write(0, base::AsBytes("x", 1)).ok());
  ASSERT_TRUE(file->Sync().ok());
  cps.SetOffline(true);
  char c;
  EXPECT_EQ(base::StatusCode::kUnavailable, file->Write(1, base::AsBytes("y", 1)).code());
  EXPECT_EQ(base::StatusCode::kUnavailable, file->Read(0, &c, 1).status().code());
  EXPECT_FALSE(cps.crashed());
  cps.SetOffline(false);
  ASSERT_TRUE(file->ReadExact(0, &c, 1).ok());
  EXPECT_EQ('x', c);  // no state was lost by the outage itself
}

// ---------------------------------------------------------------------------
// ResourceStore: byte quota + latency injection
// ---------------------------------------------------------------------------

// Runs `body` over a fresh MemStore and over a FileStore in a fresh temp
// directory: the decorator's quota is the only one either backing has.
void ForEachBacking(const std::function<void(store::DurableStore*)>& body) {
  {
    SCOPED_TRACE("MemStore");
    store::MemStore mem;
    body(&mem);
  }
  SCOPED_TRACE("FileStore");
  auto dir = std::filesystem::temp_directory_path() /
             ("lbc_resource_quota_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name());
  std::filesystem::remove_all(dir);
  {
    auto files = std::move(*store::OpenFileStore(dir.string()));
    body(files.get());
  }
  std::filesystem::remove_all(dir);
}

TEST(ResourceStore, QuotaRefusesWholeWrite) {
  ForEachBacking([](store::DurableStore* backing) {
    store::ResourceStore rs(backing);
    auto file = std::move(*rs.Open("f", true));
    ASSERT_TRUE(rs.SetQuotaBytes(8).ok());
    ASSERT_TRUE(file->Write(0, base::AsBytes("12345678", 8)).ok());
    // One byte over: nothing of the write may land.
    auto st = file->Write(4, base::AsBytes("abcde", 5));
    EXPECT_EQ(base::StatusCode::kResourceExhausted, st.code());
    EXPECT_EQ(8u, *file->Size());
    char buf[8];
    ASSERT_TRUE(file->ReadExact(0, buf, 8).ok());
    EXPECT_EQ(0, std::memcmp(buf, "12345678", 8));
    EXPECT_EQ(1u, rs.enospc_count());
    // Overwrites within the quota still work.
    EXPECT_TRUE(file->Write(0, base::AsBytes("zzzzzzzz", 8)).ok());
  });
}

TEST(ResourceStore, AppendShortWritesTheFittingPrefix) {
  ForEachBacking([](store::DurableStore* backing) {
    store::ResourceStore rs(backing);
    ASSERT_TRUE(rs.SetQuotaBytes(10).ok());
    auto file = std::move(*rs.Open("f", true));
    ASSERT_TRUE(file->Append(base::AsBytes("1234567", 7)).ok());
    // 3 bytes of space left: the torn prefix lands, then ENOSPC.
    auto r = file->Append(base::AsBytes("abcdef", 6));
    EXPECT_EQ(base::StatusCode::kResourceExhausted, r.status().code());
    EXPECT_EQ(10u, *file->Size());
    char buf[10];
    ASSERT_TRUE(file->ReadExact(0, buf, 10).ok());
    EXPECT_EQ(0, std::memcmp(buf, "1234567abc", 10));
    EXPECT_EQ(10u, rs.used_bytes());
  });
}

TEST(ResourceStore, FreesReturnCapacity) {
  ForEachBacking([](store::DurableStore* backing) {
    store::ResourceStore rs(backing);
    ASSERT_TRUE(rs.SetQuotaBytes(8).ok());
    auto f1 = std::move(*rs.Open("a", true));
    ASSERT_TRUE(f1->Write(0, base::AsBytes("12345678", 8)).ok());
    auto f2 = std::move(*rs.Open("b", true));
    EXPECT_EQ(base::StatusCode::kResourceExhausted,
              f2->Write(0, base::AsBytes("x", 1)).code());
    // Truncate growth is gated like a write...
    EXPECT_EQ(base::StatusCode::kResourceExhausted, f1->Truncate(9).code());
    EXPECT_EQ(8u, *f1->Size());
    // ...Truncate-down returns capacity...
    ASSERT_TRUE(f1->Truncate(4).ok());
    EXPECT_EQ(4u, rs.used_bytes());
    EXPECT_TRUE(f2->Write(0, base::AsBytes("abcd", 4)).ok());
    // ...and Remove returns the rest.
    f1.reset();
    ASSERT_TRUE(rs.Remove("a").ok());
    EXPECT_EQ(4u, rs.used_bytes());
    EXPECT_TRUE(f2->Write(4, base::AsBytes("efgh", 4)).ok());
  });
}

TEST(ResourceStore, SetQuotaScansExistingUsage) {
  ForEachBacking([](store::DurableStore* backing) {
    {
      auto file = std::move(*backing->Open("pre", true));
      ASSERT_TRUE(file->Write(0, base::AsBytes("123456", 6)).ok());
    }
    store::ResourceStore rs(backing);
    ASSERT_TRUE(rs.SetQuotaBytes(8).ok());
    EXPECT_EQ(6u, rs.used_bytes());
    auto file = std::move(*rs.Open("pre", true));
    EXPECT_EQ(base::StatusCode::kResourceExhausted,
              file->Write(0, base::AsBytes("123456789", 9)).code());
  });
}

TEST(ResourceStore, LatencyInjectionDelaysMatchingFiles) {
  store::MemStore mem;
  store::ResourceStore rs(&mem, /*seed=*/7);
  rs.InjectLatency("slow", /*mean_nanos=*/2'000'000, /*jitter_nanos=*/1'000'000);
  auto slow = std::move(*rs.Open("slow.log", true));
  auto fast = std::move(*rs.Open("fast.log", true));
  auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(slow->Write(0, base::AsBytes("x", 1)).ok());
  auto slow_nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_GE(slow_nanos, 1'000'000);  // at least mean - jitter
  ASSERT_TRUE(fast->Write(0, base::AsBytes("x", 1)).ok());
  rs.ClearLatency();
  t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(slow->Write(0, base::AsBytes("y", 1)).ok());
  // No assertion on the fast path's absolute time (CI noise); only that the
  // rule is really gone from the store's rule list.
  ASSERT_TRUE(slow->Sync().ok());
}

TEST(ResourceStore, ComposesUnderCrashPoint) {
  // CrashPoint over Resource over Mem, with the power cut the crash explorer
  // uses: MemStore::Crash drops the unsynced bytes, then the decorator
  // rebuilds its ledger from the sizes that survived.
  store::MemStore mem;
  store::ResourceStore rs(&mem);
  ASSERT_TRUE(rs.SetQuotaBytes(8).ok());
  store::CrashPointStore cps(&rs);
  cps.SetCrashHook([&] {
    mem.Crash(0);
    EXPECT_TRUE(rs.RescanUsage().ok());
  });
  auto file = std::move(*cps.Open("f", true));
  ASSERT_TRUE(file->Append(base::AsBytes("123", 3)).ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Append(base::AsBytes("4567", 4)).ok());  // never synced
  EXPECT_EQ(7u, rs.used_bytes());
  cps.ArmCrashAtOp(cps.op_count());
  EXPECT_FALSE(file->Sync().ok());
  cps.Disarm();
  // The ledger matches the post-crash sizes...
  EXPECT_EQ(3u, *file->Size());
  EXPECT_EQ(3u, rs.used_bytes());
  // ...so a write that fits only the real free space (5 of 8 bytes)
  // succeeds rather than being refused for the lost tail.
  EXPECT_TRUE(file->Append(base::AsBytes("abcde", 5)).ok());
  EXPECT_EQ(8u, rs.used_bytes());
  EXPECT_EQ(0u, rs.enospc_count());
}

}  // namespace
