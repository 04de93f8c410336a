// Systematic crash-schedule exploration over a fixed multi-client workload.
//
// Three raw Rvm nodes share one store and commit nine kFlush transactions
// into two regions (disjoint per-node slices, one segment lock per region,
// driver-assigned sequence numbers), with a §3.5-style checkpoint — merge +
// replay + per-node TrimLogWithBaselines — wedged into the middle so the
// sweep also crashes inside log truncation's temp-write/rename/dir-sync
// dance. The explorer then crashes the workload before every mutating store
// operation (plus torn-tail variants of each write), reboots, recovers via
// ReplayLogsIntoDatabase, and checks the paper's invariant: the recovered
// database equals the state after a prefix of the committed order — either
// exactly the transactions whose commit returned, or those plus one
// in-flight commit whose log record happened to be complete on the platter.
// A second sweep crashes recovery itself and requires re-recovery to land
// byte-identical to a clean single pass (replay idempotence).
//
// Budget/seed are env-tunable: LBC_CRASH_BUDGET (0 = exhaustive, the
// default — the workload is small enough to sweep fully) and
// LBC_CRASH_SEED select the sampled subset when a budget is set.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/rvm/crash_explorer.h"
#include "src/rvm/recovery.h"
#include "src/rvm/rvm.h"
#include "src/rvm/types.h"
#include "src/store/durable_store.h"
#include "tests/read_hook_store.h"

namespace {

class ObsSnapshotEnvironment : public ::testing::Environment {
 public:
  void TearDown() override {
    std::string path = obs::SnapshotPath();
    base::Status status = obs::WriteJsonSnapshot(path);
    if (status.ok()) {
      std::printf("obs snapshot: %s\n", path.c_str());
    } else {
      std::printf("obs snapshot failed: %s\n", status.ToString().c_str());
    }
  }
};

const ::testing::Environment* const kObsEnv =
    ::testing::AddGlobalTestEnvironment(new ObsSnapshotEnvironment());

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  return static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
}

// --- the fixed workload -----------------------------------------------------

constexpr uint64_t kSliceSize = 16;
constexpr uint64_t kRegionSize = 3 * kSliceSize;  // one slice per node
constexpr rvm::LockId kLockR1 = 101;
constexpr rvm::LockId kLockR2 = 202;
constexpr int kCheckpointAfter = 5;  // txns committed before the mid-run trim

struct Step {
  rvm::NodeId node;
  rvm::RegionId region;
  uint8_t value;
};

// Serial driver order; each step fills the writer's own slice of the region.
constexpr Step kSteps[] = {
    {1, 1, 0xA1}, {2, 1, 0xB2}, {3, 2, 0xC3}, {1, 2, 0xD4}, {2, 2, 0xE5},
    {3, 1, 0xF6}, {1, 1, 0x17}, {2, 2, 0x28}, {3, 2, 0x39},
};
constexpr int kTxns = static_cast<int>(sizeof(kSteps) / sizeof(kSteps[0]));

rvm::LockId LockFor(rvm::RegionId region) { return region == 1 ? kLockR1 : kLockR2; }

using RegionBytes = std::vector<uint8_t>;
using ClusterState = std::array<RegionBytes, 2>;  // regions 1 and 2

// shadow[k] = both regions' bytes after the first k committed transactions.
std::vector<ClusterState> BuildShadow() {
  std::vector<ClusterState> shadow;
  ClusterState state = {RegionBytes(kRegionSize, 0), RegionBytes(kRegionSize, 0)};
  shadow.push_back(state);
  for (const Step& step : kSteps) {
    std::memset(state[step.region - 1].data() + (step.node - 1) * kSliceSize,
                step.value, kSliceSize);
    shadow.push_back(state);
  }
  return shadow;
}

// Harness shared by both sweeps: the workload/recover/verify closures plus
// the commit bookkeeping the verifier reads.
class ExplorerHarness {
 public:
  explicit ExplorerHarness(uint64_t budget, uint64_t seed) : shadow_(BuildShadow()) {
    options_.budget = budget;
    options_.seed = seed;
  }

  rvm::CrashExplorer MakeExplorer() {
    return rvm::CrashExplorer(
        options_, [this](store::DurableStore* s) { return RunWorkload(s); },
        [this](store::DurableStore* s) { return Recover(s); },
        [this](store::DurableStore* s) { return Verify(s); });
  }

 private:
  // Deterministic by construction: no clocks, no randomness, fixed step
  // table — every run issues the identical store-operation sequence up to
  // the injected crash.
  base::Status RunWorkload(store::DurableStore* s) {
    commits_ = 0;
    std::map<rvm::NodeId, std::unique_ptr<rvm::Rvm>> nodes;
    for (rvm::NodeId n : {rvm::NodeId{1}, rvm::NodeId{2}, rvm::NodeId{3}}) {
      ASSIGN_OR_RETURN(auto node, rvm::Rvm::Open(s, n, rvm::RvmOptions{}));
      RETURN_IF_ERROR(node->MapRegion(1, kRegionSize).status());
      RETURN_IF_ERROR(node->MapRegion(2, kRegionSize).status());
      nodes[n] = std::move(node);
    }
    std::map<rvm::LockId, uint64_t> seq;
    for (int i = 0; i < kTxns; ++i) {
      if (i == kCheckpointAfter) {
        RETURN_IF_ERROR(Checkpoint(s, nodes, seq));
      }
      const Step& step = kSteps[i];
      rvm::Rvm* node = nodes[step.node].get();
      rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
      uint64_t off = (step.node - 1) * kSliceSize;
      RETURN_IF_ERROR(node->SetRange(txn, step.region, off, kSliceSize));
      std::memset(node->GetRegion(step.region)->data() + off, step.value, kSliceSize);
      rvm::LockId lock = LockFor(step.region);
      RETURN_IF_ERROR(node->SetLockId(txn, lock, seq[lock] + 1));
      RETURN_IF_ERROR(node->EndTransaction(txn, rvm::CommitMode::kFlush));
      // Only counted once the kFlush commit returned: those transactions are
      // guaranteed durable, so the verifier may demand at least that prefix.
      ++seq[lock];
      ++commits_;
    }
    return base::OkStatus();
  }

  // Mid-run §3.5 checkpoint: replay everyone's log into the database files,
  // then trim each log against the replayed baselines. Lock kLockR2's
  // baseline is held one behind so the trim's keep-the-tail path runs too
  // (replay is idempotent, so the kept record is harmless).
  base::Status Checkpoint(store::DurableStore* s,
                          std::map<rvm::NodeId, std::unique_ptr<rvm::Rvm>>& nodes,
                          const std::map<rvm::LockId, uint64_t>& seq) {
    std::vector<std::string> logs;
    for (const auto& [n, node] : nodes) {
      logs.push_back(rvm::LogFileName(n));
    }
    RETURN_IF_ERROR(rvm::ReplayLogsIntoDatabase(s, logs));
    std::map<rvm::LockId, uint64_t> baselines;
    for (const auto& [lock, sq] : seq) {
      baselines[lock] = lock == kLockR2 && sq > 0 ? sq - 1 : sq;
    }
    for (auto& [n, node] : nodes) {
      RETURN_IF_ERROR(node->TrimLogWithBaselines(baselines));
    }
    return base::OkStatus();
  }

  base::Status Recover(store::DurableStore* s) {
    // A crash before a node's first log sync leaves no durable log file;
    // ReplayLogsIntoDatabase treats the missing log as empty.
    return rvm::ReplayLogsIntoDatabase(
        s, {rvm::LogFileName(1), rvm::LogFileName(2), rvm::LogFileName(3)});
  }

  static base::Result<RegionBytes> ReadRegion(store::DurableStore* s, rvm::RegionId id) {
    RegionBytes out(kRegionSize, 0);  // missing file / short file reads as zeros
    ASSIGN_OR_RETURN(bool exists, s->Exists(rvm::RegionFileName(id)));
    if (!exists) {
      return out;
    }
    ASSIGN_OR_RETURN(auto file, s->Open(rvm::RegionFileName(id), /*create=*/false));
    ASSIGN_OR_RETURN(uint64_t size, file->Size());
    if (size > 0) {
      RETURN_IF_ERROR(
          file->ReadExact(0, out.data(), std::min<uint64_t>(size, kRegionSize)));
    }
    return out;
  }

  // Committed-prefix invariant: the recovered database must equal the state
  // after `commits_` transactions, or after `commits_ + 1` — the in-flight
  // commit whose EndTransaction never returned may still have landed a
  // complete log record (e.g. a whole-write torn variant). Anything else —
  // a lost committed transaction, a torn partial frame surviving CRC, an
  // out-of-order prefix — fails.
  base::Status Verify(store::DurableStore* s) {
    ASSIGN_OR_RETURN(RegionBytes r1, ReadRegion(s, 1));
    ASSIGN_OR_RETURN(RegionBytes r2, ReadRegion(s, 2));
    auto matches = [&](int k) {
      return r1 == shadow_[k][0] && r2 == shadow_[k][1];
    };
    if (matches(commits_)) {
      return base::OkStatus();
    }
    if (commits_ + 1 < static_cast<int>(shadow_.size()) && matches(commits_ + 1)) {
      return base::OkStatus();
    }
    return base::Internal("recovered database matches neither the " +
                          std::to_string(commits_) + "-commit prefix nor the " +
                          std::to_string(commits_ + 1) + "-commit prefix");
  }

  rvm::CrashExplorerOptions options_;
  std::vector<ClusterState> shadow_;
  int commits_ = 0;  // kFlush commits that returned in the current run
};

// --- the sweeps -------------------------------------------------------------

TEST(CrashExplorer, EveryWorkloadCrashRecoversToCommittedPrefix) {
  uint64_t budget = EnvU64("LBC_CRASH_BUDGET", 0);
  uint64_t seed = EnvU64("LBC_CRASH_SEED", 0x5eed);
  ExplorerHarness harness(budget, seed);
  rvm::CrashExplorer explorer = harness.MakeExplorer();

  obs::Counter* torn_detected =
      obs::MetricsRegistry::Global()->GetCounter("rvm.torn_tails_detected");
  uint64_t torn_before = torn_detected->value();

  rvm::CrashExplorerReport report;
  base::Status status = explorer.ExploreWorkloadCrashes(&report);
  ASSERT_TRUE(status.ok()) << status.ToString();

  std::printf("workload sweep: %llu mutating ops, %llu schedules (%llu torn), "
              "budget=%llu seed=%#llx\n",
              static_cast<unsigned long long>(report.workload_ops),
              static_cast<unsigned long long>(report.schedules_run),
              static_cast<unsigned long long>(report.torn_schedules_run),
              static_cast<unsigned long long>(budget),
              static_cast<unsigned long long>(seed));

  // The workload really spans the whole stack: per-node logs, kFlush
  // commits, and the mid-run checkpoint's replay + truncation swap.
  EXPECT_GT(report.workload_ops, 30u);
  EXPECT_GT(report.schedules_run, 0u);
  EXPECT_GT(report.torn_schedules_run, 0u);
  if (budget == 0) {
    // Exhaustive mode: one clean schedule per mutating op, plus the torn
    // variants — every operation index was crashed at least once.
    EXPECT_GE(report.schedules_run, report.workload_ops);
  }
  // Torn tails were not just injected but *detected*: some schedule left a
  // partial frame that recovery's CRC scan had to stop at.
  EXPECT_GT(torn_detected->value(), torn_before);
}

TEST(CrashExplorer, CrashDuringRecoveryIsIdempotent) {
  uint64_t budget = EnvU64("LBC_CRASH_BUDGET", 0);
  uint64_t seed = EnvU64("LBC_CRASH_SEED", 0x5eed);
  ExplorerHarness harness(budget, seed);
  rvm::CrashExplorer explorer = harness.MakeExplorer();

  rvm::CrashExplorerReport report;
  base::Status status = explorer.ExploreRecoveryCrashes(&report);
  ASSERT_TRUE(status.ok()) << status.ToString();

  std::printf("recovery sweep: %llu mutating ops, %llu nested schedules\n",
              static_cast<unsigned long long>(report.recovery_ops),
              static_cast<unsigned long long>(report.nested_schedules_run));
  EXPECT_GT(report.recovery_ops, 0u);
  EXPECT_GT(report.nested_schedules_run, 0u);
  if (budget == 0) {
    EXPECT_GE(report.nested_schedules_run, report.recovery_ops);
  }
}

// --- power cut mid-batch (group commit) -------------------------------------
//
// Four kFlush transactions are parked on a held commit pipeline and released
// as ONE vectored append plus ONE sync; the sweep crashes before each of
// those two store ops and additionally tears the batch write at frame
// boundaries (and just past them). The invariant is batch atomicity at the
// LOG-FRAME level, not the transaction level: recovery must land on the
// state after some per-transaction prefix of the batch's enqueue order —
// and the torn variants must actually produce the interior prefixes.

constexpr rvm::RegionId kBatchRegion = 7;
constexpr rvm::LockId kBatchLock = 707;
constexpr int kBatchTxns = 4;
constexpr uint64_t kBatchSlice = 16;
constexpr uint64_t kBatchRegionSize = kBatchTxns * kBatchSlice;
constexpr uint8_t kBatchValues[kBatchTxns] = {0x5A, 0x6B, 0x7C, 0x8D};

// One framed record for one kBatchSlice-byte transaction with one lock
// record, measured rather than hard-coded so the torn offsets track the
// wire format.
uint64_t MeasureBatchFrameBytes() {
  store::MemStore mem;
  auto node = std::move(*rvm::Rvm::Open(&mem, 1, rvm::RvmOptions{}));
  EXPECT_TRUE(node->MapRegion(kBatchRegion, kBatchRegionSize).ok());
  rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
  EXPECT_TRUE(node->SetRange(txn, kBatchRegion, 0, kBatchSlice).ok());
  EXPECT_TRUE(node->SetLockId(txn, kBatchLock, 1).ok());
  EXPECT_TRUE(node->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  return node->log_bytes();
}

// batch_shadow[k] = region bytes after the first k transactions of the batch.
std::vector<RegionBytes> BuildBatchShadow() {
  std::vector<RegionBytes> shadow;
  RegionBytes state(kBatchRegionSize, 0);
  shadow.push_back(state);
  for (int i = 0; i < kBatchTxns; ++i) {
    std::memset(state.data() + i * kBatchSlice, kBatchValues[i], kBatchSlice);
    shadow.push_back(state);
  }
  return shadow;
}

// The batch region's recovered bytes; a missing or short file reads as
// zeros.
base::Result<RegionBytes> ReadBatchRegion(store::DurableStore* s) {
  RegionBytes got(kBatchRegionSize, 0);
  ASSIGN_OR_RETURN(bool exists, s->Exists(rvm::RegionFileName(kBatchRegion)));
  if (exists) {
    ASSIGN_OR_RETURN(auto file, s->Open(rvm::RegionFileName(kBatchRegion),
                                        /*create=*/false));
    ASSIGN_OR_RETURN(uint64_t size, file->Size());
    if (size > 0) {
      RETURN_IF_ERROR(file->ReadExact(0, got.data(),
                                      std::min<uint64_t>(size, kBatchRegionSize)));
    }
  }
  return got;
}

class BatchHarness {
 public:
  BatchHarness(uint64_t budget, uint64_t seed, std::vector<size_t> torn_variants)
      : shadow_(BuildBatchShadow()) {
    options_.budget = budget;
    options_.seed = seed;
    options_.torn_variants = std::move(torn_variants);
  }

  rvm::CrashExplorer MakeExplorer() {
    return rvm::CrashExplorer(
        options_, [this](store::DurableStore* s) { return RunWorkload(s); },
        [this](store::DurableStore* s) { return Recover(s); },
        [this](store::DurableStore* s) { return Verify(s); });
  }

  // Batch prefix lengths the verifier accepted, across all schedules.
  const std::set<int>& prefixes_seen() const { return prefixes_seen_; }

 private:
  base::Status RunWorkload(store::DurableStore* s) {
    commits_ = 0;
    ASSIGN_OR_RETURN(auto node, rvm::Rvm::Open(s, 1, rvm::RvmOptions{}));
    RETURN_IF_ERROR(node->MapRegion(kBatchRegion, kBatchRegionSize).status());

    // Park the pipeline and enqueue the four committers ONE AT A TIME (each
    // start waits for the previous record to be parked), so the batch's
    // membership and commit_seq order are fixed on every replay. The
    // committer threads issue no store operations themselves — encoding
    // happens in memory — keeping the mutating-op sequence deterministic.
    node->HoldCommitPipeline();
    std::vector<std::thread> committers;
    std::vector<base::Status> statuses(kBatchTxns);
    for (int i = 0; i < kBatchTxns; ++i) {
      committers.emplace_back([&node, &statuses, i] {
        rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
        base::Status st =
            node->SetRange(txn, kBatchRegion, i * kBatchSlice, kBatchSlice);
        if (st.ok()) {
          std::memset(node->GetRegion(kBatchRegion)->data() + i * kBatchSlice,
                      kBatchValues[i], kBatchSlice);
          st = node->SetLockId(txn, kBatchLock, static_cast<uint64_t>(i) + 1);
        }
        if (st.ok()) {
          st = node->EndTransaction(txn, rvm::CommitMode::kFlush);
        }
        statuses[i] = st;
      });
      while (node->PendingCommitCount() < static_cast<size_t>(i) + 1) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }

    // The whole cohort goes to the store as one append + one sync; these are
    // the only mutating ops of the commit phase, so the sweep's crash points
    // are exactly "power cut mid-batch".
    base::Status release = node->ReleaseCommitPipeline();
    for (auto& t : committers) {
      t.join();
    }
    for (int i = 0; i < kBatchTxns; ++i) {
      if (statuses[i].ok()) {
        ++commits_;
      } else if (release.ok()) {
        release = statuses[i];
      }
    }
    return release;
  }

  base::Status Recover(store::DurableStore* s) {
    return rvm::ReplayLogsIntoDatabase(s, {rvm::LogFileName(1)});
  }

  base::Status Verify(store::DurableStore* s) {
    ASSIGN_OR_RETURN(RegionBytes got, ReadBatchRegion(s));
    // Frame-level atomicity: the recovered region must equal the state after
    // some prefix of the batch — at least every transaction whose commit
    // returned OK, at most the whole batch. A torn write that cut frame k+1
    // must surface exactly the k-transaction state, never a blend.
    for (int k = commits_; k <= kBatchTxns; ++k) {
      if (got == shadow_[k]) {
        prefixes_seen_.insert(k);
        return base::OkStatus();
      }
    }
    return base::Internal(
        "recovered region matches no batch prefix in [" +
        std::to_string(commits_) + ", " + std::to_string(kBatchTxns) + "]");
  }

  rvm::CrashExplorerOptions options_;
  std::vector<RegionBytes> shadow_;
  std::set<int> prefixes_seen_;
  int commits_ = 0;  // EndTransaction calls that returned OK this run
};

TEST(CrashExplorer, PowerCutMidBatchRecoversPerTransactionPrefix) {
  const uint64_t frame = MeasureBatchFrameBytes();
  ASSERT_GT(frame, kBatchSlice);
  // Tear the batch write at and around every frame boundary: mid-frame
  // (partial frame discarded), exact boundaries (clean interior prefixes),
  // and the full write.
  std::vector<size_t> torn = {1,
                              static_cast<size_t>(frame - 1),
                              static_cast<size_t>(frame),
                              static_cast<size_t>(frame + 1),
                              static_cast<size_t>(2 * frame),
                              static_cast<size_t>(3 * frame),
                              static_cast<size_t>(3 * frame + 5),
                              SIZE_MAX};
  uint64_t budget = EnvU64("LBC_CRASH_BUDGET", 0);
  uint64_t seed = EnvU64("LBC_CRASH_SEED", 0x5eed);
  BatchHarness harness(budget, seed, torn);
  rvm::CrashExplorer explorer = harness.MakeExplorer();

  rvm::CrashExplorerReport report;
  base::Status status = explorer.ExploreWorkloadCrashes(&report);
  ASSERT_TRUE(status.ok()) << status.ToString();

  std::printf("batch sweep: %llu mutating ops, %llu schedules (%llu torn)\n",
              static_cast<unsigned long long>(report.workload_ops),
              static_cast<unsigned long long>(report.schedules_run),
              static_cast<unsigned long long>(report.torn_schedules_run));
  EXPECT_GT(report.schedules_run, 0u);
  EXPECT_GT(report.torn_schedules_run, 0u);
  if (budget == 0) {
    // The torn variants really cut the batch into per-transaction prefixes:
    // every interior length showed up, not just all-or-nothing.
    for (int k = 0; k <= kBatchTxns; ++k) {
      EXPECT_TRUE(harness.prefixes_seen().count(k))
          << "no schedule recovered to the " << k << "-transaction prefix";
    }
  }
}

// --- power cut while the next batch appends behind a sync (pipelining) -----
//
// Batch N is one kFlush transaction whose sync is parked in a store hook;
// batch N+1, two transactions released as one batch, appends while that
// sync is in flight. The store-op order is therefore N's write, N+1's
// write, N's sync, N+1's sync, and the sweep cuts power before each (the
// cut before N's sync is the one this schedule exists for: both batches
// written, neither synced) and tears both writes at frame boundaries. The
// acknowledged commits must form a prefix of the commit order, and the
// recovered region must equal some per-transaction prefix between them and
// everything.

constexpr int kPipelineTxns = 3;  // batch N = {0}, batch N+1 = {1, 2}

class PipelineHarness {
 public:
  explicit PipelineHarness(std::vector<size_t> torn_variants)
      : shadow_(BuildBatchShadow()) {
    options_.torn_variants = std::move(torn_variants);
  }

  rvm::CrashExplorer MakeExplorer() {
    return rvm::CrashExplorer(
        options_, [this](store::DurableStore* s) { return RunWorkload(s); },
        [](store::DurableStore* s) {
          return rvm::ReplayLogsIntoDatabase(s, {rvm::LogFileName(1)});
        },
        [this](store::DurableStore* s) { return Verify(s); });
  }

  const std::set<int>& prefixes_seen() const { return prefixes_seen_; }

 private:
  base::Status RunWorkload(store::DurableStore* s) {
    acked_.assign(kPipelineTxns, false);
    lbc_test::ReadHookStore store(s);
    lbc_test::HookLatch sync_latch;  // parks batch N's sync, and only it
    store.SetSyncHook(rvm::LogFileName(1), sync_latch.SyncHook());
    ASSIGN_OR_RETURN(auto node, rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
    RETURN_IF_ERROR(node->MapRegion(kBatchRegion, kBatchRegionSize).status());

    std::vector<base::Status> statuses(kPipelineTxns);
    std::atomic<int> returned{0};
    auto commit = [&node, &statuses, &returned](int i) {
      rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
      base::Status st = node->SetRange(txn, kBatchRegion, i * kBatchSlice, kBatchSlice);
      if (st.ok()) {
        std::memset(node->GetRegion(kBatchRegion)->data() + i * kBatchSlice,
                    kBatchValues[i], kBatchSlice);
        st = node->SetLockId(txn, kBatchLock, static_cast<uint64_t>(i) + 1);
      }
      if (st.ok()) {
        st = node->EndTransaction(txn, rvm::CommitMode::kFlush);
      }
      statuses[i] = st;
      ++returned;
    };

    // Batch N: append, then park in the sync (unless the append failed).
    std::vector<std::thread> committers;
    committers.emplace_back(commit, 0);
    while (!sync_latch.WaitParked(std::chrono::milliseconds(1)) && returned == 0) {
    }
    // Batch N+1: enqueue both on a held pipeline, then release them as one
    // append on a helper thread (the release waits for their sync).
    node->HoldCommitPipeline();
    for (int i = 1; i < kPipelineTxns; ++i) {
      committers.emplace_back(commit, i);
      while (node->PendingCommitCount() < static_cast<size_t>(i)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    const uint64_t before = node->log_bytes();
    std::atomic<bool> released{false};
    base::Status release;
    std::thread releaser([&] {
      release = node->ReleaseCommitPipeline();
      released = true;
    });
    while (node->log_bytes() == before && !released) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    sync_latch.Release();
    releaser.join();
    for (auto& t : committers) {
      t.join();
    }
    store.SetSyncHook("", nullptr);

    base::Status first_error = base::OkStatus();
    for (int i = 0; i < kPipelineTxns; ++i) {
      acked_[i] = statuses[i].ok();
      if (!statuses[i].ok() && first_error.ok()) {
        first_error = statuses[i];
      }
    }
    return first_error;
  }

  base::Status Verify(store::DurableStore* s) {
    // The acknowledged commits must be a prefix of the commit order.
    int acked = 0;
    while (acked < kPipelineTxns && acked_[acked]) {
      ++acked;
    }
    for (int i = acked; i < kPipelineTxns; ++i) {
      if (acked_[i]) {
        return base::Internal("commit " + std::to_string(i) +
                              " acknowledged after an earlier commit failed");
      }
    }
    ASSIGN_OR_RETURN(RegionBytes got, ReadBatchRegion(s));
    for (int k = acked; k <= kPipelineTxns; ++k) {
      if (got == shadow_[k]) {
        prefixes_seen_.insert(k);
        return base::OkStatus();
      }
    }
    return base::Internal("recovered region matches no commit prefix in [" +
                          std::to_string(acked) + ", " +
                          std::to_string(kPipelineTxns) + "]");
  }

  rvm::CrashExplorerOptions options_;
  std::vector<RegionBytes> shadow_;
  std::set<int> prefixes_seen_;
  std::vector<bool> acked_;  // per commit: returned OK this run
};

TEST(CrashExplorer, PowerCutWhileNextBatchAppendsBehindSyncRecoversCommittedPrefix) {
  const uint64_t frame = MeasureBatchFrameBytes();
  ASSERT_GT(frame, kBatchSlice);
  std::vector<size_t> torn = {1, static_cast<size_t>(frame - 1), static_cast<size_t>(frame),
                              static_cast<size_t>(frame + 1), SIZE_MAX};
  PipelineHarness harness(torn);
  rvm::CrashExplorer explorer = harness.MakeExplorer();

  rvm::CrashExplorerReport report;
  base::Status status = explorer.ExploreWorkloadCrashes(&report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::printf("pipeline sweep: %llu mutating ops, %llu schedules (%llu torn)\n",
              static_cast<unsigned long long>(report.workload_ops),
              static_cast<unsigned long long>(report.schedules_run),
              static_cast<unsigned long long>(report.torn_schedules_run));
  EXPECT_GT(report.torn_schedules_run, 0u);
  // Nothing synced (cut before batch N's sync), batch N alone (N+1's write
  // torn inside its first frame), one frame of N+1, and everything.
  for (int k = 0; k <= kPipelineTxns; ++k) {
    EXPECT_TRUE(harness.prefixes_seen().count(k))
        << "no schedule recovered to the " << k << "-transaction prefix";
  }
}

// A tight budget still runs — sampled, boundaries pinned — so CI can bound
// sweep time on bigger workloads without losing the first/last-op cases.
TEST(CrashExplorer, SampledSweepHonorsBudget) {
  ExplorerHarness harness(/*budget=*/8, /*seed=*/7);
  rvm::CrashExplorer explorer = harness.MakeExplorer();
  rvm::CrashExplorerReport report;
  base::Status status = explorer.ExploreWorkloadCrashes(&report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_LE(report.schedules_run, 8u);
  EXPECT_GT(report.schedules_run, 0u);
}

}  // namespace
