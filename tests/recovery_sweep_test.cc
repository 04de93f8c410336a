// Crash-schedule sweeps for INCREMENTAL recovery: the crash_explorer_test
// workload family, recovered through LogIndex + IncrementalRecovery instead
// of an eager ReplayLogsIntoDatabase.
//
//   1. Workload sweep — power cut before every mutating op of a three-node
//      workload (with a mid-run checkpoint/trim), then an incremental boot:
//      index build, one region materialized on demand, the rest drained in
//      the background order. The drained database must land on a committed
//      prefix, and every page must pass sidecar verification.
//   2. Recovery sweep — power cut before every mutating op OF THE
//      INCREMENTAL RECOVERY ITSELF (page replays, sidecar clears and
//      rewrites, syncs), reboot, then the serving-window probe: a fresh index serves
//      both regions on demand, asserting the committed image or failing
//      loudly — never an unreplayed byte. Re-recovery must be byte-identical
//      to a clean single pass (incremental replay is idempotent).
//   3. Index builds are read-only: zero mutating ops, so a cut during one
//      degrades to a cut at its start.
//   4. Composition with bit rot: a lazily discovered rotten pre-image fails
//      materialization with DATA_LOSS and is NOT replayed over; healing the
//      page lets the same materialization succeed. Both replay modes leave
//      the sidecar exactly as a from-scratch checksum rewrite would.
//   5. A cut recovery batch, then new redo for the same page logged during
//      a serve-first boot, then a second cut: the third boot still drains
//      the page cleanly (nothing the cut left in the sidecar certifies the
//      older target image).
//   6. A checkpoint trim with a commit landing between its unlocked scan
//      and its locked swap, cut before every store op of the trim and of
//      that commit: recovery drains to the committed prefix.
//   7. A checkpoint trim whose locked tail scan meets a commit's append in
//      flight (written with no lock held), cut before every store op of
//      the trim and of that commit: recovery drains to the committed prefix.
//   8. Multi-page runs: a six-page region with redo on pages {0,1,2} and
//      {5}, so replay issues multi-page ops. Power is cut before every
//      mutating op of the recovery drain and of the standby checkpoint's
//      image write, untorn and torn — one tear lands inside a multi-page
//      data write, across a page boundary. Every cut leaves each page's
//      entry cleared or verifying, and recovery drains to the committed
//      image.
//
// Budget/seed are env-tunable like crash_explorer_test: LBC_CRASH_BUDGET
// (0 = exhaustive) and LBC_CRASH_SEED.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/obs/export.h"
#include "src/rvm/crash_explorer.h"
#include "src/rvm/log_index.h"
#include "src/rvm/page_checksum.h"
#include "src/rvm/recovery.h"
#include "src/rvm/replay_on_demand.h"
#include "src/rvm/rvm.h"
#include "src/rvm/types.h"
#include "src/store/corrupting_store.h"
#include "src/store/crash_point_store.h"
#include "src/store/durable_store.h"
#include "src/store/mem_store.h"
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

// --- the fixed workload (crash_explorer_test's shape) -----------------------

constexpr uint64_t kSliceSize = 16;
constexpr uint64_t kRegionSize = 3 * kSliceSize;
constexpr rvm::LockId kLockR1 = 101;
constexpr rvm::LockId kLockR2 = 202;
constexpr int kCheckpointAfter = 5;

struct Step {
  rvm::NodeId node;
  rvm::RegionId region;
  uint8_t value;
};

constexpr Step kSteps[] = {
    {1, 1, 0xA1}, {2, 1, 0xB2}, {3, 2, 0xC3}, {1, 2, 0xD4}, {2, 2, 0xE5},
    {3, 1, 0xF6}, {1, 1, 0x17}, {2, 2, 0x28}, {3, 2, 0x39},
};
constexpr int kTxns = static_cast<int>(sizeof(kSteps) / sizeof(kSteps[0]));

rvm::LockId LockFor(rvm::RegionId region) { return region == 1 ? kLockR1 : kLockR2; }

std::vector<std::string> AllLogs() {
  return {rvm::LogFileName(1), rvm::LogFileName(2), rvm::LogFileName(3)};
}

using RegionBytes = std::vector<uint8_t>;
using ClusterState = std::array<RegionBytes, 2>;

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

base::Result<RegionBytes> ReadRegionFile(store::DurableStore* s, rvm::RegionId id) {
  RegionBytes out(kRegionSize, 0);  // missing / short file reads as zeros
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

// Every page of `region`'s database file passes sidecar verification — the
// never-serve-a-corrupt-byte half of the serving invariant.
base::Status VerifyRegionPages(store::DurableStore* s, rvm::RegionId region) {
  ASSIGN_OR_RETURN(bool exists, s->Exists(rvm::RegionFileName(region)));
  if (!exists) {
    return base::OkStatus();
  }
  ASSIGN_OR_RETURN(auto file, s->Open(rvm::RegionFileName(region), /*create=*/false));
  ASSIGN_OR_RETURN(uint64_t size, file->Size());
  std::vector<uint8_t> image(size);
  if (size > 0) {
    RETURN_IF_ERROR(file->ReadExact(0, image.data(), image.size()));
  }
  ASSIGN_OR_RETURN(auto failed,
                   rvm::VerifyImagePages(s, region, image.data(), size, size));
  if (!failed.empty()) {
    return base::DataLoss("page " + std::to_string(failed[0]) +
                          " failed sidecar verification after drain");
  }
  return base::OkStatus();
}

// The incremental boot sequence, exactly as a server would run it: build
// the index (read-only), serve region 1 on first touch, drain the rest in
// deterministic background order. Single-threaded on purpose — the sweep
// needs an identical store-op sequence on every run.
base::Status RecoverIncrementally(store::DurableStore* s) {
  ASSIGN_OR_RETURN(rvm::LogIndex index, rvm::LogIndex::Build(s, AllLogs()));
  rvm::IncrementalRecovery recovery(s, std::move(index));
  RETURN_IF_ERROR(recovery.MaterializeRegion(1));  // first touch
  rvm::RegionId failed = 0;
  while (true) {
    ASSIGN_OR_RETURN(bool more, recovery.DrainStep(&failed));
    if (!more) {
      break;
    }
  }
  return base::OkStatus();
}

// Harness mirroring crash_explorer_test's workload, with the incremental
// recovery procedure swapped in.
class IncrementalHarness {
 public:
  IncrementalHarness(uint64_t budget, uint64_t seed) : shadow_(BuildShadow()) {
    options_.budget = budget;
    options_.seed = seed;
  }

  rvm::CrashExplorer MakeExplorer(bool with_probe) {
    if (with_probe) {
      options_.recovery_probe = [this](store::DurableStore* s) { return Probe(s); };
    }
    return rvm::CrashExplorer(
        options_, [this](store::DurableStore* s) { return RunWorkload(s); },
        [](store::DurableStore* s) { return RecoverIncrementally(s); },
        [this](store::DurableStore* s) { return Verify(s); });
  }

 private:
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
      ++seq[lock];
      ++commits_;
    }
    return base::OkStatus();
  }

  // Mid-run checkpoint: the eager shared-core replay plus per-node trims,
  // so the sweep also cuts power inside truncation — and incremental boots
  // then start from a certified, partially-trimmed history.
  base::Status Checkpoint(store::DurableStore* s,
                          std::map<rvm::NodeId, std::unique_ptr<rvm::Rvm>>& nodes,
                          const std::map<rvm::LockId, uint64_t>& seq) {
    RETURN_IF_ERROR(rvm::ReplayLogsIntoDatabase(s, AllLogs()));
    std::map<rvm::LockId, uint64_t> baselines;
    for (const auto& [lock, sq] : seq) {
      baselines[lock] = lock == kLockR2 && sq > 0 ? sq - 1 : sq;
    }
    for (auto& [n, node] : nodes) {
      RETURN_IF_ERROR(node->TrimLogWithBaselines(baselines));
    }
    return base::OkStatus();
  }

  // The serving window: the machine just rebooted out of a crashed
  // recovery. A fresh index serves both regions on demand; whatever it
  // hands out must be the committed image (the workload ran to completion
  // in this sweep), and every materialized page must verify against the
  // sidecar. Materialization here is idempotent w.r.t. the second recovery
  // pass that follows.
  base::Status Probe(store::DurableStore* s) {
    ASSIGN_OR_RETURN(rvm::LogIndex index, rvm::LogIndex::Build(s, AllLogs()));
    rvm::IncrementalRecovery recovery(s, std::move(index));
    RETURN_IF_ERROR(recovery.MaterializeRegion(1));
    RETURN_IF_ERROR(recovery.MaterializeRegion(2));
    if (!recovery.Drained()) {
      return base::Internal("probe left indexed pages unmaterialized");
    }
    ASSIGN_OR_RETURN(RegionBytes r1, ReadRegionFile(s, 1));
    ASSIGN_OR_RETURN(RegionBytes r2, ReadRegionFile(s, 2));
    const ClusterState& committed = shadow_[kTxns];
    if (r1 != committed[0] || r2 != committed[1]) {
      return base::DataLoss("serving window exposed a non-committed image");
    }
    RETURN_IF_ERROR(VerifyRegionPages(s, 1));
    return VerifyRegionPages(s, 2);
  }

  // Committed-prefix invariant over the fully drained database, plus page
  // verification (the drain may not have certified a byte it cannot prove).
  base::Status Verify(store::DurableStore* s) {
    ASSIGN_OR_RETURN(RegionBytes r1, ReadRegionFile(s, 1));
    ASSIGN_OR_RETURN(RegionBytes r2, ReadRegionFile(s, 2));
    auto matches = [&](int k) {
      return r1 == shadow_[k][0] && r2 == shadow_[k][1];
    };
    if (!matches(commits_) &&
        !(commits_ + 1 < static_cast<int>(shadow_.size()) && matches(commits_ + 1))) {
      return base::Internal("drained database matches neither the " +
                            std::to_string(commits_) + "-commit prefix nor the " +
                            std::to_string(commits_ + 1) + "-commit prefix");
    }
    RETURN_IF_ERROR(VerifyRegionPages(s, 1));
    return VerifyRegionPages(s, 2);
  }

  rvm::CrashExplorerOptions options_;
  std::vector<ClusterState> shadow_;
  int commits_ = 0;
};

// --- the sweeps -------------------------------------------------------------

TEST(RecoverySweep, EveryWorkloadCrashDrainsToCommittedPrefix) {
  uint64_t budget = EnvU64("LBC_CRASH_BUDGET", 0);
  uint64_t seed = EnvU64("LBC_CRASH_SEED", 0x5eed);
  IncrementalHarness harness(budget, seed);
  rvm::CrashExplorer explorer = harness.MakeExplorer(/*with_probe=*/false);

  rvm::CrashExplorerReport report;
  base::Status status = explorer.ExploreWorkloadCrashes(&report);
  ASSERT_TRUE(status.ok()) << status.ToString();

  std::printf("incremental workload sweep: %llu mutating ops, %llu schedules "
              "(%llu torn)\n",
              static_cast<unsigned long long>(report.workload_ops),
              static_cast<unsigned long long>(report.schedules_run),
              static_cast<unsigned long long>(report.torn_schedules_run));
  EXPECT_GT(report.workload_ops, 30u);
  EXPECT_GT(report.schedules_run, 0u);
  EXPECT_GT(report.torn_schedules_run, 0u);
  if (budget == 0) {
    EXPECT_GE(report.schedules_run, report.workload_ops);
  }
}

TEST(RecoverySweep, EveryRecoveryCrashServesAndReconvergesByteIdentical) {
  uint64_t budget = EnvU64("LBC_CRASH_BUDGET", 0);
  uint64_t seed = EnvU64("LBC_CRASH_SEED", 0x5eed);
  IncrementalHarness harness(budget, seed);
  rvm::CrashExplorer explorer = harness.MakeExplorer(/*with_probe=*/true);

  rvm::CrashExplorerReport report;
  base::Status status = explorer.ExploreRecoveryCrashes(&report);
  ASSERT_TRUE(status.ok()) << status.ToString();

  std::printf("incremental recovery sweep: %llu mutating ops, %llu nested "
              "schedules, %llu serving-window probes\n",
              static_cast<unsigned long long>(report.recovery_ops),
              static_cast<unsigned long long>(report.nested_schedules_run),
              static_cast<unsigned long long>(report.probes_run));
  EXPECT_GT(report.recovery_ops, 0u);
  EXPECT_GT(report.nested_schedules_run, 0u);
  EXPECT_EQ(report.nested_schedules_run, report.probes_run);
  if (budget == 0) {
    EXPECT_GE(report.nested_schedules_run, report.recovery_ops);
  }
}

// --- index builds are read-only ---------------------------------------------

TEST(RecoverySweep, IndexBuildContributesZeroMutatingOps) {
  store::MemStore mem;
  store::CrashPointStore cps(&mem);
  // A small committed history through the instrumented store.
  {
    auto node = std::move(*rvm::Rvm::Open(&cps, 1, rvm::RvmOptions{}));
    ASSERT_TRUE(node->MapRegion(1, kRegionSize).ok());
    rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
    ASSERT_TRUE(node->SetRange(txn, 1, 0, kSliceSize).ok());
    std::memset(node->GetRegion(1)->data(), 0x42, kSliceSize);
    ASSERT_TRUE(node->SetLockId(txn, kLockR1, 1).ok());
    ASSERT_TRUE(node->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  }
  cps.ResetOpCount();
  auto index = rvm::LogIndex::Build(&cps, {rvm::LogFileName(1)});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(1u, index->page_count());
  // Read-only: a power cut during the build is a cut at its start.
  EXPECT_EQ(0u, cps.op_count());
}

// --- composition with bit rot -----------------------------------------------

// Replay's sidecar entries are exactly what a from-scratch rewrite computes
// from the database file: RewriteRegionChecksums must leave the sidecar
// byte-for-byte unchanged.
void ExpectSidecarMatchesRewrite(store::DurableStore* s, rvm::RegionId region) {
  auto read_sidecar = [&]() {
    auto file = std::move(*s->Open(rvm::ChecksumFileName(region), /*create=*/false));
    std::vector<uint8_t> bytes(*file->Size());
    EXPECT_TRUE(file->ReadExact(0, bytes.data(), bytes.size()).ok());
    return bytes;
  };
  const std::vector<uint8_t> replayed = read_sidecar();
  ASSERT_TRUE(rvm::RewriteRegionChecksums(s, region).ok());
  EXPECT_EQ(replayed, read_sidecar());
}

TEST(RecoverySweep, RottenPreImageFailsMaterializationAndIsNotReplayedOver) {
  store::MemStore mem;
  store::CorruptionInjectingStore store(&mem, 0xB17F11);

  // Certified base: one full-slice commit, eagerly replayed, log trimmed —
  // the database page and its sidecar entry are the only copy.
  {
    auto node = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
    ASSERT_TRUE(node->MapRegion(1, kRegionSize).ok());
    rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
    ASSERT_TRUE(node->SetRange(txn, 1, 0, kRegionSize).ok());
    std::memset(node->GetRegion(1)->data(), 0x42, kRegionSize);
    ASSERT_TRUE(node->SetLockId(txn, kLockR1, 1).ok());
    ASSERT_TRUE(node->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
    ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&store, {rvm::LogFileName(1)}).ok());
    ExpectSidecarMatchesRewrite(&store, 1);  // entries written after the data
    ASSERT_TRUE(node->TrimLogWithBaselines({{kLockR1, 1}}).ok());

    // A partial update whose replay depends on that certified pre-image.
    txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
    ASSERT_TRUE(node->SetRange(txn, 1, 0, kSliceSize).ok());
    std::memset(node->GetRegion(1)->data(), 0x77, kSliceSize);
    ASSERT_TRUE(node->SetLockId(txn, kLockR1, 2).ok());
    ASSERT_TRUE(node->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  }

  // Rot a byte of the pre-image outside the pending redo range.
  const std::string db = rvm::RegionFileName(1);
  ASSERT_TRUE(store.FlipBit(db, 2 * kSliceSize + 3, 5).ok());
  const RegionBytes rotten = *ReadRegionFile(&store, 1);

  auto built = rvm::LogIndex::Build(&store, {rvm::LogFileName(1)});
  ASSERT_TRUE(built.ok());
  rvm::IncrementalRecovery recovery(&store, std::move(*built));
  ASSERT_EQ(1u, recovery.PendingPages());

  // First touch discovers the rot: DATA_LOSS, the page stays pending, and
  // the damaged bytes were NOT overwritten by the redo.
  base::Status touched = recovery.MaterializeRegion(1);
  ASSERT_FALSE(touched.ok());
  EXPECT_EQ(base::StatusCode::kDataLoss, touched.code());
  EXPECT_EQ(1u, recovery.PendingPages());
  EXPECT_EQ(rotten, *ReadRegionFile(&store, 1));

  // Heal the page (flip the bit back — a scrubber's replica repair in
  // miniature) and the very same materialization succeeds.
  ASSERT_TRUE(store.FlipBit(db, 2 * kSliceSize + 3, 5).ok());
  ASSERT_TRUE(recovery.MaterializeRegion(1).ok());
  EXPECT_TRUE(recovery.Drained());
  RegionBytes expected(kRegionSize, 0x42);
  std::memset(expected.data(), 0x77, kSliceSize);
  EXPECT_EQ(expected, *ReadRegionFile(&store, 1));
  ASSERT_TRUE(VerifyRegionPages(&store, 1).ok());
  ExpectSidecarMatchesRewrite(&store, 1);  // gated replay, same entries
}


// A recovery batch cut at any op, then a serve-first boot during which a
// live client commits more redo to the same page before a second power cut,
// then a third boot. The third boot's final image differs from the one the
// cut batch was writing, so whatever the cut left in the sidecar must not
// certify that older target: the page the logs cover only in part must
// drain to the committed image, not fail as rot.
TEST(RecoverySweep, RecoveryCrashThenNewCommitThenCrashDrainsClean) {
  bool drain_completed = false;
  uint64_t cut = 0;
  for (; !drain_completed; ++cut) {
    for (size_t torn : {size_t{0}, size_t{5}}) {
      store::MemStore mem;
      store::CrashPointStore store(&mem);
      store.SetCrashHook([&mem] { mem.Crash(0); });
      RegionBytes expected(kRegionSize, 0);
      // The client machine stays up across every server power cut: its
      // mapped image lives in its own memory.
      auto node = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
      ASSERT_TRUE(node->MapRegion(1, kRegionSize).ok());
      auto commit = [&](uint64_t offset, uint64_t len, uint8_t fill, uint64_t seq) {
        rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
        ASSERT_TRUE(node->SetRange(txn, 1, offset, len).ok());
        std::memset(node->GetRegion(1)->data() + offset, fill, len);
        ASSERT_TRUE(node->SetLockId(txn, kLockR1, seq).ok());
        ASSERT_TRUE(node->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
        std::memset(expected.data() + offset, fill, len);
      };
      // Certified full-page base, its record trimmed: the database page and
      // its sidecar entry are the only copy. Then a partial-page record.
      commit(0, kRegionSize, 0x42, 1);
      ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&store, {rvm::LogFileName(1)}).ok());
      ASSERT_TRUE(node->TrimLogWithBaselines({{kLockR1, 1}}).ok());
      commit(0, kSliceSize, 0x77, 2);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());

      // Boot 1: the recovery batch for the page is cut before op `cut`.
      {
        auto index = rvm::LogIndex::Build(&store, {rvm::LogFileName(1)});
        ASSERT_TRUE(index.ok());
        rvm::IncrementalRecovery recovery(&store, std::move(*index));
        store.ResetOpCount();
        store.ArmCrashAtOp(cut, torn);
        drain_completed = recovery.MaterializeRegion(1).ok();
      }
      store.Disarm();
      mem.Crash(0);

      // Boot 2, serve-first: the index is built but nothing is drained
      // before the live client logs a new record over the page — and the
      // power fails again.
      {
        auto index = rvm::LogIndex::Build(&store, {rvm::LogFileName(1)});
        ASSERT_TRUE(index.ok());
        rvm::IncrementalRecovery serving(&store, std::move(*index));
        commit(kSliceSize, kSliceSize, 0x88, 3);
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
      }
      node.reset();
      mem.Crash(0);

      // Boot 3 drains to the committed image and certifies it.
      auto index = rvm::LogIndex::Build(&store, {rvm::LogFileName(1)});
      ASSERT_TRUE(index.ok());
      rvm::IncrementalRecovery recovery(&store, std::move(*index));
      base::Status drained = recovery.MaterializeRegion(1);
      ASSERT_TRUE(drained.ok()) << "cut before op " << cut << " (torn " << torn
                                << "): " << drained.ToString();
      EXPECT_EQ(expected, *ReadRegionFile(&store, 1)) << "cut before op " << cut;
      ASSERT_TRUE(VerifyRegionPages(&store, 1).ok()) << "cut before op " << cut;
      ExpectSidecarMatchesRewrite(&store, 1);
    }
  }
  // Sidecar clear, data write, every sync and the entry rewrite were cut.
  EXPECT_GT(cut, 5u);
}

// The trim scans the log with no lock held, then copies the frames appended
// meanwhile and swaps under the log lock. Land a commit exactly there (when
// the scan reads the end of the file, so the trim must copy it as the
// tail), and cut power before every store op of the trim and of that
// commit, torn and untorn. Recovery must drain to exactly the acknowledged
// commits: the checkpointed one from the database, the uncovered one and
// (if it returned OK) the mid-trim one from whichever log survived.
TEST(RecoverySweep, TrimWithCommitBetweenScanAndSwapRecoversCommittedPrefix) {
  bool trim_completed = false;
  uint64_t cut = 0;
  for (; !trim_completed; ++cut) {
    for (size_t torn : {size_t{0}, size_t{5}}) {
      store::MemStore mem;
      store::CrashPointStore cps(&mem);
      cps.SetCrashHook([&mem] { mem.Crash(0); });
      lbc_test::ReadHookStore store(&cps);
      RegionBytes committed(kRegionSize, 0);
      auto node = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
      ASSERT_TRUE(node->MapRegion(1, kRegionSize).ok());
      auto commit = [&](uint64_t offset, uint8_t fill, uint64_t seq) {
        rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
        RETURN_IF_ERROR(node->SetRange(txn, 1, offset, kSliceSize));
        std::memset(node->GetRegion(1)->data() + offset, fill, kSliceSize);
        RETURN_IF_ERROR(node->SetLockId(txn, kLockR1, seq));
        RETURN_IF_ERROR(node->EndTransaction(txn, rvm::CommitMode::kFlush));
        std::memset(committed.data() + offset, fill, kSliceSize);
        return base::OkStatus();
      };
      // Seq 1 is checkpointed into the database (the trim drops it); seq 2
      // lives only in the log (the trim keeps it).
      ASSERT_TRUE(commit(0, 0x42, 1).ok());
      ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&store, {rvm::LogFileName(1)}).ok());
      ASSERT_TRUE(commit(kSliceSize, 0x55, 2).ok());

      base::Status mid_trim = base::Internal("scan never reached the end");
      bool fired = false;
      store.SetReadHook(rvm::LogFileName(1), [&](uint64_t, size_t got) {
        if (got == 0 && !fired) {
          fired = true;
          mid_trim = commit(2 * kSliceSize, 0x66, 3);
        }
      });
      cps.ResetOpCount();
      cps.ArmCrashAtOp(cut, torn);
      trim_completed = node->TrimLogWithBaselines({{kLockR1, 1}}).ok();
      store.SetReadHook("", nullptr);
      cps.Disarm();
      if (trim_completed) {
        // The uncovered record and the mid-trim one, copied as the tail.
        ASSERT_TRUE(mid_trim.ok()) << mid_trim.ToString();
        auto kept = rvm::ReadLogTransactions(&cps, rvm::LogFileName(1));
        ASSERT_TRUE(kept.ok());
        ASSERT_EQ(2u, kept->size());
        EXPECT_EQ(3u, (*kept)[1].locks[0].sequence);
      }
      node.reset();
      mem.Crash(0);

      auto index = rvm::LogIndex::Build(&cps, {rvm::LogFileName(1)});
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      rvm::IncrementalRecovery recovery(&cps, std::move(*index));
      base::Status drained = recovery.MaterializeRegion(1);
      ASSERT_TRUE(drained.ok()) << "cut before op " << cut << " (torn " << torn
                                << "): " << drained.ToString();
      EXPECT_EQ(committed, *ReadRegionFile(&cps, 1))
          << "cut before op " << cut << " (torn " << torn << ")";
      ASSERT_TRUE(VerifyRegionPages(&cps, 1).ok()) << "cut before op " << cut;
    }
  }
  // The mid-trim commit's write and sync, then the temp file's create,
  // truncate, write and sync, the rename and the directory sync. The trim
  // issues no log sync of its own: the kFlush commits already synced the
  // log to its end.
  EXPECT_GT(cut, 8u);
}

// The append leader writes with no lock held, so a trim can reach its
// locked tail scan while a commit's write is in flight; it must wait for
// the write and copy the record. The commit's write is parked until the
// trim's unlocked scan reads the end of the file, and its sync (if it still
// leads one) until the trim returns, which fixes the store-op order: the
// write, the trim's swap, then that sync of the replaced file. Cut power
// before every one of those ops, torn and untorn. Recovery must drain to the
// acknowledged commits, plus at most the in-flight one if it failed.
TEST(RecoverySweep, TrimWithAppendInFlightRecoversCommittedPrefix) {
  bool finished = false;
  uint64_t cut = 0;
  for (; !finished; ++cut) {
    for (size_t torn : {size_t{0}, size_t{5}}) {
      store::MemStore mem;
      store::CrashPointStore cps(&mem);
      cps.SetCrashHook([&mem] { mem.Crash(0); });
      lbc_test::ReadHookStore store(&cps);
      RegionBytes committed(kRegionSize, 0);
      auto node = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
      ASSERT_TRUE(node->MapRegion(1, kRegionSize).ok());
      auto commit = [&](uint64_t offset, uint8_t fill, uint64_t seq) {
        rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
        RETURN_IF_ERROR(node->SetRange(txn, 1, offset, kSliceSize));
        std::memset(node->GetRegion(1)->data() + offset, fill, kSliceSize);
        RETURN_IF_ERROR(node->SetLockId(txn, kLockR1, seq));
        RETURN_IF_ERROR(node->EndTransaction(txn, rvm::CommitMode::kFlush));
        std::memset(committed.data() + offset, fill, kSliceSize);
        return base::OkStatus();
      };
      // Seq 1 is checkpointed into the database (the trim drops it); seq 2
      // lives only in the log (the trim keeps it).
      ASSERT_TRUE(commit(0, 0x42, 1).ok());
      ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&store, {rvm::LogFileName(1)}).ok());
      ASSERT_TRUE(commit(kSliceSize, 0x55, 2).ok());
      RegionBytes with_in_flight = committed;
      std::memset(with_in_flight.data() + 2 * kSliceSize, 0x66, kSliceSize);

      lbc_test::HookLatch write_latch;
      lbc_test::HookLatch sync_latch;
      store.SetWriteHook(rvm::LogFileName(1), write_latch.WriteHook());
      store.SetSyncHook(rvm::LogFileName(1), sync_latch.SyncHook());
      cps.ResetOpCount();
      cps.ArmCrashAtOp(cut, torn);
      base::Status in_flight = base::Internal("never committed");
      std::thread committer([&] { in_flight = commit(2 * kSliceSize, 0x66, 3); });
      const bool parked = write_latch.WaitParked(std::chrono::seconds(10));
      bool fired = false;
      store.SetReadHook(rvm::LogFileName(1), [&](uint64_t, size_t got) {
        if (got == 0 && !fired) {
          fired = true;
          write_latch.Release();
        }
      });
      const bool trim_completed = parked && node->TrimLogWithBaselines({{kLockR1, 1}}).ok();
      store.SetReadHook("", nullptr);
      write_latch.Release();
      sync_latch.Release();
      committer.join();
      store.SetWriteHook("", nullptr);
      store.SetSyncHook("", nullptr);
      cps.Disarm();
      ASSERT_TRUE(parked) << "the commit never appended";
      finished = trim_completed && in_flight.ok();
      if (trim_completed) {
        // The uncovered record and the in-flight one, copied as the tail.
        auto kept = rvm::ReadLogTransactions(&cps, rvm::LogFileName(1));
        ASSERT_TRUE(kept.ok());
        ASSERT_EQ(2u, kept->size()) << "cut before op " << cut << " (torn " << torn << ")";
        EXPECT_EQ(3u, (*kept)[1].locks[0].sequence);
      }
      node.reset();
      mem.Crash(0);

      auto index = rvm::LogIndex::Build(&cps, {rvm::LogFileName(1)});
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      rvm::IncrementalRecovery recovery(&cps, std::move(*index));
      base::Status drained = recovery.MaterializeRegion(1);
      ASSERT_TRUE(drained.ok()) << "cut before op " << cut << " (torn " << torn
                                << "): " << drained.ToString();
      const RegionBytes got = *ReadRegionFile(&cps, 1);
      EXPECT_TRUE(got == committed || (!in_flight.ok() && got == with_in_flight))
          << "cut before op " << cut << " (torn " << torn << "), in-flight commit "
          << in_flight.ToString();
      ASSERT_TRUE(VerifyRegionPages(&cps, 1).ok()) << "cut before op " << cut;
    }
  }
  // The in-flight commit's write, then the temp file's create, truncate,
  // write and sync, the rename and the directory sync.
  EXPECT_GT(cut, 7u);
}

// --- multi-page runs --------------------------------------------------------

constexpr rvm::RegionId kRunRegion = 3;
constexpr uint64_t kRunRegionSize = 6 * rvm::kDbPageSize;
constexpr rvm::LockId kRunLock = 303;

// Redo on pages {0,1,2} and {5}: two runs, and no page fully covered, so
// the rot gate checks every pre-image. Page 1 keeps its pre-image at
// [kDbPageSize / 2, kDbPageSize / 2 + 64).
struct RunRedo {
  uint64_t offset;
  uint64_t len;
  uint8_t fill;
};
constexpr RunRedo kRunRedo[] = {
    {rvm::kDbPageSize / 2, rvm::kDbPageSize, 0xA1},                          // pages 0-1
    {rvm::kDbPageSize + rvm::kDbPageSize / 2 + 64, rvm::kDbPageSize, 0xC3},  // pages 1-2
    {5 * rvm::kDbPageSize + 100, 200, 0xB2},                                 // page 5
};

RegionBytes ReadWholeFile(store::DurableStore* s, rvm::RegionId id) {
  auto file = std::move(*s->Open(rvm::RegionFileName(id), /*create=*/false));
  RegionBytes out(*file->Size());
  EXPECT_TRUE(file->ReadExact(0, out.data(), out.size()).ok());
  return out;
}

// A certified base (every byte 0x11, its record trimmed: the database and
// its sidecar are the only copy), then kRunRedo committed to the log alone.
// Sets *committed to the image every committed record adds up to.
base::Status BuildRunHistory(store::DurableStore* s, RegionBytes* committed) {
  committed->assign(kRunRegionSize, 0x11);
  ASSIGN_OR_RETURN(auto node, rvm::Rvm::Open(s, 1, rvm::RvmOptions{}));
  ASSIGN_OR_RETURN(rvm::Region * region, node->MapRegion(kRunRegion, kRunRegionSize));
  auto commit = [&](uint64_t offset, uint64_t len, uint8_t fill, uint64_t seq) {
    rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
    RETURN_IF_ERROR(node->SetRange(txn, kRunRegion, offset, len));
    std::memset(region->data() + offset, fill, len);
    RETURN_IF_ERROR(node->SetLockId(txn, kRunLock, seq));
    RETURN_IF_ERROR(node->EndTransaction(txn, rvm::CommitMode::kFlush));
    std::memset(committed->data() + offset, fill, len);
    return base::OkStatus();
  };
  RETURN_IF_ERROR(commit(0, kRunRegionSize, 0x11, 1));
  RETURN_IF_ERROR(rvm::ReplayLogsIntoDatabase(s, {rvm::LogFileName(1)}));
  RETURN_IF_ERROR(node->TrimLogWithBaselines({{kRunLock, 1}}));
  uint64_t seq = 2;
  for (const RunRedo& redo : kRunRedo) {
    RETURN_IF_ERROR(commit(redo.offset, redo.len, redo.fill, seq++));
  }
  return base::OkStatus();
}

// Index build and gated replay of the run region (a first touch).
base::Status MaterializeRunRegion(store::DurableStore* s) {
  ASSIGN_OR_RETURN(rvm::LogIndex index, rvm::LogIndex::Build(s, {rvm::LogFileName(1)}));
  rvm::IncrementalRecovery recovery(s, std::move(index));
  return recovery.MaterializeRegion(kRunRegion);
}

// The standby checkpoint's image write, as lbc::CheckpointFromStandby
// issues it: the standby's whole image as one offset-zero range through the
// shared replay core, with the logs still untrimmed.
base::Status WriteStandbyImage(store::DurableStore* s, const RegionBytes& image) {
  rvm::RangeImage range;
  range.region = kRunRegion;
  range.data = image;
  rvm::ReplayWriteSet writes(s);
  RETURN_IF_ERROR(writes.Apply(range));
  return writes.Commit();
}

// The disk holds page 0 of `target` and a prefix of its page 1, but not
// the whole of page 1: a write tore across the page 0/1 boundary.
bool TornAcrossFirstPageBoundary(const RegionBytes& disk, const RegionBytes& target) {
  const auto page = [](const RegionBytes& bytes, uint64_t n) {
    return bytes.begin() + static_cast<std::ptrdiff_t>(n * rvm::kDbPageSize);
  };
  return std::equal(page(disk, 0), page(disk, 1), page(target, 0)) &&
         std::equal(page(disk, 1), page(disk, 1) + 5, page(target, 1)) &&
         !std::equal(page(disk, 1), page(disk, 2), page(target, 1));
}

TEST(RecoverySweep, MultiPageRunCutsLeaveEntriesClearedOrVerifying) {
  enum class Phase { kDrain, kStandbyImageWrite };
  for (Phase phase : {Phase::kDrain, Phase::kStandbyImageWrite}) {
    const char* name = phase == Phase::kDrain ? "drain" : "standby image write";
    bool completed = false;
    bool torn_across_pages = false;
    uint64_t schedules = 0;
    uint64_t cut = 0;
    for (; !completed; ++cut) {
      for (size_t torn : {size_t{0}, size_t{5}, size_t{rvm::kDbPageSize + 5}}) {
        const std::string at = std::string(name) + ": cut before op " + std::to_string(cut) +
                               " (torn " + std::to_string(torn) + ")";
        store::MemStore mem;
        store::CrashPointStore store(&mem);
        store.SetCrashHook([&mem] { mem.Crash(0); });
        RegionBytes committed;
        ASSERT_TRUE(BuildRunHistory(&store, &committed).ok());
        base::Status finished;
        if (phase == Phase::kDrain) {
          mem.Crash(0);  // the server reboots; every record is durable
          auto index = rvm::LogIndex::Build(&store, {rvm::LogFileName(1)});
          ASSERT_TRUE(index.ok());
          rvm::IncrementalRecovery recovery(&store, std::move(*index));
          store.ResetOpCount();
          store.ArmCrashAtOp(cut, torn);
          finished = recovery.MaterializeRegion(kRunRegion);
        } else {
          store.ResetOpCount();
          store.ArmCrashAtOp(cut, torn);
          finished = WriteStandbyImage(&store, committed);
        }
        completed = finished.ok();
        ++schedules;
        store.Disarm();
        mem.Crash(0);

        // What the cut left: no page's entry certifies bytes it does not
        // hold — each is cleared or verifies.
        ASSERT_TRUE(VerifyRegionPages(&store, kRunRegion).ok()) << at;
        if (torn > rvm::kDbPageSize &&
            TornAcrossFirstPageBoundary(ReadWholeFile(&store, kRunRegion), committed)) {
          torn_across_pages = true;
        }

        base::Status drained = MaterializeRunRegion(&store);
        ASSERT_TRUE(drained.ok()) << at << ": " << drained.ToString();
        EXPECT_EQ(committed, ReadWholeFile(&store, kRunRegion)) << at;
        ASSERT_TRUE(VerifyRegionPages(&store, kRunRegion).ok()) << at;
        if (phase == Phase::kDrain) {
          ExpectSidecarMatchesRewrite(&store, kRunRegion);
        }
      }
    }
    const uint64_t ops = cut - 1;
    std::printf("multi-page run sweep, %s: %llu mutating ops, %llu schedules\n", name,
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(schedules));
    EXPECT_TRUE(torn_across_pages) << name << ": no tear crossed a page boundary";
    // One op per run at each stage, each stage then synced: the drain has
    // two runs, the whole-image write one.
    EXPECT_EQ(phase == Phase::kDrain ? 9u : 6u, ops) << name;
  }
}

}  // namespace
