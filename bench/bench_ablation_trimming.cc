// Ablation: what log maintenance costs the writers.
//
//   online    — lbc::OnlineTrim: quiesce via the segment locks, merge+replay,
//               release, then trim
//   standby   — lbc::CheckpointFromStandby: no quiesce at all
//
// A writer commits continuously while maintenance runs; we report the
// writer's worst observed commit-to-commit gap during the maintenance
// window. The lock-based online trim blocks the writer for the length of
// the merge+replay; the standby checkpoint does not take the lock at all.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

#include "src/base/clock.h"
#include "src/base/logging.h"
#include "src/lbc/client.h"
#include "src/lbc/online_trim.h"
#include "src/lbc/standby.h"
#include "src/store/mem_store.h"

namespace {

constexpr rvm::RegionId kRegion = 1;
constexpr rvm::LockId kLock = 1;

struct Run {
  double max_gap_ms = 0;     // worst commit-to-commit gap during maintenance
  double maintenance_ms = 0; // wall time of the maintenance operation
  uint64_t commits = 0;
};

Run Measure(const char* mode) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 1);
  lbc::ClientOptions options;
  options.rvm.disk_logging = true;
  auto writer = std::move(*lbc::Client::Create(&cluster, 1, options));
  LBC_CHECK_OK(writer->MapRegion(kRegion, 1 << 20).status());
  lbc::ClientOptions standby_options;
  standby_options.versioned_reads = true;
  auto standby = std::move(*lbc::Client::Create(&cluster, 9, standby_options));
  LBC_CHECK_OK(standby->MapRegion(kRegion, 1 << 20).status());

  std::atomic<bool> stop{false};
  std::atomic<double> max_gap_ms{0};
  Run run;
  std::thread committer([&] {
    base::Stopwatch since_last;
    uint64_t n = 0;
    while (!stop) {
      lbc::Transaction txn = writer->Begin(rvm::RestoreMode::kNoRestore);
      LBC_CHECK_OK(txn.Acquire(kLock));
      LBC_CHECK_OK(txn.SetRange(kRegion, (n % 1000) * 64, 8));
      std::memcpy(writer->GetRegion(kRegion)->data() + (n % 1000) * 64, &n, 8);
      LBC_CHECK_OK(txn.Commit(rvm::CommitMode::kNoFlush));
      double gap = since_last.ElapsedMicros() / 1e3;
      double prev = max_gap_ms.load();
      while (gap > prev && !max_gap_ms.compare_exchange_weak(prev, gap)) {
      }
      since_last.Reset();
      ++n;
    }
    run.commits = n;
  });

  // Let the log grow, then run maintenance while commits continue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  max_gap_ms = 0;  // measure only the maintenance window
  base::Stopwatch maintenance;
  std::vector<lbc::Client*> writers = {writer.get()};
  if (std::strcmp(mode, "online") == 0) {
    LBC_CHECK_OK(lbc::OnlineTrim(&cluster, writer.get(), writers));
  } else if (std::strcmp(mode, "standby") == 0) {
    LBC_CHECK_OK(lbc::CheckpointFromStandby(&cluster, standby.get(), writers));
  }
  run.maintenance_ms = maintenance.ElapsedMicros() / 1e3;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop = true;
  committer.join();
  run.max_gap_ms = max_gap_ms.load();
  return run;
}

}  // namespace

int main() {
  std::printf("=== Ablation: log maintenance vs writer latency ===\n\n");
  std::printf("%-10s %18s %20s %12s\n", "mode", "maintenance ms", "worst commit gap ms",
              "commits");
  for (const char* mode : {"none", "online", "standby"}) {
    Run run = Measure(mode);
    std::printf("%-10s %18.2f %20.2f %12llu\n", mode, run.maintenance_ms, run.max_gap_ms,
                static_cast<unsigned long long>(run.commits));
  }
  std::printf("\nOnlineTrim quiesces writers for the merge+replay window (the worst\n"
              "gap tracks it; the trims run after the release); the standby\n"
              "checkpoint never takes the lock — its residual gap is CPU contention\n"
              "with the checkpoint work, not blocking (run on a multi-core host to\n"
              "see it approach baseline).\n");
  return 0;
}
