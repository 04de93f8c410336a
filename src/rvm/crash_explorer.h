// Systematic crash-schedule exploration (ALICE / CrashMonkey-B3 style).
//
// The explorer runs a caller-supplied deterministic workload once over an
// instrumented in-memory store to count its mutating store operations, then
// replays it from scratch once per *crash schedule*: a (operation index,
// torn-tail variant) pair. Each replay crashes the simulated machine right
// before the chosen operation, reboots, runs the caller's recovery procedure
// (ReplayLogsIntoDatabase), and hands the recovered store to the caller's
// verifier — which asserts the paper's invariant that the database equals
// the state after some prefix of the committed-transaction order.
//
// Small workloads are swept exhaustively; above `budget` schedules a
// seeded-random sample is explored (the first and last operation are always
// kept). A second sweep crashes the *recovery* path itself at every
// operation and requires the re-recovered database to be byte-identical to
// a clean single-pass recovery — pinning replay idempotence.
//
// Determinism contract for the workload callback: given the same store
// contents it must issue the identical sequence of store operations, so an
// index counted in the clean run addresses the same operation in a replay.
#ifndef SRC_RVM_CRASH_EXPLORER_H_
#define SRC_RVM_CRASH_EXPLORER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/store/crash_point_store.h"
#include "src/store/mem_store.h"
#include "src/store/resource_store.h"

namespace rvm {

struct CrashExplorerOptions {
  // Maximum schedules explored per sweep; 0 means exhaustive. When the
  // candidate set is larger, a seeded-random subset of this size is run.
  uint64_t budget = 0;
  uint64_t seed = 0x5eed;
  // Torn-tail sizes additionally tried when the interrupted operation is a
  // Write/Append: bytes of the interrupted write that reach the platter
  // (clamped to the write length; SIZE_MAX = the whole write).
  std::vector<size_t> torn_variants = {1, SIZE_MAX};
  // Invoked on every fresh simulated machine before the workload runs —
  // e.g. ResourceStore::SetQuotaBytes, so the sweep can crash a workload
  // that is fighting ENOSPC (the quota sits *under* the crash point: a power
  // cut interrupts the short append the quota already tore).
  std::function<void(store::ResourceStore*)> configure_machine;
  // Invoked in ExploreRecoveryCrashes between the reboot and the second
  // recovery pass — i.e. at the exact moment an incrementally recovering
  // server would already be serving. Incremental-recovery sweeps use it to
  // fetch pages through the serving path and assert no unreplayed or
  // uncertified byte escapes while replay is still outstanding. Whatever
  // the probe materializes must be idempotent with respect to the second
  // recovery pass (on-demand replay is).
  std::function<base::Status(store::DurableStore*)> recovery_probe;
};

struct CrashExplorerReport {
  uint64_t workload_ops = 0;        // mutating ops in one clean workload run
  uint64_t recovery_ops = 0;        // mutating ops in one clean recovery
  uint64_t schedules_run = 0;       // workload-crash schedules executed
  uint64_t torn_schedules_run = 0;  // ... of which left a torn tail
  uint64_t nested_schedules_run = 0;  // recovery-crash schedules executed
  uint64_t probes_run = 0;            // recovery_probe invocations that passed
};

class CrashExplorer {
 public:
  // Callbacks receive the instrumented store. `workload` must run the fixed
  // workload and return the first store error it hits (OK on a clean run);
  // `recover` replays the logs into the database; `verify` checks the
  // committed-prefix invariant and is told how many transactions had
  // committed (durably) when the crash hit, via the caller's own bookkeeping.
  using StoreFn = std::function<base::Status(store::DurableStore*)>;

  CrashExplorer(CrashExplorerOptions options, StoreFn workload, StoreFn recover,
                StoreFn verify);

  // Sweep 1: crash the workload at every mutating op (exhaustive or sampled),
  // reboot, recover, verify. Fails fast with schedule context on violation.
  base::Status ExploreWorkloadCrashes(CrashExplorerReport* report);

  // Sweep 2: run the workload to completion, crash the machine, then crash
  // recovery itself at every op; recover again and require the final store
  // to be byte-identical to a clean single-pass recovery.
  base::Status ExploreRecoveryCrashes(CrashExplorerReport* report);

 private:
  struct Schedule {
    uint64_t op_index;
    size_t torn_bytes;  // 0 = clean power cut
  };

  // One fresh simulated machine: CrashPointStore -> ResourceStore ->
  // MemStore, so the quota sits under the crash point. Every power cut —
  // the crash hook and the explicit cuts of ExploreRecoveryCrashes — goes
  // through PowerCut.
  struct Machine {
    Machine() : quota(&mem), cps(&quota) {
      cps.SetCrashHook([this] { PowerCut(); });
    }
    // Drops the MemStore's unsynced state, then rebuilds the quota ledger
    // from the sizes that survived.
    void PowerCut();
    store::MemStore mem;
    store::ResourceStore quota;
    store::CrashPointStore cps;
  };

  // Builds the candidate schedule list for `kinds` and trims it to the
  // budget with a seeded shuffle (keeping the first and last operation).
  std::vector<Schedule> PlanSchedules(const std::vector<store::CrashOpKind>& kinds);

  // Applies options_.configure_machine (if set) to a fresh machine.
  void ConfigureMachine(Machine* machine);

  static base::Result<std::map<std::string, std::vector<uint8_t>>> SnapshotStore(
      store::DurableStore* s);

  CrashExplorerOptions options_;
  StoreFn workload_;
  StoreFn recover_;
  StoreFn verify_;
};

}  // namespace rvm

#endif  // SRC_RVM_CRASH_EXPLORER_H_
