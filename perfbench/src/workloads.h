// The benchmark's workloads. A run repeats rounds until its time is up; a
// round builds a fresh cluster (timed as set-up), runs a fixed amount of
// work, ends with crash/restart cycles, checks every output, and tears the
// cluster down. Fixed work per round keeps each node's log length — and so
// the cost of MemStore::Sync, which copies the whole file — the same in
// every round and on every run length.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "perfbench/src/timed_store.h"

namespace perfbench {

// Status bookkeeping for the timed public calls of one thread.
struct Calls {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;

  bool Track(bool ok, const char* what = "call") {
    ++attempted;
    if (!ok) {
      if (failed++ == 0) {
        first_error = what;
      }
    }
    return ok;
  }
  bool Track(const base::Status& st) {
    return st.ok() ? Track(true) : Track(false, st.ToString().c_str());
  }
  void Add(const Calls& o) {
    if (failed == 0 && o.failed > 0) {
      first_error = o.first_error;
    }
    attempted += o.attempted;
    failed += o.failed;
  }
};

// Library counters summed over the transaction phases of every round, read
// from Client::stats(), Rvm::stats(), Endpoint::stats() and TimedStore.
struct LayerCounts {
  uint64_t txns = 0;         // committed transactions
  uint64_t update_txns = 0;  // ... that declared at least one range
  uint64_t acquires = 0;
  // rvm (all nodes)
  uint64_t set_range_calls = 0;
  uint64_t set_range_duplicates = 0;
  uint64_t user_bytes = 0;  // modified bytes committed (RvmStats::bytes_logged)
  uint64_t log_bytes = 0;   // framed bytes appended to the durable logs
  uint64_t collect_nanos = 0;
  uint64_t apply_nanos = 0;
  uint64_t disk_nanos = 0;
  uint64_t commit_batches = 0;
  uint64_t commit_batch_txns = 0;
  uint64_t fsyncs_saved = 0;
  // lbc (all nodes)
  uint64_t acquire_waits = 0;
  uint64_t lock_messages = 0;
  uint64_t updates_sent = 0;
  uint64_t update_bytes_sent = 0;
  uint64_t updates_received = 0;
  uint64_t updates_held = 0;
  // netsim (all endpoints)
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t send_nanos = 0;
  // store
  StoreCounts txn_store;      // device ops during the transaction phases
  StoreCounts restart_store;  // device ops from RestartServer to DrainRecovery
  uint64_t restarts = 0;
  // Each logging node's log size at the end of its round's transactions.
  std::vector<uint64_t> final_log_bytes;
};

struct RunResult {
  std::vector<double> setup_s;
  std::vector<double> txn_us;          // Begin .. Commit returns
  std::vector<double> txn_us_traced;   // the same, split by round kind (--trace 1)
  std::vector<double> txn_us_untraced;
  std::vector<double> propagation_us;  // Commit call .. every peer applied it
  // p99 of each window of at least 1000 consecutive samples, and the
  // samples of the window still open (see EndWindow in workloads.cc).
  std::vector<double> txn_p99_windows;
  std::vector<double> propagation_p99_windows;
  std::vector<double> txn_window;
  std::vector<double> propagation_window;
  std::vector<double> ttfc_ms;         // RestartServer .. first commit returns
  std::vector<double> recovered_ms;    // RestartServer .. DrainRecovery returns
  double txn_phase_s = 0;              // wall time of the transaction phases
  Calls calls;
  LayerCounts counts;
  std::vector<std::string> errors;     // failed correctness checks
};

struct RoundSpec {
  uint64_t seed = 0;
  uint64_t round = 0;
};

// Runs one round of the named workload (one of WorkloadNames()), appending
// to `out`.
void RunRound(const std::string& workload, const RoundSpec& spec, RunResult* out);

// The names RunRound accepts.
std::vector<std::string> WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
