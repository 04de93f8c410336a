// In-memory span recorder for the traced benchmark run.
//
// A span covers one call from the benchmark into a public library function
// (or one device operation seen by TimedStore). Spans live in per-thread
// buffers, each naming its parent (the span open on the same thread when it
// started) and its root: the transaction or restart cycle that caused it.
// Nothing is recorded while tracing is off, so the untraced run pays one
// relaxed atomic load per call site.
//
// Consecutive leaf spans of the same op under the same parent are folded
// into one record with a call count (an OO7 T2-B traversal makes ~44K
// SetRange calls); self time stays exact because a folded record keeps the
// summed duration of its calls, not the wall interval they spanned.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Op : uint8_t {
  kTxn,          // root: Begin .. Commit returns
  kCycle,        // root: one crash/restart cycle
  kBegin,
  kAcquire,
  kSetRange,
  kCommit,
  kWaitVisible,  // Client::WaitForAppliedSeq on a peer after a commit
  kTraverse,     // OO7 traversal (its SetRange calls are child spans)
  kCheckpoint,   // lbc::CheckpointFromStandby
  kKillServer,
  kCrash,        // MemStore::Crash
  kRestart,      // Cluster::RestartServer
  kRejoin,       // Client::RejoinServer
  kDrain,        // Cluster::DrainRecovery
  kStoreRead,
  kStoreWrite,
  kStoreAppend,
  kStoreSync,
  kStoreOther,   // Truncate and namespace operations
};

// The library layer an op's self time is charged to.
enum class Layer : uint8_t { kRoot, kLbc, kRvm, kStore, kOo7 };

const char* OpName(Op op);
Layer LayerOf(Op op);

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t dur_ns = 0;   // summed duration of the folded calls
  uint64_t root = 0;     // transaction or cycle id; 0 = unattributed thread
  uint32_t parent = 0;   // 1 + index of the parent in the same buffer; 0 = none
  uint32_t count = 1;    // calls folded into this record
  Op op = Op::kTxn;
};

struct ThreadSpans {
  uint32_t thread = 0;
  std::vector<Span> spans;
};

uint64_t NowNanos();

class Tracer {
 public:
  static void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  // Root id for spans this thread opens from now on.
  static void SetRoot(uint64_t root);
  // Fresh ids for transactions and cycles, unique within the process.
  static uint64_t NewRoot();

  // Every span recorded so far, one entry per thread that recorded any.
  // Call only while no traced thread is running.
  static std::vector<ThreadSpans> Collect();

 private:
  friend class ScopedSpan;
  static std::atomic<bool> enabled_;
};

// Records one span from construction to destruction when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(Op op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_ = -1;  // position in this thread's buffer; -1 = not recording
};

// Writes every span as one tab-separated line:
// thread root parent op start_ns end_ns dur_ns count.
bool WriteSpans(const std::vector<ThreadSpans>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
