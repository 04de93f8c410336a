#include "perfbench/src/trace.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

struct ThreadBuffer {
  uint32_t thread = 0;
  uint64_t root = 0;
  std::vector<Span> spans;
  std::vector<uint32_t> open;  // indices of the spans still open, innermost last
};

std::mutex registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> registry;  // guarded by registry_mu
std::atomic<uint64_t> next_root{1};

// Buffers outlive their threads (the registry owns them), so spans recorded
// by a library thread that has since exited are still collected.
ThreadBuffer* Local() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(registry_mu);
    registry.push_back(std::make_unique<ThreadBuffer>());
    buffer = registry.back().get();
    buffer->thread = static_cast<uint32_t>(registry.size());
  }
  return buffer;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

uint64_t NowNanos() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kTxn: return "txn";
    case Op::kCycle: return "cycle";
    case Op::kBegin: return "lbc.Begin";
    case Op::kAcquire: return "lbc.Acquire";
    case Op::kSetRange: return "rvm.SetRange";
    case Op::kCommit: return "lbc.Commit";
    case Op::kWaitVisible: return "lbc.WaitForAppliedSeq";
    case Op::kTraverse: return "oo7.Traverse";
    case Op::kCheckpoint: return "lbc.CheckpointFromStandby";
    case Op::kKillServer: return "lbc.KillServer";
    case Op::kCrash: return "store.Crash";
    case Op::kRestart: return "lbc.RestartServer";
    case Op::kRejoin: return "lbc.RejoinServer";
    case Op::kDrain: return "lbc.DrainRecovery";
    case Op::kStoreRead: return "store.Read";
    case Op::kStoreWrite: return "store.Write";
    case Op::kStoreAppend: return "store.Append";
    case Op::kStoreSync: return "store.Sync";
    case Op::kStoreOther: return "store.Other";
  }
  return "?";
}

Layer LayerOf(Op op) {
  switch (op) {
    case Op::kTxn:
    case Op::kCycle:
      return Layer::kRoot;
    case Op::kSetRange:
      return Layer::kRvm;
    case Op::kTraverse:
      return Layer::kOo7;
    case Op::kCrash:
    case Op::kStoreRead:
    case Op::kStoreWrite:
    case Op::kStoreAppend:
    case Op::kStoreSync:
    case Op::kStoreOther:
      return Layer::kStore;
    default:
      return Layer::kLbc;
  }
}

void Tracer::SetRoot(uint64_t root) { Local()->root = root; }

uint64_t Tracer::NewRoot() { return next_root.fetch_add(1, std::memory_order_relaxed); }

std::vector<ThreadSpans> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(registry_mu);
  std::vector<ThreadSpans> out;
  for (const auto& buffer : registry) {
    if (!buffer->spans.empty()) {
      out.push_back({buffer->thread, buffer->spans});
    }
  }
  return out;
}

ScopedSpan::ScopedSpan(Op op) {
  if (!Tracer::enabled()) {
    return;
  }
  ThreadBuffer* b = Local();
  Span span;
  span.op = op;
  span.root = b->root;
  span.parent = b->open.empty() ? 0 : b->open.back() + 1;
  span.start_ns = NowNanos();
  index_ = static_cast<int64_t>(b->spans.size());
  b->spans.push_back(span);
  b->open.push_back(static_cast<uint32_t>(index_));
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) {
    return;
  }
  ThreadBuffer* b = Local();
  const uint64_t now = NowNanos();
  b->open.pop_back();
  Span& span = b->spans[static_cast<size_t>(index_)];
  span.end_ns = now;
  span.dur_ns = now - span.start_ns;
  // Fold a childless span into the sibling recorded just before it.
  const bool leaf = static_cast<size_t>(index_) + 1 == b->spans.size();
  if (leaf && index_ > 0) {
    Span& prev = b->spans[static_cast<size_t>(index_) - 1];
    if (prev.op == span.op && prev.parent == span.parent && prev.root == span.root &&
        prev.end_ns != 0) {
      prev.end_ns = span.end_ns;
      prev.dur_ns += span.dur_ns;
      prev.count += span.count;
      b->spans.pop_back();
    }
  }
}

bool WriteSpans(const std::vector<ThreadSpans>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "thread\troot\tparent\top\tstart_ns\tend_ns\tdur_ns\tcount\n");
  for (const ThreadSpans& t : spans) {
    for (const Span& s : t.spans) {
      std::fprintf(f, "%u\t%llu\t%u\t%s\t%llu\t%llu\t%llu\t%u\n", t.thread,
                   static_cast<unsigned long long>(s.root), s.parent, OpName(s.op),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.dur_ns), s.count);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
