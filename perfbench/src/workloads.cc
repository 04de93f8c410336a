#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "src/base/rng.h"
#include "src/lbc/client.h"
#include "src/lbc/standby.h"
#include "src/oo7/database.h"
#include "src/oo7/traversals.h"
#include "perfbench/src/report.h"
#include "src/store/mem_store.h"
#include "src/store/resource_store.h"
#include "perfbench/src/trace.h"

namespace perfbench {
namespace {

// Every operation on a log or database file costs one storage-service round
// trip, standing in for the paper's NFS server (the same figure the
// group-commit bench uses).
constexpr uint64_t kDeviceLatencyNanos = 100'000;
constexpr int kVisibleTimeoutMs = 10'000;

// hot-records / restart data: 8 regions x 64 KiB, one segment lock per
// 8 KiB page, 64-byte records that carry their own checksum.
constexpr rvm::RegionId kRegions = 8;
constexpr uint64_t kRegionBytes = 64 * 1024;
constexpr rvm::LockId kLocks = 64;
constexpr uint64_t kSegmentBytes = kRegionBytes / (kLocks / kRegions);
constexpr uint64_t kRecordBytes = 64;
constexpr uint64_t kRecordsPerSegment = kSegmentBytes / kRecordBytes;
constexpr uint64_t kRecordPayload = kRecordBytes - 8;

// Fixed work per round (see workloads.h for why it is not fixed time).
constexpr int kHotOpsPerThread = 1024;        // 4 threads -> 4096 transactions
constexpr int kHotWritePercent = 80;          // the rest are read-only
constexpr int kRestartCyclesPerRound = 4;
constexpr int kRestartRecordsPerCycle = 1200;  // over 3 writer threads
constexpr int kOo7SparseTxnsPerRound = 400;
constexpr int kOo7DenseTxnsPerRound = 48;
constexpr int kOo7RestartsPerRound = 4;

uint64_t Mix(uint64_t a, uint64_t b) {
  base::Rng rng(a ^ (b * 0x9E3779B97F4A7C15ull));
  return rng.Next();
}

double SecondsSince(uint64_t start_ns) { return static_cast<double>(NowNanos() - start_ns) / 1e9; }
double MicrosSince(uint64_t start_ns) { return static_cast<double>(NowNanos() - start_ns) / 1e3; }

rvm::RegionId LockRegion(rvm::LockId lock) {
  return static_cast<rvm::RegionId>(1 + (lock - 1) / (kLocks / kRegions));
}
uint64_t SegmentOffset(rvm::LockId lock) { return ((lock - 1) % (kLocks / kRegions)) * kSegmentBytes; }
// Lock managers (and initial token owners) alternate between nodes 1 and 2.
rvm::NodeId LockManager(rvm::LockId lock) { return static_cast<rvm::NodeId>(1 + lock % 2); }

uint64_t RecordSum(const uint8_t* rec, rvm::RegionId region, uint64_t offset) {
  uint64_t h = 0xCBF29CE484222325ull ^ (uint64_t{region} << 32) ^ offset;
  for (uint64_t i = 0; i < kRecordPayload; ++i) {
    h = (h ^ rec[i]) * 0x100000001B3ull;
  }
  return h;
}

void FillRecord(uint8_t* rec, base::Rng& rng, rvm::RegionId region, uint64_t offset) {
  for (uint64_t i = 0; i < kRecordPayload; i += 8) {
    const uint64_t word = rng.Next();
    std::memcpy(rec + i, &word, 8);
  }
  const uint64_t sum = RecordSum(rec, region, offset);
  std::memcpy(rec + kRecordPayload, &sum, 8);
}

bool RecordValid(const uint8_t* rec, rvm::RegionId region, uint64_t offset) {
  uint64_t sum = 0;
  std::memcpy(&sum, rec + kRecordPayload, 8);
  return sum == RecordSum(rec, region, offset);
}

// zipf(theta) over the 64 locks. Rank i is lock i + 1 on every seed, so the
// hot set — and which node manages each hot lock — is part of the workload,
// not of the seed; the seed draws the sequence.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : cdf_(n) {
    double total = 0;
    for (uint64_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = total;
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }

  rvm::LockId Sample(base::Rng& rng) const {
    const double u = rng.NextDouble();
    const size_t rank =
        static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return 1 + std::min(rank, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// One round's cluster. Member order is teardown order in reverse: clients
// go first, then the cluster, then the store stack they write through.
struct Rig {
  store::MemStore mem;
  store::ResourceStore device{&mem};
  TimedStore timed{&device};
  lbc::Cluster cluster{&timed};
  std::vector<std::unique_ptr<lbc::Client>> clients;  // node i + 1 at [i]
};

using Images = std::map<rvm::RegionId, std::vector<uint8_t>>;

// The output of one load thread, merged after it joins.
struct ThreadOut {
  Calls calls;
  std::vector<double> txn_us;
  std::vector<double> propagation_us;
  uint64_t txns = 0;
  uint64_t update_txns = 0;
  uint64_t acquires = 0;
  std::vector<std::string> errors;
};

// Tail percentiles are taken per window of at least this many samples —
// enough for ten beyond the p99 — and reported as the median over windows,
// so a burst of host noise that hits a minority of windows cannot move them.
constexpr size_t kMinWindow = 1000;

// Closes the open windows that hold at least kMinWindow samples; called at
// round or cycle boundaries.
void EndWindow(RunResult* out) {
  if (out->txn_window.size() >= kMinWindow) {
    out->txn_p99_windows.push_back(Quantile(out->txn_window, 0.99));
    out->txn_window.clear();
  }
  if (out->propagation_window.size() >= kMinWindow) {
    out->propagation_p99_windows.push_back(Quantile(out->propagation_window, 0.99));
    out->propagation_window.clear();
  }
}

void Merge(const ThreadOut& t, RunResult* out) {
  out->calls.Add(t.calls);
  out->txn_us.insert(out->txn_us.end(), t.txn_us.begin(), t.txn_us.end());
  auto& split = Tracer::enabled() ? out->txn_us_traced : out->txn_us_untraced;
  split.insert(split.end(), t.txn_us.begin(), t.txn_us.end());
  out->propagation_us.insert(out->propagation_us.end(), t.propagation_us.begin(),
                             t.propagation_us.end());
  out->txn_window.insert(out->txn_window.end(), t.txn_us.begin(), t.txn_us.end());
  out->propagation_window.insert(out->propagation_window.end(), t.propagation_us.begin(),
                                 t.propagation_us.end());
  out->counts.txns += t.txns;
  out->counts.update_txns += t.update_txns;
  out->counts.acquires += t.acquires;
  out->errors.insert(out->errors.end(), t.errors.begin(), t.errors.end());
}

// Declares and makes a transaction's updates between Acquire and Commit,
// tracking its calls in `out`. Returns false on a failed call; sets
// *updated when it declared a range.
using TxnBody = std::function<bool(lbc::Transaction&, ThreadOut* out, bool* updated)>;

// One kind of transaction: who runs it, under which lock, who must see it.
struct TxnSpec {
  lbc::Client* self = nullptr;
  std::vector<lbc::Client*> peers;
  rvm::LockId lock = 0;
  TxnBody body;
};

// A committed transaction whose update the peers may still be applying.
struct Committed {
  bool ok = false;
  bool updated = false;
  uint64_t seq = 0;
  uint64_t commit_call_ns = 0;
  uint64_t commit_done_ns = 0;
};

// Begin, Acquire, the body, Commit; records the transaction's latency.
// With `own_root` its spans get a fresh root, else they join the caller's.
Committed RunTxn(const TxnSpec& spec, bool own_root, ThreadOut* out) {
  if (own_root && Tracer::enabled()) {
    Tracer::SetRoot(Tracer::NewRoot());
  }
  Committed c;
  ScopedSpan txn_span(Op::kTxn);
  const uint64_t start = NowNanos();
  lbc::Transaction txn = [&] {
    ScopedSpan span(Op::kBegin);
    return spec.self->Begin(rvm::RestoreMode::kNoRestore);
  }();
  bool ok;
  {
    ScopedSpan span(Op::kAcquire);
    ok = out->calls.Track(txn.Acquire(spec.lock));
  }
  ++out->acquires;
  if (!ok) {
    return c;
  }
  // The holder has applied every earlier update of the lock (§3.4), so the
  // sequence this transaction's update will carry is the next one.
  c.seq = spec.self->AppliedSeq(spec.lock) + 1;
  if (!spec.body(txn, out, &c.updated)) {
    return c;
  }
  {
    ScopedSpan span(Op::kCommit);
    c.commit_call_ns = NowNanos();
    ok = out->calls.Track(txn.Commit(rvm::CommitMode::kFlush));
    c.commit_done_ns = NowNanos();
  }
  if (!ok) {
    return c;
  }
  c.ok = true;
  out->txn_us.push_back(static_cast<double>(c.commit_done_ns - start) / 1e3);
  ++out->txns;
  out->update_txns += c.updated ? 1 : 0;
  return c;
}

// Waits until every peer has applied the transaction's update, and records
// the propagation latency: from the Commit call to the last peer's apply.
void AwaitPeers(const TxnSpec& spec, const Committed& c, ThreadOut* out) {
  if (!c.ok || !c.updated) {
    return;
  }
  for (lbc::Client* peer : spec.peers) {
    ScopedSpan span(Op::kWaitVisible);
    out->calls.Track(peer->WaitForAppliedSeq(spec.lock, c.seq, kVisibleTimeoutMs),
                     "WaitForAppliedSeq timed out");
  }
  out->propagation_us.push_back(MicrosSince(c.commit_call_ns));
}

// A record transaction: rewrites the 64-byte record at `offset`, or reads it
// and checks its checksum.
TxnSpec RecordTxn(lbc::Client* self, lbc::Client* peer, rvm::LockId lock, uint64_t offset,
                  bool write, base::Rng* rng) {
  const rvm::RegionId region = LockRegion(lock);
  TxnSpec spec;
  spec.self = self;
  spec.peers = {peer};
  spec.lock = lock;
  spec.body = [=](lbc::Transaction& txn, ThreadOut* out, bool* updated) {
    uint8_t* rec = self->GetRegion(region)->data() + offset;
    if (!write) {
      if (!RecordValid(rec, region, offset)) {
        out->errors.push_back("read a corrupt record in region " + std::to_string(region) +
                              " at " + std::to_string(offset));
      }
      return true;
    }
    {
      ScopedSpan span(Op::kSetRange);
      if (!out->calls.Track(txn.SetRange(region, offset, kRecordBytes))) {
        return false;
      }
    }
    FillRecord(rec, *rng, region, offset);
    *updated = true;
    return true;
  };
  return spec;
}

// A closed loop of record transactions: each picks a lock by zipf(0.99) and
// a record in its segment, and rewrites it (write_percent of the time) or
// reads it; a writer waits until the peer has applied its update.
void RecordLoop(lbc::Client* self, lbc::Client* peer, const Zipf& zipf, uint64_t seed, int ops,
                int write_percent, ThreadOut* out) {
  base::Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    const rvm::LockId lock = zipf.Sample(rng);
    const bool write = rng.Uniform(100) < static_cast<uint64_t>(write_percent);
    const uint64_t offset = SegmentOffset(lock) + rng.Uniform(kRecordsPerSegment) * kRecordBytes;
    const TxnSpec spec = RecordTxn(self, peer, lock, offset, write, &rng);
    AwaitPeers(spec, RunTxn(spec, /*own_root=*/true, out), out);
  }
}

std::vector<uint8_t> ReadDurable(store::DurableStore* store, const std::string& name,
                                 uint64_t len) {
  std::vector<uint8_t> bytes(len, 0);
  auto file = store->Open(name, /*create=*/false);
  if (file.ok()) {
    base::IgnoreError((*file)->ReadExact(0, bytes.data(), len));
  }
  return bytes;
}

bool WriteDurable(store::DurableStore* store, const std::string& name,
                  const std::vector<uint8_t>& bytes) {
  auto file = store->Open(name, /*create=*/true);
  return file.ok() && (*file)->Write(0, base::ByteSpan(bytes.data(), bytes.size())).ok() &&
         (*file)->Sync().ok();
}

Images Snapshot(lbc::Client* client) {
  Images images;
  for (rvm::RegionId region : client->MappedRegions()) {
    const rvm::Region* r = client->GetRegion(region);
    images[region].assign(r->data(), r->data() + r->size());
  }
  return images;
}

// Every node's cached image of every region equals `nodes[0]`'s.
void CheckCoherent(const std::vector<lbc::Client*>& nodes, const char* when, RunResult* out) {
  for (rvm::RegionId region : nodes[0]->MappedRegions()) {
    const rvm::Region* a = nodes[0]->GetRegion(region);
    for (size_t i = 1; i < nodes.size(); ++i) {
      const rvm::Region* b = nodes[i]->GetRegion(region);
      if (b == nullptr || b->size() != a->size() ||
          std::memcmp(a->data(), b->data(), a->size()) != 0) {
        out->errors.push_back(std::string(when) + ": node " + std::to_string(nodes[i]->node()) +
                              " and node " + std::to_string(nodes[0]->node()) +
                              " cache different images of region " + std::to_string(region));
      }
    }
  }
}

void ResetStats(Rig& rig) {
  for (auto& c : rig.clients) {
    c->ResetStats();
    c->rvm()->ResetStats();
    rig.cluster.fabric()->GetNode(c->node())->ResetStats();
  }
}

void AddStats(Rig& rig, const StoreCounts& store_before, RunResult* out) {
  LayerCounts& n = out->counts;
  for (auto& c : rig.clients) {
    const lbc::ClientStats cs = c->stats();
    const rvm::RvmStats rs = c->rvm()->stats();
    const netsim::EndpointStats es = rig.cluster.fabric()->GetNode(c->node())->stats();
    n.set_range_calls += rs.set_range_calls;
    n.set_range_duplicates += rs.set_range_duplicates;
    n.user_bytes += rs.bytes_logged;
    n.log_bytes += rs.log_bytes_written;
    n.collect_nanos += rs.collect_nanos;
    n.apply_nanos += rs.apply_nanos;
    n.disk_nanos += rs.disk_nanos;
    n.commit_batches += rs.commit_batches;
    n.commit_batch_txns += rs.commit_batch_txns;
    n.fsyncs_saved += rs.fsyncs_saved;
    n.acquire_waits += cs.acquire_waits;
    n.lock_messages += cs.lock_messages_sent;
    n.updates_sent += cs.updates_sent;
    n.update_bytes_sent += cs.update_bytes_sent;
    n.updates_received += cs.updates_received;
    n.updates_held += cs.updates_held;
    n.messages_sent += es.messages_sent;
    n.bytes_sent += es.bytes_sent;
    n.send_nanos += es.send_nanos;
  }
  n.txn_store += rig.timed.counts() - store_before;
}

// Power-cuts the storage service and restarts it: KillServer, drop every
// unflushed byte, RestartServer, RejoinServer on every client, one of the
// workload's transactions (`first`), DrainRecovery. Then checks that the
// recovered database files hold exactly `expect` — every acknowledged
// commit up to the cut.
void RestartCycle(Rig& rig, const Images& expect, const TxnSpec& first, uint64_t root,
                  RunResult* out) {
  if (Tracer::enabled()) {
    Tracer::SetRoot(root);
  }
  ThreadOut first_out;
  {
    ScopedSpan cycle(Op::kCycle);
    {
      ScopedSpan span(Op::kKillServer);
      rig.cluster.KillServer();
    }
    {
      ScopedSpan span(Op::kCrash);
      rig.mem.Crash();
    }
    const StoreCounts store_before = rig.timed.counts();
    const uint64_t start = NowNanos();
    {
      ScopedSpan span(Op::kRestart);
      out->calls.Track(rig.cluster.RestartServer());
    }
    for (auto& c : rig.clients) {
      ScopedSpan span(Op::kRejoin);
      out->calls.Track(c->RejoinServer());
    }
    const Committed committed = RunTxn(first, /*own_root=*/false, &first_out);
    out->ttfc_ms.push_back(
        static_cast<double>((committed.ok ? committed.commit_done_ns : NowNanos()) - start) / 1e6);
    {
      ScopedSpan span(Op::kDrain);
      out->calls.Track(rig.cluster.DrainRecovery());
    }
    out->recovered_ms.push_back(MicrosSince(start) / 1e3);
    out->counts.restart_store += rig.timed.counts() - store_before;
    ++out->counts.restarts;
    AwaitPeers(first, committed, &first_out);
  }
  out->calls.Add(first_out.calls);
  out->errors.insert(out->errors.end(), first_out.errors.begin(), first_out.errors.end());
  for (const auto& [region, image] : expect) {
    if (ReadDurable(&rig.mem, rvm::RegionFileName(region), image.size()) != image) {
      out->errors.push_back("recovered database file of region " + std::to_string(region) +
                            " differs from the committed image after a crash");
    }
  }
}

uint64_t NewCycleRoot() { return Tracer::enabled() ? Tracer::NewRoot() : 0; }

// --- hot-records and restart ------------------------------------------------

// Two writer nodes (plus a versioned-read standby when asked) over the
// latency-injected store, every region mapped everywhere.
std::unique_ptr<Rig> BuildRecordCluster(uint64_t seed, bool standby, RunResult* out) {
  auto rig = std::make_unique<Rig>();
  for (rvm::RegionId region = 1; region <= kRegions; ++region) {
    std::vector<uint8_t> image(kRegionBytes);
    base::Rng rng(Mix(seed, region));
    for (uint64_t off = 0; off < kRegionBytes; off += kRecordBytes) {
      FillRecord(image.data() + off, rng, region, off);
    }
    if (!WriteDurable(&rig->mem, rvm::RegionFileName(region), image)) {
      out->errors.push_back("could not write the initial database");
      return nullptr;
    }
  }
  rig->device.InjectLatency("", kDeviceLatencyNanos);
  for (rvm::LockId lock = 1; lock <= kLocks; ++lock) {
    rig->cluster.DefineLock(lock, LockRegion(lock), LockManager(lock));
  }
  const int nodes = standby ? 3 : 2;
  for (int i = 0; i < nodes; ++i) {
    lbc::ClientOptions options;
    options.versioned_reads = i == 2;
    auto client = lbc::Client::Create(&rig->cluster, static_cast<rvm::NodeId>(i + 1), options);
    if (!out->calls.Track(client.status())) {
      return nullptr;
    }
    for (rvm::RegionId region = 1; region <= kRegions; ++region) {
      if (!out->calls.Track((*client)->MapRegion(region, kRegionBytes).status())) {
        return nullptr;
      }
    }
    rig->clients.push_back(std::move(*client));
  }
  return rig;
}

// The first commit after a restart: node 1 rewrites a random record.
TxnSpec FirstRecordTxn(Rig& rig, base::Rng* rng) {
  const rvm::LockId lock = 1 + rng->Uniform(kLocks);
  const uint64_t offset = SegmentOffset(lock) + rng->Uniform(kRecordsPerSegment) * kRecordBytes;
  return RecordTxn(rig.clients[0].get(), rig.clients[1].get(), lock, offset, /*write=*/true, rng);
}

void HotRecordsRound(const RoundSpec& spec, RunResult* out) {
  const uint64_t setup_start = NowNanos();
  std::unique_ptr<Rig> rig = BuildRecordCluster(Mix(spec.seed, spec.round), false, out);
  out->setup_s.push_back(SecondsSince(setup_start));
  if (rig == nullptr) {
    return;
  }
  lbc::Client* n1 = rig->clients[0].get();
  lbc::Client* n2 = rig->clients[1].get();
  const Zipf zipf(kLocks, 0.99);

  ResetStats(*rig);
  const StoreCounts store_before = rig->timed.counts();
  const uint64_t phase_start = NowNanos();
  std::vector<ThreadOut> outs(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    lbc::Client* self = t % 2 == 0 ? n1 : n2;
    lbc::Client* peer = t % 2 == 0 ? n2 : n1;
    threads.emplace_back(RecordLoop, self, peer, std::cref(zipf),
                         Mix(Mix(spec.seed, spec.round), 100 + t), kHotOpsPerThread,
                         kHotWritePercent, &outs[t]);
  }
  for (auto& t : threads) {
    t.join();
  }
  out->txn_phase_s += SecondsSince(phase_start);
  AddStats(*rig, store_before, out);
  for (const ThreadOut& t : outs) {
    Merge(t, out);
  }
  EndWindow(out);
  out->counts.final_log_bytes.push_back(n1->rvm()->log_bytes());
  out->counts.final_log_bytes.push_back(n2->rvm()->log_bytes());

  CheckCoherent({n1, n2}, "after the transactions", out);
  base::Rng rng(Mix(spec.seed, spec.round ^ 0xC1C1E));
  RestartCycle(*rig, Snapshot(n1), FirstRecordTxn(*rig, &rng), NewCycleRoot(), out);
  CheckCoherent({n1, n2}, "after the restart", out);
}

void RestartRound(const RoundSpec& spec, RunResult* out) {
  const uint64_t setup_start = NowNanos();
  std::unique_ptr<Rig> rig = BuildRecordCluster(Mix(spec.seed, spec.round), true, out);
  out->setup_s.push_back(SecondsSince(setup_start));
  if (rig == nullptr) {
    return;
  }
  lbc::Client* n1 = rig->clients[0].get();
  lbc::Client* n2 = rig->clients[1].get();
  lbc::Client* standby = rig->clients[2].get();
  const Zipf zipf(kLocks, 0.99);
  base::Rng rng(Mix(spec.seed, spec.round ^ 0xC1C1E));

  for (int cycle = 0; cycle < kRestartCyclesPerRound; ++cycle) {
    const uint64_t root = NewCycleRoot();
    ResetStats(*rig);
    const StoreCounts store_before = rig->timed.counts();
    const uint64_t phase_start = NowNanos();
    std::vector<ThreadOut> outs(3);
    std::vector<std::thread> writers;
    for (int t = 0; t < 3; ++t) {
      lbc::Client* self = t == 1 ? n2 : n1;
      lbc::Client* peer = t == 1 ? n1 : n2;
      const int records = kRestartRecordsPerCycle / 3 + (t < kRestartRecordsPerCycle % 3 ? 1 : 0);
      writers.emplace_back(RecordLoop, self, peer, std::cref(zipf),
                           Mix(Mix(spec.seed, spec.round * 64 + cycle), 200 + t), records,
                           /*write_percent=*/100, &outs[t]);
    }
    Calls checkpoint_calls;
    std::thread checkpointer([&] {
      if (Tracer::enabled()) {
        Tracer::SetRoot(root);
      }
      ScopedSpan span(Op::kCheckpoint);
      checkpoint_calls.Track(lbc::CheckpointFromStandby(&rig->cluster, standby, {n1, n2}));
    });
    for (auto& t : writers) {
      t.join();
    }
    out->txn_phase_s += SecondsSince(phase_start);
    checkpointer.join();
    AddStats(*rig, store_before, out);
    out->calls.Add(checkpoint_calls);
    for (const ThreadOut& t : outs) {
      Merge(t, out);
    }
    EndWindow(out);
    if (cycle == kRestartCyclesPerRound - 1) {
      out->counts.final_log_bytes.push_back(n1->rvm()->log_bytes());
      out->counts.final_log_bytes.push_back(n2->rvm()->log_bytes());
    }

    // The standby's buffered updates arrive asynchronously; accept until it
    // has caught up with the writers, then it must hold the same image.
    const uint64_t deadline = NowNanos() + uint64_t{kVisibleTimeoutMs} * 1'000'000;
    bool caught_up = false;
    while (!caught_up && NowNanos() < deadline) {
      out->calls.Track(standby->Accept());
      caught_up = true;
      for (rvm::LockId lock = 1; lock <= kLocks; ++lock) {
        caught_up = caught_up && standby->AppliedSeq(lock) >= n1->AppliedSeq(lock);
      }
      if (!caught_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    CheckCoherent({n1, n2, standby}, "after the checkpoint", out);
    RestartCycle(*rig, Snapshot(n1), FirstRecordTxn(*rig, &rng), root, out);
  }
  CheckCoherent({n1, n2}, "after the restarts", out);
}

// --- OO7 ---------------------------------------------------------------------

// Forwards the traversal's update declarations to Trans.SetRange.
class TxnSink : public oo7::UpdateSink {
 public:
  TxnSink(lbc::Transaction* txn, rvm::RegionId region, Calls* calls)
      : txn_(txn), region_(region), calls_(calls) {}
  base::Status SetRange(uint64_t offset, uint64_t len) override {
    ScopedSpan span(Op::kSetRange);
    base::Status st = txn_->SetRange(region_, offset, len);
    calls_->Track(st);
    return st;
  }

 private:
  lbc::Transaction* txn_;
  rvm::RegionId region_;
  Calls* calls_;
};

// The paper-scale OO7 image in one region under one lock, mapped by four
// nodes; node 1 runs the traversal, one transaction each, and waits until
// the three peers have applied it. Disk logging is off, as in the paper's §4.
void Oo7Round(const RoundSpec& spec, oo7::Variant variant, int txns, RunResult* out) {
  constexpr rvm::RegionId kRegion = 1;
  constexpr rvm::LockId kLock = 1;
  constexpr int kNodes = 4;
  const uint64_t setup_start = NowNanos();
  auto rig = std::make_unique<Rig>();
  oo7::Config config;
  config.seed = Mix(spec.seed, 0x007);
  const uint64_t size = oo7::Database::RequiredSize(config);
  std::vector<uint8_t> image(size, 0);
  if (!out->calls.Track(oo7::Database::Build(image.data(), size, config)) ||
      !WriteDurable(&rig->mem, rvm::RegionFileName(kRegion), image)) {
    out->errors.push_back("could not build the OO7 database");
    return;
  }
  rig->device.InjectLatency("", kDeviceLatencyNanos);
  rig->cluster.DefineLock(kLock, kRegion, /*manager=*/1);
  for (int i = 0; i < kNodes; ++i) {
    lbc::ClientOptions options;
    options.rvm.disk_logging = false;
    auto client = lbc::Client::Create(&rig->cluster, static_cast<rvm::NodeId>(i + 1), options);
    if (!out->calls.Track(client.status()) ||
        !out->calls.Track((*client)->MapRegion(kRegion, size).status())) {
      return;
    }
    rig->clients.push_back(std::move(*client));
  }
  out->setup_s.push_back(SecondsSince(setup_start));

  lbc::Client* writer = rig->clients[0].get();
  std::vector<lbc::Client*> nodes;
  for (auto& c : rig->clients) {
    nodes.push_back(c.get());
  }
  const std::vector<lbc::Client*> peers(nodes.begin() + 1, nodes.end());
  const oo7::Database db(writer->GetRegion(kRegion)->data());

  TxnSpec traversal;
  traversal.self = writer;
  traversal.peers = peers;
  traversal.lock = kLock;
  traversal.body = [&db, variant](lbc::Transaction& txn, ThreadOut* t, bool* updated) {
    TxnSink sink(&txn, kRegion, &t->calls);
    oo7::TraversalResult result;
    {
      ScopedSpan span(Op::kTraverse);
      result = oo7::RunT2(db, sink, variant);
    }
    if (!t->calls.Track(result.status)) {
      t->errors.push_back("OO7 traversal failed: " + result.status.ToString());
      return false;
    }
    *updated = result.updates > 0;
    return true;
  };

  ResetStats(*rig);
  const StoreCounts store_before = rig->timed.counts();
  const uint64_t phase_start = NowNanos();
  ThreadOut t;
  for (int i = 0; i < txns; ++i) {
    AwaitPeers(traversal, RunTxn(traversal, /*own_root=*/true, &t), &t);
  }
  out->txn_phase_s += SecondsSince(phase_start);
  AddStats(*rig, store_before, out);
  Merge(t, out);
  EndWindow(out);
  CheckCoherent(nodes, "after the traversals", out);

  // Nothing is logged, so the recovered database is the image as built.
  const Images expect = {{kRegion, image}};
  for (int i = 0; i < kOo7RestartsPerRound; ++i) {
    RestartCycle(*rig, expect, traversal, NewCycleRoot(), out);
  }
  CheckCoherent(nodes, "after the restarts", out);
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"hot-records", "restart", "oo7-sparse", "oo7-dense"};
}

void RunRound(const std::string& workload, const RoundSpec& spec, RunResult* out) {
  if (workload == "hot-records") {
    HotRecordsRound(spec, out);
  } else if (workload == "restart") {
    RestartRound(spec, out);
  } else if (workload == "oo7-sparse") {
    Oo7Round(spec, oo7::Variant::kA, kOo7SparseTxnsPerRound, out);
  } else if (workload == "oo7-dense") {
    Oo7Round(spec, oo7::Variant::kB, kOo7DenseTxnsPerRound, out);
  }
}

}  // namespace perfbench
