#include "perfbench/src/report.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {
namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return Ratio(sum, static_cast<double>(v.size()));
}

double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Where a transaction's self time goes: the lbc calls split by kind, then
// one bucket per other layer, then the transaction's own (unattributed) time.
enum Bucket { kAcquire, kCommit, kLbcOther, kRvm, kStore, kOo7, kUnattributed, kBuckets };
constexpr std::array<const char*, kBuckets> kBucketNames = {
    "lbc_acquire", "lbc_commit", "lbc_other", "rvm", "store", "oo7", "unattributed"};

Bucket BucketOf(Op op) {
  switch (op) {
    case Op::kAcquire: return kAcquire;
    case Op::kCommit: return kCommit;
    default: break;
  }
  switch (LayerOf(op)) {
    case Layer::kRvm: return kRvm;
    case Layer::kStore: return kStore;
    case Layer::kOo7: return kOo7;
    case Layer::kRoot: return kUnattributed;
    default: return kLbcOther;
  }
}

struct TxnBreakdown {
  double dur_us = 0;
  std::array<double, kBuckets> self_us = {};
};

// The ops whose per-call durations feed a percentile or a mean; the rest
// (SetRange runs to millions of calls) keep only totals.
bool KeepsDurations(Op op) {
  return op == Op::kAcquire || op == Op::kCommit || op == Op::kCheckpoint ||
         op == Op::kRestart || op == Op::kDrain;
}

// Per-op durations and self times, and the per-transaction breakdown.
struct SpanSummary {
  std::map<Op, std::vector<double>> durations_us;  // one entry per call
  std::map<Op, double> total_us;
  std::map<Op, double> self_us;
  std::map<Op, uint64_t> calls;
  std::map<uint64_t, double> wait_visible_by_root_us;
  std::vector<TxnBreakdown> txns;
};

SpanSummary Summarize(const std::vector<ThreadSpans>& threads) {
  SpanSummary s;
  for (const ThreadSpans& t : threads) {
    const size_t n = t.spans.size();
    std::vector<uint64_t> child_ns(n, 0);
    std::vector<size_t> top(n, 0);
    for (size_t i = 0; i < n; ++i) {
      const Span& span = t.spans[i];
      if (span.parent != 0) {
        child_ns[span.parent - 1] += span.dur_ns;
        top[i] = top[span.parent - 1];
      } else {
        top[i] = i;
      }
    }
    std::map<size_t, TxnBreakdown> txns;  // keyed by the kTxn span's index
    for (size_t i = 0; i < n; ++i) {
      const Span& span = t.spans[i];
      const double dur_us = static_cast<double>(span.dur_ns) / 1e3;
      const double self_us =
          static_cast<double>(span.dur_ns - std::min(child_ns[i], span.dur_ns)) / 1e3;
      if (KeepsDurations(span.op)) {
        std::vector<double>& durs = s.durations_us[span.op];
        durs.insert(durs.end(), span.count, dur_us / span.count);
      }
      s.total_us[span.op] += dur_us;
      s.self_us[span.op] += self_us;
      s.calls[span.op] += span.count;
      if (span.op == Op::kWaitVisible) {
        s.wait_visible_by_root_us[span.root] += dur_us;
      }
      if (t.spans[top[i]].op == Op::kTxn) {
        TxnBreakdown& txn = txns[top[i]];
        if (i == top[i]) {
          txn.dur_us = dur_us;
        }
        txn.self_us[BucketOf(span.op)] += self_us;
      }
    }
    for (auto& [index, txn] : txns) {
      s.txns.push_back(txn);
    }
  }
  return s;
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<Metric> EndToEndMetrics(const RunResult& run) {
  const LayerCounts& c = run.counts;
  // Bytes of log record per byte the application modified: the framed
  // durable log where disk logging is on, else the per-peer update message,
  // which carries the same committed log tail over the wire.
  const double log_bytes =
      c.log_bytes > 0 ? static_cast<double>(c.log_bytes)
                      : Ratio(static_cast<double>(c.update_bytes_sent),
                              static_cast<double>(c.updates_sent)) *
                            static_cast<double>(c.update_txns);
  const uint64_t txn_n = run.txn_us.size();
  const uint64_t prop_n = run.propagation_us.size();
  // Median over windows of the per-window p99; the pooled p99 when the run
  // was too short to close a window.
  auto p99 = [](const std::vector<double>& windows, const std::vector<double>& pooled) {
    return windows.empty() ? Quantile(pooled, 0.99) : Quantile(windows, 0.5);
  };
  return {
      {"setup_s", Quantile(run.setup_s, 0.5), "s", run.setup_s.size()},
      {"txn_per_s", Ratio(static_cast<double>(c.txns), run.txn_phase_s), "1/s", c.txns},
      {"txn_p50_us", Quantile(run.txn_us, 0.5), "us", txn_n},
      {"txn_p99_us", p99(run.txn_p99_windows, run.txn_us), "us", txn_n},
      {"propagation_p50_us", Quantile(run.propagation_us, 0.5), "us", prop_n},
      {"propagation_p99_us", p99(run.propagation_p99_windows, run.propagation_us), "us",
       prop_n},
      {"ttfc_ms", Quantile(run.ttfc_ms, 0.5), "ms", run.ttfc_ms.size()},
      {"recovered_ms", Quantile(run.recovered_ms, 0.5), "ms", run.recovered_ms.size()},
      {"ok_ratio",
       Ratio(static_cast<double>(run.calls.attempted - run.calls.failed),
             static_cast<double>(run.calls.attempted)),
       "ratio", run.calls.attempted},
      {"log_bytes_per_user_byte", Ratio(log_bytes, static_cast<double>(c.user_bytes)), "ratio",
       c.update_txns},
      {"peak_rss_mb", PeakRssMb(), "MB", 1},
  };
}

std::vector<Metric> PerLayerMetrics(const RunResult& run, const std::vector<ThreadSpans>& spans) {
  const LayerCounts& c = run.counts;
  const SpanSummary s = Summarize(spans);
  const double txns = static_cast<double>(c.txns);
  const double traced_txns = static_cast<double>(s.txns.size());
  auto durs = [&](Op op) -> std::vector<double> {
    auto it = s.durations_us.find(op);
    return it == s.durations_us.end() ? std::vector<double>{} : it->second;
  };
  auto calls = [&](Op op) -> double {
    auto it = s.calls.find(op);
    return it == s.calls.end() ? 0 : static_cast<double>(it->second);
  };
  auto total_us = [&](Op op) -> double {
    auto it = s.total_us.find(op);
    return it == s.total_us.end() ? 0 : it->second;
  };
  auto self_us = [&](Op op) -> double {
    auto it = s.self_us.find(op);
    return it == s.self_us.end() ? 0 : it->second;
  };
  const uint64_t n_acq = durs(Op::kAcquire).size();
  const uint64_t n_commit = durs(Op::kCommit).size();
  const uint64_t n_restart = durs(Op::kRestart).size();
  std::vector<double> wait_visible;
  for (const auto& [root, us] : s.wait_visible_by_root_us) {
    wait_visible.push_back(us);
  }
  uint64_t syncs = c.txn_store.syncs + c.restart_store.syncs;
  double final_log = 0;
  for (uint64_t b : c.final_log_bytes) {
    final_log += static_cast<double>(b);
  }

  std::vector<Metric> m = {
      // lbc
      {"lbc.acquire_p50_us", Quantile(durs(Op::kAcquire), 0.5), "us", n_acq},
      {"lbc.acquire_p99_us", Quantile(durs(Op::kAcquire), 0.99), "us", n_acq},
      {"lbc.interlock_wait_ratio",
       Ratio(static_cast<double>(c.acquire_waits), static_cast<double>(c.acquires)), "ratio",
       c.acquires},
      {"lbc.lock_msgs_per_txn", Ratio(static_cast<double>(c.lock_messages), txns), "count",
       c.txns},
      {"lbc.commit_p50_us", Quantile(durs(Op::kCommit), 0.5), "us", n_commit},
      {"lbc.commit_p99_us", Quantile(durs(Op::kCommit), 0.99), "us", n_commit},
      {"lbc.update_bytes_per_txn", Ratio(static_cast<double>(c.update_bytes_sent), txns),
       "bytes", c.txns},
      {"lbc.wait_visible_us", Mean(wait_visible), "us", wait_visible.size()},
      {"lbc.updates_held_ratio",
       Ratio(static_cast<double>(c.updates_held), static_cast<double>(c.updates_received)),
       "ratio", c.updates_received},
      {"lbc.checkpoint_ms", Mean(durs(Op::kCheckpoint)) / 1e3, "ms",
       durs(Op::kCheckpoint).size()},
      {"lbc.restart_ms", Mean(durs(Op::kRestart)) / 1e3, "ms", n_restart},
      {"lbc.rejoin_ms", Ratio(total_us(Op::kRejoin), static_cast<double>(n_restart)) / 1e3, "ms",
       n_restart},
      {"lbc.drain_ms", Mean(durs(Op::kDrain)) / 1e3, "ms", durs(Op::kDrain).size()},
      // rvm
      {"rvm.setrange_ns", Ratio(total_us(Op::kSetRange), calls(Op::kSetRange)) * 1e3, "ns",
       static_cast<uint64_t>(calls(Op::kSetRange))},
      {"rvm.setrange_dup_ratio",
       Ratio(static_cast<double>(c.set_range_duplicates), static_cast<double>(c.set_range_calls)),
       "ratio", c.set_range_calls},
      {"rvm.collect_us_per_txn", Ratio(static_cast<double>(c.collect_nanos), txns) / 1e3, "us",
       c.txns},
      {"rvm.apply_us_per_txn",
       Ratio(static_cast<double>(c.apply_nanos), static_cast<double>(c.update_txns)) / 1e3, "us",
       c.update_txns},
      {"rvm.disk_us_per_txn", Ratio(static_cast<double>(c.disk_nanos), txns) / 1e3, "us",
       c.txns},
      {"rvm.batch_txns_mean",
       Ratio(static_cast<double>(c.commit_batch_txns), static_cast<double>(c.commit_batches)),
       "count", c.commit_batches},
      {"rvm.fsyncs_saved_ratio",
       Ratio(static_cast<double>(c.fsyncs_saved), static_cast<double>(c.commit_batch_txns)),
       "ratio", c.commit_batch_txns},
      {"rvm.log_bytes_per_txn", Ratio(static_cast<double>(c.log_bytes), txns), "bytes", c.txns},
      {"rvm.final_log_bytes_per_node",
       Ratio(final_log, static_cast<double>(c.final_log_bytes.size())), "bytes",
       c.final_log_bytes.size()},
      // store
      {"store.ops_per_txn", Ratio(static_cast<double>(c.txn_store.ops), txns), "count", c.txns},
      {"store.syncs_per_txn", Ratio(static_cast<double>(c.txn_store.syncs), txns), "count",
       c.txns},
      {"store.sync_us",
       Ratio(static_cast<double>(c.txn_store.sync_nanos + c.restart_store.sync_nanos),
             static_cast<double>(syncs)) /
           1e3,
       "us", syncs},
      {"store.ops_per_restart",
       Ratio(static_cast<double>(c.restart_store.ops), static_cast<double>(c.restarts)), "count",
       c.restarts},
      // netsim
      {"netsim.msgs_per_txn", Ratio(static_cast<double>(c.messages_sent), txns), "count",
       c.txns},
      {"netsim.bytes_per_txn", Ratio(static_cast<double>(c.bytes_sent), txns), "bytes", c.txns},
      {"netsim.send_us_per_txn", Ratio(static_cast<double>(c.send_nanos), txns) / 1e3, "us",
       c.txns},
      // oo7
      {"oo7.traverse_self_us", Ratio(self_us(Op::kTraverse), traced_txns), "us",
       static_cast<uint64_t>(calls(Op::kTraverse))},
  };

  // Self time per layer, over every traced transaction and over the slowest
  // 1% of them (the p99 contribution).
  std::vector<double> txn_durs;
  for (const TxnBreakdown& t : s.txns) {
    txn_durs.push_back(t.dur_us);
  }
  const double p99 = Quantile(txn_durs, 0.99);
  std::array<double, kBuckets> all = {};
  std::array<double, kBuckets> tail = {};
  uint64_t tail_n = 0;
  double tail_dur = 0;
  for (const TxnBreakdown& t : s.txns) {
    const bool in_tail = t.dur_us >= p99;
    tail_n += in_tail ? 1 : 0;
    tail_dur += in_tail ? t.dur_us : 0;
    for (int b = 0; b < kBuckets; ++b) {
      all[b] += t.self_us[b];
      tail[b] += in_tail ? t.self_us[b] : 0;
    }
  }
  const uint64_t n_txn = s.txns.size();
  m.push_back({"unattributed_us", Ratio(all[kUnattributed], traced_txns), "us", n_txn});
  for (int b = 0; b < kBuckets; ++b) {
    if (b != kUnattributed) {
      m.push_back({std::string("self.") + kBucketNames[b] + "_us", Ratio(all[b], traced_txns),
                   "us", n_txn});
    }
  }
  m.push_back({"p99tail.txn_us", Ratio(tail_dur, static_cast<double>(tail_n)), "us", tail_n});
  for (int b = 0; b < kBuckets; ++b) {
    m.push_back({std::string("p99tail.") + kBucketNames[b] + "_us",
                 Ratio(tail[b], static_cast<double>(tail_n)), "us", tail_n});
  }
  // Tracing overhead: traced rounds against the untraced rounds of the
  // same run.
  const double traced_p50 = Quantile(run.txn_us_traced, 0.5);
  const double untraced_p50 = Quantile(run.txn_us_untraced, 0.5);
  m.push_back({"trace.overhead_pct", (Ratio(traced_p50, untraced_p50) - 1) * 100, "%",
               run.txn_us_traced.size()});
  return m;
}

void PrintTable(const std::vector<Metric>& metrics) {
  std::printf("%-30s %16s %-6s %10s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-30s %16.4f %-6s %10llu\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
}

std::string ResultJson(bool correct, const Calls& calls, const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(std::max<uint64_t>(calls.attempted, 1)) +
                    ", \"failed\": " + std::to_string(calls.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

}  // namespace perfbench
