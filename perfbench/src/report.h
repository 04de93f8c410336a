// Turns a run's samples, counters and spans into named metrics, and prints
// them: a table for people, then the one-line JSON result.
#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // measurements the value summarizes
};

// Linear interpolation between order statistics; 0 for no samples.
double Quantile(std::vector<double> values, double q);

// The untraced run's end-to-end metrics.
std::vector<Metric> EndToEndMetrics(const RunResult& run);

// The traced run's per-layer metrics: counters from the library's stats
// snapshots, timings and self-time attribution from the spans.
std::vector<Metric> PerLayerMetrics(const RunResult& run, const std::vector<ThreadSpans>& spans);

void PrintTable(const std::vector<Metric>& metrics);

std::string ResultJson(bool correct, const Calls& calls, const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
