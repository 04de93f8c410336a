// lbc_perfbench: runs one workload against the library's public API for a
// given time and prints its metrics.
//
//   lbc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-file <path>]
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced rounds, prints the per-layer metrics (the untraced rounds give
// the tracing overhead), and writes every span to --trace-file. The last
// line of standard output is the JSON result; the exit code is 1 when a
// correctness check failed and 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <string>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "perfbench/src/report.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "lbc_perfbench: %s\nusage: lbc_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>]\nworkloads:",
               why);
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_file;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::string(value) == "1";
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == workload;
  }
  if (!known) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  if (!(seconds > 0)) {
    return Usage("--seconds must be positive");
  }

  perfbench::RunResult run;
  const uint64_t start = perfbench::NowNanos();
  const uint64_t min_rounds = trace ? 2 : 1;
  uint64_t round = 0;
  do {
    perfbench::Tracer::SetEnabled(trace && round % 2 == 1);
    perfbench::RunRound(workload, {seed, round}, &run);
    perfbench::Tracer::SetEnabled(false);
#ifdef __GLIBC__
    // Hand the torn-down round's free memory back to the kernel, so every
    // round's set-up starts from the state a fresh process would, instead of
    // from whatever the allocator happened to keep from earlier rounds.
    malloc_trim(0);
#endif
    ++round;
  } while (run.errors.empty() &&
           (round < min_rounds ||
            static_cast<double>(perfbench::NowNanos() - start) / 1e9 < seconds));

  std::vector<perfbench::Metric> metrics;
  if (trace) {
    const std::vector<perfbench::ThreadSpans> spans = perfbench::Tracer::Collect();
    metrics = perfbench::PerLayerMetrics(run, spans);
    if (!trace_file.empty() && !perfbench::WriteSpans(spans, trace_file)) {
      std::fprintf(stderr, "could not write %s\n", trace_file.c_str());
    }
  } else {
    metrics = perfbench::EndToEndMetrics(run);
  }
  std::printf("workload %s, seed %llu, %llu rounds\n", workload.c_str(),
              static_cast<unsigned long long>(seed), static_cast<unsigned long long>(round));
  perfbench::PrintTable(metrics);
  if (run.calls.failed > 0) {
    std::fprintf(stderr, "%llu of %llu calls failed; first: %s\n",
                 static_cast<unsigned long long>(run.calls.failed),
                 static_cast<unsigned long long>(run.calls.attempted),
                 run.calls.first_error.c_str());
  }
  for (const std::string& error : run.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  const bool correct = run.errors.empty();
  std::printf("%s\n", perfbench::ResultJson(correct, run.calls, metrics).c_str());
  return correct ? 0 : 1;
}
