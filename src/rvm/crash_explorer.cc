#include "src/rvm/crash_explorer.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/obs/metrics.h"

namespace rvm {
namespace {

// Process-wide explorer instruments (crashx.*), exported with the usual
// BENCH_obs.json snapshot so sweeps leave an auditable coverage record.
struct ExplorerMetrics {
  obs::Counter* schedules_run;
  obs::Counter* torn_schedules_run;
  obs::Counter* nested_schedules_run;
  obs::Counter* ops_covered;
  obs::Counter* probes_run;
};

ExplorerMetrics* GlobalExplorerMetrics() {
  static ExplorerMetrics* metrics = [] {
    auto* reg = obs::MetricsRegistry::Global();
    auto* m = new ExplorerMetrics();
    m->schedules_run = reg->GetCounter("crashx.schedules_run");
    m->torn_schedules_run = reg->GetCounter("crashx.torn_schedules_run");
    m->nested_schedules_run = reg->GetCounter("crashx.nested_schedules_run");
    m->ops_covered = reg->GetCounter("crashx.ops_covered");
    m->probes_run = reg->GetCounter("crashx.probes_run");
    return m;
  }();
  return metrics;
}

base::Status WithScheduleContext(const base::Status& st, const char* sweep,
                                 uint64_t op_index, size_t torn_bytes,
                                 const char* stage) {
  return base::Status(st.code(),
                      std::string(sweep) + " schedule op=" + std::to_string(op_index) +
                          " torn=" + std::to_string(torn_bytes) + " [" + stage +
                          "]: " + st.message());
}

}  // namespace

CrashExplorer::CrashExplorer(CrashExplorerOptions options, StoreFn workload,
                             StoreFn recover, StoreFn verify)
    : options_(std::move(options)),
      workload_(std::move(workload)),
      recover_(std::move(recover)),
      verify_(std::move(verify)) {}

std::vector<CrashExplorer::Schedule> CrashExplorer::PlanSchedules(
    const std::vector<store::CrashOpKind>& kinds) {
  std::vector<Schedule> candidates;
  for (uint64_t i = 0; i < kinds.size(); ++i) {
    candidates.push_back({i, 0});
    if (store::IsWriteLikeOp(kinds[i])) {
      for (size_t torn : options_.torn_variants) {
        if (torn > 0) {
          candidates.push_back({i, torn});
        }
      }
    }
  }
  if (options_.budget == 0 || candidates.size() <= options_.budget) {
    return candidates;
  }
  // Sampled sweep: pin the clean first and last operation (boundary cases),
  // seeded-shuffle the rest, and keep what fits the budget.
  std::vector<Schedule> plan;
  plan.push_back(candidates.front());
  Schedule last = {kinds.empty() ? 0 : static_cast<uint64_t>(kinds.size() - 1), 0};
  plan.push_back(last);
  std::vector<Schedule> rest;
  for (const Schedule& s : candidates) {
    if ((s.op_index == plan[0].op_index && s.torn_bytes == plan[0].torn_bytes) ||
        (s.op_index == last.op_index && s.torn_bytes == last.torn_bytes)) {
      continue;
    }
    rest.push_back(s);
  }
  base::Rng rng(options_.seed);
  for (size_t i = rest.size(); i > 1; --i) {
    std::swap(rest[i - 1], rest[rng.Uniform(i)]);
  }
  size_t take = options_.budget > plan.size()
                    ? std::min(rest.size(), static_cast<size_t>(options_.budget) - plan.size())
                    : 0;
  plan.insert(plan.end(), rest.begin(), rest.begin() + take);
  return plan;
}

base::Result<std::map<std::string, std::vector<uint8_t>>> CrashExplorer::SnapshotStore(
    store::DurableStore* s) {
  std::map<std::string, std::vector<uint8_t>> snapshot;
  ASSIGN_OR_RETURN(auto names, s->List());
  for (const std::string& name : names) {
    ASSIGN_OR_RETURN(auto file, s->Open(name, /*create=*/false));
    ASSIGN_OR_RETURN(uint64_t size, file->Size());
    std::vector<uint8_t> data(size);
    if (size > 0) {
      RETURN_IF_ERROR(file->ReadExact(0, data.data(), data.size()));
    }
    snapshot.emplace(name, std::move(data));
  }
  return snapshot;
}

void CrashExplorer::Machine::PowerCut() {
  mem.Crash(0);
  LBC_CHECK_OK(quota.RescanUsage());  // a MemStore scan cannot fail
}

void CrashExplorer::ConfigureMachine(Machine* machine) {
  if (options_.configure_machine) {
    options_.configure_machine(&machine->quota);
  }
}

base::Status CrashExplorer::ExploreWorkloadCrashes(CrashExplorerReport* report) {
  // Pass 0 (clean): count the workload's mutating store ops and their kinds.
  Machine clean;
  ConfigureMachine(&clean);
  RETURN_IF_ERROR(workload_(&clean.cps));
  report->workload_ops = clean.cps.op_count();
  const std::vector<store::CrashOpKind> kinds = clean.cps.op_kinds();

  ExplorerMetrics* m = GlobalExplorerMetrics();
  std::set<uint64_t> ops_seen;
  for (const Schedule& s : PlanSchedules(kinds)) {
    Machine machine;
    ConfigureMachine(&machine);
    machine.cps.ArmCrashAtOp(s.op_index, s.torn_bytes);
    base::Status st = workload_(&machine.cps);
    if (!machine.cps.crashed()) {
      return base::Internal("workload never reached armed op " +
                            std::to_string(s.op_index) +
                            " (non-deterministic op sequence?)");
    }
    if (st.ok()) {
      return base::Internal("workload swallowed the injected crash at op " +
                            std::to_string(s.op_index));
    }
    machine.cps.Disarm();  // reboot
    st = recover_(&machine.cps);
    if (!st.ok()) {
      return WithScheduleContext(st, "workload-crash", s.op_index, s.torn_bytes,
                                 "recover");
    }
    st = verify_(&machine.cps);
    if (!st.ok()) {
      return WithScheduleContext(st, "workload-crash", s.op_index, s.torn_bytes,
                                 "verify");
    }
    ++report->schedules_run;
    m->schedules_run->Increment();
    if (s.torn_bytes > 0) {
      ++report->torn_schedules_run;
      m->torn_schedules_run->Increment();
    }
    if (ops_seen.insert(s.op_index).second) {
      m->ops_covered->Increment();
    }
  }
  return base::OkStatus();
}

base::Status CrashExplorer::ExploreRecoveryCrashes(CrashExplorerReport* report) {
  // Clean reference: full workload, machine crash, one recovery pass.
  Machine ref;
  ConfigureMachine(&ref);
  RETURN_IF_ERROR(workload_(&ref.cps));
  ref.PowerCut();
  ref.cps.ResetOpCount();
  RETURN_IF_ERROR(recover_(&ref.cps));
  report->recovery_ops = ref.cps.op_count();
  const std::vector<store::CrashOpKind> kinds = ref.cps.op_kinds();
  ASSIGN_OR_RETURN(auto reference, SnapshotStore(&ref.cps));

  ExplorerMetrics* m = GlobalExplorerMetrics();
  for (const Schedule& s : PlanSchedules(kinds)) {
    Machine machine;
    ConfigureMachine(&machine);
    RETURN_IF_ERROR(workload_(&machine.cps));
    machine.PowerCut();
    machine.cps.ResetOpCount();
    machine.cps.ArmCrashAtOp(s.op_index, s.torn_bytes);
    base::Status st = recover_(&machine.cps);
    if (!machine.cps.crashed()) {
      return base::Internal("recovery never reached armed op " +
                            std::to_string(s.op_index) +
                            " (non-deterministic recovery?)");
    }
    if (st.ok()) {
      return base::Internal("recovery swallowed the injected crash at op " +
                            std::to_string(s.op_index));
    }
    machine.cps.Disarm();  // second reboot
    if (options_.recovery_probe) {
      // The serving window: an incremental server is already up here, with
      // recovery only partially done. Probe it before the full re-recovery.
      st = options_.recovery_probe(&machine.cps);
      if (!st.ok()) {
        return WithScheduleContext(st, "recovery-crash", s.op_index, s.torn_bytes,
                                   "probe");
      }
      ++report->probes_run;
      m->probes_run->Increment();
    }
    st = recover_(&machine.cps);
    if (!st.ok()) {
      return WithScheduleContext(st, "recovery-crash", s.op_index, s.torn_bytes,
                                 "re-recover");
    }
    ASSIGN_OR_RETURN(auto got, SnapshotStore(&machine.cps));
    if (got != reference) {
      return base::Internal(
          WithScheduleContext(
              base::Internal("re-recovered store differs from clean single-pass "
                             "recovery (replay not idempotent)"),
              "recovery-crash", s.op_index, s.torn_bytes, "compare")
              .message());
    }
    ++report->nested_schedules_run;
    m->nested_schedules_run->Increment();
  }
  return base::OkStatus();
}

}  // namespace rvm
