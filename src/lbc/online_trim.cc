#include "src/lbc/online_trim.h"

#include <map>
#include <string>

#include "src/rvm/recovery.h"

namespace lbc {

base::Status OnlineTrim(Cluster* cluster, Client* coordinator,
                        const std::vector<Client*>& clients) {
  // 1. Quiesce: take every segment lock in one transaction.
  Transaction txn = coordinator->Begin(rvm::RestoreMode::kNoRestore);
  const std::vector<rvm::LockId> locks = cluster->AllLocks();
  for (rvm::LockId lock : locks) {
    RETURN_IF_ERROR(txn.Acquire(lock));
  }

  // 2. Force every node's committed records to the storage service.
  std::vector<std::string> log_names;
  for (Client* client : clients) {
    RETURN_IF_ERROR(client->rvm()->FlushLog());
    log_names.push_back(rvm::LogFileName(client->node()));
  }

  // 3. Merge by lock records, replay into the database files, and record
  //    the per-lock baselines future joiners will adopt.
  RETURN_IF_ERROR(cluster->ReplayAndRecordBaselines(log_names));

  // 4. The cut: every locked record at or below these is in the database
  //    files now.
  std::map<rvm::LockId, uint64_t> baselines;
  for (rvm::LockId lock : locks) {
    baselines[lock] = cluster->BaselineSeq(lock);
  }

  // 5. Release the locks first (read-only commit: no sequence numbers
  //    consumed), so writers resume while the logs are trimmed.
  RETURN_IF_ERROR(txn.Commit());

  // 6. Trim every log below the cut. Commits made after the release carry
  //    sequence numbers above it and lock-free records are never covered,
  //    so the trim keeps both.
  for (Client* client : clients) {
    RETURN_IF_ERROR(client->rvm()->TrimLogWithBaselines(baselines));
  }
  return base::OkStatus();
}

}  // namespace lbc
