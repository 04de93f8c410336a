// Online log trimming (§3.5).
//
// The prototype trimmed logs offline (merge + replay + truncate with all
// clients stopped). The paper sketches an online variant: coordinate a
// checkpoint so that logs can be trimmed while the system stays up. This
// implements that sketch with the protocol's own machinery:
//
//   1. a coordinator client acquires EVERY segment lock inside one
//      transaction (strict 2PL quiesces all locked writers: no locked
//      record can commit until the release);
//   2. every client flushes its redo log to the storage service;
//   3. the logs are merged by lock records and replayed into the permanent
//      database files (the standard recovery procedure), which records the
//      per-lock baselines;
//   4. the baselines are read: they are the checkpoint's cut;
//   5. the coordinator commits its (read-only) transaction, releasing the
//      locks; writers resume at once;
//   6. every client trims its log with Rvm::TrimLogWithBaselines, dropping
//      only the records the cut covers. Records committed after the release
//      carry higher sequence numbers, and lock-free records (which the
//      locks never quiesced) are never covered, so both are kept.
//
// Unlike lbc::CheckpointFromStandby, this needs no standby node mapping
// every region; it briefly stops locked writers instead.
//
// The coordinator must map every region that has a defined lock (locks can
// only be acquired over mapped regions).
#ifndef SRC_LBC_ONLINE_TRIM_H_
#define SRC_LBC_ONLINE_TRIM_H_

#include <vector>

#include "src/base/status.h"
#include "src/lbc/client.h"

namespace lbc {

base::Status OnlineTrim(Cluster* cluster, Client* coordinator,
                        const std::vector<Client*>& clients);

}  // namespace lbc

#endif  // SRC_LBC_ONLINE_TRIM_H_
