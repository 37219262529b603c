// The durability hook of a tablet (DESIGN.md Section 13).
//
// A tablet with a journal records every state change it makes, right after
// making it in memory: the versions it applies (accepted Puts and Deletes,
// and replicated versions), the high timestamp a replication heartbeat moved
// it to, and the tablet-map config its node accepted. How a record becomes
// durable is the journal's
// business (the WAL and checkpoints of src/persist); the tablet only sees a
// Status. A tablet without a journal is in-memory.

#ifndef PILEUS_SRC_STORAGE_TABLET_JOURNAL_H_
#define PILEUS_SRC_STORAGE_TABLET_JOURNAL_H_

#include "src/common/status.h"
#include "src/proto/messages.h"
#include "src/reconfig/config_epoch.h"
#include "src/storage/shared_version.h"

namespace pileus::storage {

class Tablet;

class TabletJournal {
 public:
  virtual ~TabletJournal() = default;

  // `tablet` has applied `version`. It is passed so the journal may
  // checkpoint it.
  virtual Status RecordVersion(Tablet& tablet, const VersionPtr& version) = 0;

  // A replication heartbeat advanced `tablet`'s high timestamp.
  virtual Status RecordHeartbeat(Tablet& tablet) = 0;

  // The tablet's node accepted a tablet map whose entry for this tablet
  // carries `config`; recovery hands the last one back so a driver can
  // re-install it fenced.
  virtual Status RecordConfig(const reconfig::ConfigEpoch& config) = 0;

  // Forces everything recorded so far to stable storage.
  virtual Status Sync() = 0;

  // Makes `tablet`'s whole state durable on its own, so recovery need not
  // replay what was recorded before (a shutdown's last act).
  virtual Status Checkpoint(Tablet& tablet) = 0;
};

}  // namespace pileus::storage

#endif  // PILEUS_SRC_STORAGE_TABLET_JOURNAL_H_
