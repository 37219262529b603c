// A tablet with crash recovery: WAL + checkpoints.
//
// A durable tablet is a storage::Tablet whose journal (tablet_journal.h) is
// a write-ahead log plus periodic checkpoints in the tablet's directory.
// Every state change (accepted Put or Delete, replicated version,
// replication heartbeat, installed config) is appended to the WAL
// before it is acknowledged, and the whole store is periodically
// checkpointed so the log stays short. Reopening the same directory
// reconstructs the tablet exactly: contents, high timestamp, range, and a
// timestamp allocator that never re-issues an update timestamp.
//
// DurableTablet is the handle Open returns. It shares ownership of the
// journaled tablet, so a StorageNode can host the same tablet
// (AddTablet(table, shared_tablet())) and serve it like any other.
//
// Layout inside the tablet directory:
//   checkpoint.db - latest durable snapshot (atomic rename on update)
//   wal.log       - records since that snapshot
// A durable node's data root is the directory of its one tablet.

#ifndef PILEUS_SRC_PERSIST_DURABLE_TABLET_H_
#define PILEUS_SRC_PERSIST_DURABLE_TABLET_H_

#include <memory>
#include <optional>
#include <string>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/persist/wal.h"
#include "src/storage/tablet.h"

namespace pileus::persist {

class WalJournal;

class DurableTablet {
 public:
  struct Options {
    std::string directory;  // Must exist.
    storage::Tablet::Options tablet;
    // fdatasync after every append (true = no acked write is ever lost;
    // false = group commit via periodic Checkpoint()/Sync()).
    bool sync_every_append = false;
    // Auto-checkpoint once the WAL exceeds this many bytes (0 = never).
    uint64_t checkpoint_threshold_bytes = 8 * 1024 * 1024;
  };

  // Tombstones older than this are garbage-collected at checkpoint time.
  // Must exceed the deployment's maximum replication lag; a replica that has
  // not synced past a collected tombstone would keep the stale live value
  // forever.
  static constexpr MicrosecondCount kTombstoneGcHorizonUs =
      SecondsToMicroseconds(86400);

  struct RecoveryInfo {
    uint64_t checkpoint_versions = 0;
    uint64_t wal_versions = 0;
    uint64_t wal_heartbeats = 0;
    bool wal_tail_torn = false;
    // The last journaled config (a tablet-map install the node accepted),
    // for a driver to re-install fenced.
    std::optional<reconfig::ConfigEpoch> config;
  };

  // Opens (or creates) the durable tablet, replaying any existing state. A
  // WAL record of a kind this build does not write (such as the retired
  // split record, kind 4) fails with kCorruption.
  static Result<std::unique_ptr<DurableTablet>> Open(Options options,
                                                     Clock* clock);

  Result<proto::PutReply> HandlePut(std::string_view key,
                                    std::string_view value) {
    return tablet_->HandlePut(key, value);
  }
  proto::GetReply HandleGet(std::string_view key) const {
    return tablet_->HandleGet(key);
  }

  // Forces the WAL to stable storage.
  Status Sync();

  // Writes a fresh snapshot (atomically) and empties the WAL.
  Status Checkpoint();

  storage::Tablet& tablet() { return *tablet_; }
  const storage::Tablet& tablet() const { return *tablet_; }
  const std::shared_ptr<storage::Tablet>& shared_tablet() const {
    return tablet_;
  }
  const WriteAheadLog& wal() const;
  const RecoveryInfo& recovery_info() const { return recovery_; }

 private:
  DurableTablet(std::shared_ptr<storage::Tablet> tablet, WalJournal* journal,
                RecoveryInfo recovery)
      : tablet_(std::move(tablet)),
        journal_(journal),
        recovery_(std::move(recovery)) {}

  std::shared_ptr<storage::Tablet> tablet_;
  WalJournal* journal_;  // Owned by *tablet_.
  RecoveryInfo recovery_;
};

}  // namespace pileus::persist

#endif  // PILEUS_SRC_PERSIST_DURABLE_TABLET_H_
