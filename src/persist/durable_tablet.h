// A tablet with crash recovery: WAL + checkpoints.
//
// A durable tablet is a storage::Tablet whose journal (tablet_journal.h) is
// a write-ahead log plus periodic checkpoints in the tablet's directory.
// Every state change (accepted Put, Delete or commit, replicated version,
// replication heartbeat, installed config, split) is appended to the WAL
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
//   child-<n>/    - the upper half split off by this tablet's n-th split,
//                   itself a durable tablet directory
//   retired       - present once the tablet's node gave it up (migrated
//                   away, or a migration to it rolled back)
// A node's data root is the directory of its first tablet; each tablet the
// node creates later gets tablet-<n>/ (n = 1, 2, ...) beside it.

#ifndef PILEUS_SRC_PERSIST_DURABLE_TABLET_H_
#define PILEUS_SRC_PERSIST_DURABLE_TABLET_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/persist/wal.h"
#include "src/storage/storage_node.h"
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
    // Split records replayed from the WAL, in log order. Each shrank this
    // tablet to [begin, key); the data at or above the key lives in
    // child-<n> (n = the record's position), whose checkpoint was made
    // durable before the record was written.
    std::vector<std::string> split_keys;
    // The last journaled config (a tablet-map install the node accepted),
    // for a driver to re-install fenced.
    std::optional<reconfig::ConfigEpoch> config;
  };

  // Opens (or creates) the durable tablet, replaying any existing state.
  static Result<std::unique_ptr<DurableTablet>> Open(Options options,
                                                     Clock* clock);

  // A durable node's tablet factory: each tablet it makes is new, in the
  // first directory of the data root `options.directory` that holds none,
  // with a first checkpoint that records its range.
  static storage::StorageNode::TabletFactory Factory(Options options,
                                                     Clock* clock);

  // Opens every tablet of the data root `options.directory`: its own, each
  // tablet-<n>, and recursively every split child their WALs record, but
  // no retired one. All inherit `options` but take their range from their
  // checkpoint when it records one.
  static Result<std::vector<std::unique_ptr<DurableTablet>>> OpenAll(
      Options options, Clock* clock);

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
