// A tablet: one key-range partition of a table, hosted on one storage node.
//
// Tablets are the unit of replication (paper Section 4.2). A tablet is either
// the primary copy — it accepts Puts, strictly orders them by assigning
// update timestamps, and feeds the replication log — or a secondary copy that
// applies pulled updates in timestamp order and advances its high timestamp.
// A tablet can also be a synchronous replica (the Section 6.4 extension):
// Puts are applied to it before the client is acked, so it is authoritative
// for strong reads like the primary.
//
// A tablet may carry a journal (tablet_journal.h) that records each state
// change after it is made; durable tablets are journaled ones.

#ifndef PILEUS_SRC_STORAGE_TABLET_H_
#define PILEUS_SRC_STORAGE_TABLET_H_

#include <memory>
#include <string>
#include <string_view>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/timestamp.h"
#include "src/proto/messages.h"
#include "src/storage/tablet_journal.h"
#include "src/storage/update_log.h"
#include "src/storage/versioned_store.h"
#include "src/util/key_range.h"

namespace pileus::storage {

class Tablet {
 public:
  struct Options {
    KeyRange range = KeyRange::All();
    bool is_primary = false;
    // Synchronously updated replica: authoritative for strong reads
    // (Section 6.4 multi-site Puts). Implies nothing about Put acceptance;
    // Puts still enter through the primary, which forwards synchronously.
    bool is_sync_replica = false;
  };

  Tablet(Options options, Clock* clock);

  const KeyRange& range() const { return options_.range; }
  bool is_primary() const { return options_.is_primary; }
  bool is_sync_replica() const { return options_.is_sync_replica; }
  bool authoritative() const {
    return options_.is_primary || options_.is_sync_replica;
  }
  const Timestamp& high_timestamp() const { return high_timestamp_; }
  Clock* clock() const { return clock_; }
  const VersionedStore& store() const { return store_; }
  UpdateLog& update_log() { return update_log_; }
  const UpdateLog& update_log() const { return update_log_; }

  // Reconfiguration (Section 6.2): promote/demote this copy. Promotion seeds
  // the timestamp allocator above everything already seen so update
  // timestamps stay strictly increasing across the role change.
  void SetPrimary(bool is_primary);
  void SetSyncReplica(bool is_sync) { options_.is_sync_replica = is_sync; }

  // Durability: every state change from now on is recorded in `journal`.
  // Attach after recovery replay, so replay is never journaled again.
  void AttachJournal(std::unique_ptr<TabletJournal> journal) {
    journal_ = std::move(journal);
  }
  // Null for an in-memory tablet.
  TabletJournal* journal() const { return journal_.get(); }

  // Retained user bytes (the tablet-map reply's advisory size).
  uint64_t ApproximateBytes() const { return store_.ApproximateBytes(); }

  // --- Request handlers (storage nodes know nothing about SLAs) ---

  proto::GetReply HandleGet(std::string_view key) const;

  // Range scan within this tablet's key range; the reply's high timestamp
  // bounds the staleness of the whole result. Its items are the store's own
  // immutable versions, so the reply may be encoded after the node lock is
  // released.
  proto::RangeReply HandleRange(std::string_view begin, std::string_view end,
                                uint32_t limit) const;

  // Primary only: assigns the update timestamp and applies the write.
  Result<proto::PutReply> HandlePut(std::string_view key,
                                    std::string_view value);

  // Primary only: deletes `key` by writing a tombstone. A delete is a write:
  // it gets an update timestamp, replicates in order, and counts toward the
  // session's read-my-writes state.
  Result<proto::PutReply> HandleDelete(std::string_view key);

  // Serves a replication pull. The heartbeat field lets an idle primary
  // advance its secondaries' high timestamps (Section 4.3).
  proto::SyncReply HandleSync(const Timestamp& after,
                              uint32_t max_versions) const;

  // Secondary side of replication: applies versions in order, then advances
  // the high timestamp to the heartbeat. Fails only when the journal does.
  Status ApplySync(const proto::SyncReply& reply);

  // Applies one already-timestamped write (synchronous replication fan-out,
  // recovery replay).
  Status ApplyReplicatedPut(proto::ObjectVersion version);

  // Drops update-log entries at or below `up_to`, bounding node memory for
  // long-running deployments. Replication pulls from before the compaction
  // point transparently fall back to a full-state transfer (HandleSync).
  void CompactLog(const Timestamp& up_to) {
    update_log_.TruncateThrough(up_to);
  }

  // Garbage-collects tombstones older than `horizon`; see
  // VersionedStore::CollectTombstones for the safety requirement.
  size_t CollectTombstones(const Timestamp& horizon) {
    return store_.CollectTombstones(horizon);
  }

 private:
  // Strictly increasing update timestamps (Section 4.2): physical time from
  // the clock, sequence number for same-microsecond Puts.
  Timestamp AllocateTimestamp();

  // High timestamp a primary advertises in sync replies when it has sent
  // every logged update: anything later will carry a strictly larger
  // timestamp.
  Timestamp CurrentHeartbeat() const;

  // Journals a version this tablet just applied (no-op when in-memory).
  Status Record(const VersionPtr& version) {
    return journal_ == nullptr ? Status::Ok()
                               : journal_->RecordVersion(*this, version);
  }

  Options options_;
  Clock* clock_;  // Not owned.
  VersionedStore store_;
  UpdateLog update_log_;
  Timestamp high_timestamp_ = Timestamp::Zero();
  Timestamp last_assigned_ = Timestamp::Zero();
  std::unique_ptr<TabletJournal> journal_;
};

}  // namespace pileus::storage

#endif  // PILEUS_SRC_STORAGE_TABLET_H_
