// Ordered log of committed updates for one tablet.
//
// The replication protocol "reliably transmits objects in timestamp order"
// (paper Section 4.2), which gives every node a prefix of the Put sequence.
// The log is the source of those ordered transfers: secondaries pull every
// version with a timestamp above their high timestamp. The log can be
// truncated (checkpointing); scans that reach below the truncation point
// report it so the node can fall back to a full-state transfer from the
// versioned store.
//
// Entries are the same immutable objects the tablet's versioned store holds
// (shared_version.h), so logging a version costs a pointer, not a copy. An
// entry keeps its version alive after the store has replaced it with a newer
// one. Scan and Export copy, because what they return leaves the node.

#ifndef PILEUS_SRC_STORAGE_UPDATE_LOG_H_
#define PILEUS_SRC_STORAGE_UPDATE_LOG_H_

#include <cstddef>
#include <deque>
#include <vector>

#include "src/common/timestamp.h"
#include "src/proto/messages.h"
#include "src/storage/shared_version.h"

namespace pileus::storage {

class UpdateLog {
 public:
  // Appends a version; timestamps must be non-decreasing (a replica of two
  // tablets on one node may log several entries with one timestamp).
  void Append(VersionPtr version);

  struct ScanResult {
    std::vector<proto::ObjectVersion> versions;
    bool has_more = false;
    // False when `after` precedes the truncation point, i.e. the log can no
    // longer produce a contiguous sequence from `after`.
    bool contiguous = true;
  };

  // Versions with timestamp > after, ascending, at most `max_versions`
  // (0 = unlimited). Never splits a run of equal timestamps across the
  // `has_more` boundary: the receiver advances to the last timestamp it
  // gets, so the rest of a cut run would never be pulled. Two tablets on
  // one node can assign the same timestamp, and a replica of both logs the
  // run in one tablet.
  ScanResult Scan(const Timestamp& after, uint32_t max_versions) const;

  // Drops entries with timestamp <= up_to. Subsequent scans starting below
  // `up_to` report contiguous=false.
  void TruncateThrough(const Timestamp& up_to);

  // Copies the whole log (ascending timestamps) - the audit harness's
  // ground-truth commit order. When `contiguous` is non-null it is set to
  // false if truncation removed older entries, i.e. the copy is not the
  // complete committed history.
  std::vector<proto::ObjectVersion> Export(bool* contiguous = nullptr) const;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  // The newest entry; the log must not be empty.
  const VersionPtr& back() const { return entries_.back(); }
  // Timestamp of the newest update the log has covered: its newest entry,
  // or the truncation point when that is later (a checkpoint compacts the
  // whole log). Zero for a log that never held anything.
  Timestamp LastTimestamp() const;
  // Everything at or below this timestamp has been truncated away.
  const Timestamp& truncation_point() const { return truncated_through_; }

 private:
  std::deque<VersionPtr> entries_;
  Timestamp truncated_through_ = Timestamp::Zero();
};

}  // namespace pileus::storage

#endif  // PILEUS_SRC_STORAGE_UPDATE_LOG_H_
