// In-memory object store for one tablet: the latest version of each key, as
// in the paper's prototype (Section 4.3). Versions arrive in non-decreasing
// timestamp order (primary ordering + in-order replication), and re-applying
// an already-known version is a harmless no-op so replication retries stay
// idempotent.
//
// The store holds shared immutable versions (shared_version.h): the tablet's
// update log points at the same objects, so a node keeps one copy of each
// version. Readers inside the node (checkpoint) and scan replies take
// the pointers without copying.

#ifndef PILEUS_SRC_STORAGE_VERSIONED_STORE_H_
#define PILEUS_SRC_STORAGE_VERSIONED_STORE_H_

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/timestamp.h"
#include "src/proto/messages.h"
#include "src/storage/shared_version.h"

namespace pileus::storage {

class VersionedStore {
 public:
  // Inserts a version. Returns false (and ignores the write) if a strictly
  // newer version of the key is already present — replication delivers in
  // timestamp order, so this only happens on duplicate delivery.
  bool Apply(VersionPtr version);

  // Latest version of `key`; null when the key is unknown.
  VersionPtr GetLatest(std::string_view key) const;

  // The latest versions with timestamp > after, in ascending timestamp
  // order (ties broken by key). The replication fallback when the update
  // log has been truncated, and the contents of a checkpoint.
  std::vector<VersionPtr> LatestVersionsAfter(const Timestamp& after) const;

  // Latest versions with keys in [begin, end) in ascending key order, at
  // most `limit` (0 = unlimited): the stored versions themselves, one reference
  // count each, no copy. Sets *truncated when the limit cut the scan short.
  proto::VersionList ScanRange(std::string_view begin, std::string_view end,
                               uint32_t limit, bool* truncated) const;

  // Drops keys whose latest version is a tombstone older than `horizon`.
  // Returns the number of keys collected. SAFETY: the horizon must exceed
  // the maximum replication lag - a replica that has not synced past the
  // tombstone when it is collected would keep (and serve) the stale live
  // value forever. Deployments tie this to the checkpoint cadence with a
  // generous margin (see DurableTablet::kTombstoneGcHorizonUs).
  size_t CollectTombstones(const Timestamp& horizon);

  size_t key_count() const { return versions_.size(); }

  // Retained user bytes (key + value of each key's version), maintained
  // incrementally so it is O(1) to read. Feeds the pileus_tablet_bytes
  // gauge.
  uint64_t ApproximateBytes() const { return bytes_; }

 private:
  std::map<std::string, VersionPtr, std::less<>> versions_;
  uint64_t bytes_ = 0;
};

}  // namespace pileus::storage

#endif  // PILEUS_SRC_STORAGE_VERSIONED_STORE_H_
