// Versioned tablet maps: the routing directory for dynamic tablets
// (DESIGN.md Section 14, paper Section 4.2).
//
// A TabletMap names, for one table, every tablet (a half-open key range)
// together with its per-tablet ConfigEpoch — replica membership and the
// member holding the primary role — plus observational load stats. The map
// itself carries a monotonic `version`: the coordinator bumps it on every
// split or migration, storage nodes install maps version-monotonically, and
// clients refresh theirs when a kWrongTablet fence tells them the server
// knows a newer one.
//
// This header is codec-only (no proto or storage dependency) so the wire
// messages (src/proto) can embed maps the same way they embed
// reconfig::ConfigEpoch.

#ifndef PILEUS_SRC_TABLETS_TABLET_MAP_H_
#define PILEUS_SRC_TABLETS_TABLET_MAP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/reconfig/config_epoch.h"
#include "src/util/codec.h"
#include "src/util/key_range.h"

namespace pileus::tablets {

// One tablet's entry: where a key range lives and how hot it is.
struct TabletInfo {
  KeyRange range;
  // Per-tablet epoch/roles (Section 6.2 machinery applied per range). The
  // epoch fences stale owners across migrations exactly like a failover
  // fences a deposed primary.
  reconfig::ConfigEpoch config;
  // Load stats as last reported by the owning node; advisory (rebalancer
  // input and CLI display), never part of routing decisions.
  uint64_t size_bytes = 0;
  uint64_t ops_per_sec = 0;

  bool operator==(const TabletInfo&) const = default;

  // "['a', 'b') epoch 3 primary=beta members=[alpha,beta]".
  std::string ToString() const;
};

struct TabletMap {
  std::string table;
  // 0 = "no map": a node that never installed one keeps legacy whole-table
  // routing, mirroring epoch 0 in reconfig::ConfigEpoch.
  uint64_t version = 0;
  // Epoch of the coordinator that published this map (DESIGN.md Section 15).
  // 0 = legacy/unfenced (an in-memory coordinator); a durable coordinator
  // stamps its leadership epoch so nodes can refuse installs from a deposed
  // coordinator even when its map version looks plausible.
  uint64_t coordinator_epoch = 0;
  std::vector<TabletInfo> tablets;  // Sorted by range.begin, tiling keyspace.

  bool operator==(const TabletMap&) const = default;

  // The entry whose range contains `key`; nullptr when the map does not
  // cover it (malformed or empty map).
  const TabletInfo* OwnerOf(std::string_view key) const;

  // OK iff the ranges exactly tile the keyspace in sorted order and every
  // entry names a primary that is a member.
  Status Validate() const;

  std::string ToString() const;
};

// Codec helpers shared by the wire messages and any on-disk persistence.
void EncodeTabletInfo(Encoder& enc, const TabletInfo& info);
Status DecodeTabletInfo(Decoder& dec, TabletInfo* info);
void EncodeTabletMap(Encoder& enc, const TabletMap& map);
Status DecodeTabletMap(Decoder& dec, TabletMap* map);

}  // namespace pileus::tablets

#endif  // PILEUS_SRC_TABLETS_TABLET_MAP_H_
