// Versioned tablet maps: the routing directory of a table's tablets (paper
// Section 4.2).
//
// A TabletMap names, for one table, every tablet (a half-open key range)
// together with its per-tablet ConfigEpoch — replica membership and the
// member holding the primary role — plus an observational size. The ranges
// and members are whatever the deployment installs; only a failover or a
// deliberate primary move (DESIGN.md Section 10) edits a map, and then only
// epochs and primaries. The map carries a monotonic `version`, and storage
// nodes install maps version-monotonically.
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

// One tablet's entry: where a key range lives and how large it is.
struct TabletInfo {
  KeyRange range;
  // Per-tablet epoch/roles (Section 6.2 machinery applied per range). The
  // epoch fences a deposed primary.
  reconfig::ConfigEpoch config;
  // Retained bytes as last reported by the owning node; advisory (CLI
  // display), never part of routing decisions.
  uint64_t size_bytes = 0;

  bool operator==(const TabletInfo&) const = default;

  // "['a', 'b') epoch 3 primary=beta members=[alpha,beta]".
  std::string ToString() const;
};

struct TabletMap {
  std::string table;
  // 0 = "no map": a node that never installed one keeps legacy whole-table
  // routing, mirroring epoch 0 in reconfig::ConfigEpoch.
  uint64_t version = 0;
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

// Codec helpers for the wire messages.
void EncodeTabletInfo(Encoder& enc, const TabletInfo& info);
Status DecodeTabletInfo(Decoder& dec, TabletInfo* info);
void EncodeTabletMap(Encoder& enc, const TabletMap& map);
Status DecodeTabletMap(Decoder& dec, TabletMap* map);

}  // namespace pileus::tablets

#endif  // PILEUS_SRC_TABLETS_TABLET_MAP_H_
