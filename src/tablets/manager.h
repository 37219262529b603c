// Per-node tablet manager: the dynamic-tablet façade over a StorageNode
// (DESIGN.md Section 14).
//
// The storage node owns the mechanics — hosting tablets, installing maps,
// fencing misrouted requests — under its request mutex. The manager samples
// per-tablet load, turning the node's cumulative op counters into ops/s
// between samples; the coordinator's Rebalancer turns those samples into
// splits and moves. It never mutates the node itself; splits and map
// publication stay with the coordinator so there is exactly one writer of
// the tablet map.

#ifndef PILEUS_SRC_TABLETS_MANAGER_H_
#define PILEUS_SRC_TABLETS_MANAGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/storage/storage_node.h"
#include "src/util/key_range.h"

namespace pileus::tablets {

class TabletManager {
 public:
  // `node` is not owned and must outlive the manager.
  TabletManager(storage::StorageNode* node, Clock* clock)
      : node_(node), clock_(clock) {}

  struct TabletStat {
    KeyRange range;
    bool is_primary = false;
    uint64_t size_bytes = 0;
    uint64_t ops_total = 0;
    // Derived from the op-counter delta since the previous Sample() call;
    // 0 on the first sample of a tablet (no baseline yet).
    uint64_t ops_per_sec = 0;
  };

  // Snapshots the node's hosted tablets of `table` and derives each one's
  // ops/s from the previous sample. Call at a steady period; back-to-back
  // calls (< 1ms apart) reuse the previous rate rather than dividing by a
  // near-zero interval.
  std::vector<TabletStat> Sample(std::string_view table);

 private:
  struct Baseline {
    uint64_t ops_total = 0;
    MicrosecondCount sampled_at_us = 0;
    uint64_t last_rate = 0;
  };

  storage::StorageNode* node_;  // Not owned.
  Clock* clock_;  // Not owned.
  // (table, range begin) -> previous sample, for rate derivation.
  std::map<std::pair<std::string, std::string>, Baseline> baselines_;
};

}  // namespace pileus::tablets

#endif  // PILEUS_SRC_TABLETS_MANAGER_H_
