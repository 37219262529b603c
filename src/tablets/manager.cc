#include "src/tablets/manager.h"

#include <utility>

namespace pileus::tablets {

std::vector<TabletManager::TabletStat> TabletManager::Sample(
    std::string_view table) {
  const MicrosecondCount now_us = clock_->NowMicros();
  std::vector<TabletStat> stats;
  for (const storage::StorageNode::LocalTabletStat& local :
       node_->LocalTabletStats(table)) {
    TabletStat stat;
    stat.range = local.range;
    stat.is_primary = local.is_primary;
    stat.size_bytes = local.size_bytes;
    stat.ops_total = local.ops_total;

    auto [it, first_sighting] = baselines_.try_emplace(
        {std::string(table), local.range.begin});
    Baseline& baseline = it->second;
    const MicrosecondCount elapsed_us = now_us - baseline.sampled_at_us;
    if (first_sighting) {
      stat.ops_per_sec = 0;  // No baseline to rate against yet.
    } else if (elapsed_us < kMicrosecondsPerMillisecond) {
      // Too soon to derive a meaningful rate; keep the previous one.
      stat.ops_per_sec = baseline.last_rate;
    } else {
      const uint64_t delta = local.ops_total >= baseline.ops_total
                                 ? local.ops_total - baseline.ops_total
                                 : 0;
      stat.ops_per_sec =
          delta * static_cast<uint64_t>(kMicrosecondsPerSecond) /
          static_cast<uint64_t>(elapsed_us);
    }
    if (first_sighting || elapsed_us >= kMicrosecondsPerMillisecond) {
      baseline.ops_total = local.ops_total;
      baseline.sampled_at_us = now_us;
      baseline.last_rate = stat.ops_per_sec;
    }
    stats.push_back(std::move(stat));
  }
  return stats;
}

}  // namespace pileus::tablets
