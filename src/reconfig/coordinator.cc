#include "src/reconfig/coordinator.h"

#include <algorithm>

namespace pileus::reconfig {

void FailoverCoordinator::OnHeartbeatAck(const std::string& node,
                                         MicrosecondCount now_us,
                                         const Timestamp& durable_timestamp) {
  (void)now_us;
  MemberHealth& health = health_[node];
  health.consecutive_misses = 0;
  health.durable = MaxTimestamp(health.durable, durable_timestamp);
  health.ever_acked = true;
}

void FailoverCoordinator::OnHeartbeatMiss(const std::string& node,
                                          MicrosecondCount now_us) {
  (void)now_us;
  ++health_[node].consecutive_misses;
}

bool FailoverCoordinator::Reachable(const std::string& node) const {
  auto it = health_.find(node);
  return it != health_.end() && it->second.ever_acked &&
         it->second.consecutive_misses == 0;
}

std::optional<tablets::TabletMap> FailoverCoordinator::MaybePlanFailover(
    const tablets::TabletMap& current) const {
  tablets::TabletMap next = current;
  bool changed = false;
  for (tablets::TabletInfo& tablet : next.tablets) {
    const ConfigEpoch& config = tablet.config;
    auto primary_health = health_.find(config.primary);
    if (primary_health == health_.end() ||
        primary_health->second.consecutive_misses < kMissedHeartbeatsToFail) {
      continue;
    }
    // Promotion choice: the reachable member with the highest durable update
    // timestamp loses nothing that was ever acked (a sync member holds the
    // complete committed prefix, so it naturally wins).
    const std::string* best = nullptr;
    Timestamp best_durable = Timestamp::Zero();
    for (const std::string& member : config.members) {
      if (member == config.primary || !Reachable(member)) {
        continue;
      }
      const Timestamp& durable = health_.at(member).durable;
      if (best == nullptr || durable > best_durable ||
          (durable == best_durable && config.IsSyncMember(member) &&
           !config.IsSyncMember(*best))) {
        best = &member;
        best_durable = durable;
      }
    }
    if (best == nullptr) {
      continue;  // Nobody to promote; retry after the next round.
    }
    const size_t sync_target =
        config.sync_members.empty()
            ? 0
            : static_cast<size_t>(std::max(0, options_.sync_member_target));
    tablet.config =
        NextEpoch(config, *best, sync_target,
                  [this](const std::string& node) { return Reachable(node); });
    changed = true;
  }
  if (!changed) {
    return std::nullopt;
  }
  ++next.version;
  return next;
}

std::optional<tablets::TabletMap> FailoverCoordinator::PlanMove(
    const tablets::TabletMap& current, const std::string& target,
    const std::function<bool(const std::string&)>& reachable) const {
  tablets::TabletMap next = current;
  bool changed = false;
  for (tablets::TabletInfo& tablet : next.tablets) {
    if (!tablet.config.IsMember(target) || tablet.config.primary == target) {
      continue;
    }
    tablet.config = NextEpoch(tablet.config, target,
                              tablet.config.sync_members.size(), reachable);
    changed = true;
  }
  if (!changed) {
    return std::nullopt;
  }
  ++next.version;
  return next;
}

}  // namespace pileus::reconfig
