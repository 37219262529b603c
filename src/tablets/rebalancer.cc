#include "src/tablets/rebalancer.h"

#include <algorithm>
#include <map>
#include <set>

namespace pileus::tablets {

std::string RebalanceAction::ToString() const {
  if (kind == Kind::kSplit) {
    return "split " + range.ToString() + " at '" + split_key + "'";
  }
  return "move " + range.ToString() + " from " + from + " to " + to;
}

bool Rebalancer::OverSplitThreshold(const TabletLoad& load) const {
  const bool over_size = options_.split_threshold_bytes > 0 &&
                         load.size_bytes > options_.split_threshold_bytes;
  const bool over_ops = options_.split_threshold_ops_per_sec > 0 &&
                        load.ops_per_sec > options_.split_threshold_ops_per_sec;
  return over_size || over_ops;
}

std::vector<RebalanceAction> Rebalancer::Plan(
    const std::vector<TabletLoad>& loads,
    const std::vector<std::string>& nodes) const {
  std::vector<RebalanceAction> actions;
  const auto budget_left = [&] {
    return static_cast<int>(actions.size()) < kMaxActionsPerRound;
  };

  // --- Splits first: cheap, local, and they create the movable units the
  // next round's moves need. Hottest tablets split first.
  std::vector<const TabletLoad*> split_candidates;
  for (const TabletLoad& load : loads) {
    if (!load.split_key.empty() && load.range.IsSplittable(load.split_key) &&
        OverSplitThreshold(load)) {
      split_candidates.push_back(&load);
    }
  }
  std::stable_sort(split_candidates.begin(), split_candidates.end(),
                   [](const TabletLoad* a, const TabletLoad* b) {
                     if (a->ops_per_sec != b->ops_per_sec) {
                       return a->ops_per_sec > b->ops_per_sec;
                     }
                     return a->size_bytes > b->size_bytes;
                   });
  for (const TabletLoad* load : split_candidates) {
    if (!budget_left()) {
      return actions;
    }
    RebalanceAction action;
    action.kind = RebalanceAction::Kind::kSplit;
    action.range = load->range;
    action.split_key = load->split_key;
    actions.push_back(std::move(action));
  }

  // --- Moves: compare per-node primary load (ops/s).
  if (nodes.size() < 2) {
    return actions;
  }
  struct NodeLoad {
    uint64_t ops = 0;
  };
  std::map<std::string, NodeLoad> per_node;
  for (const std::string& node : nodes) {
    per_node.emplace(node, NodeLoad{});
  }
  // Ranges already being split stay put (keyed by begin: ranges in one map
  // tile the keyspace, so begins are unique).
  std::set<std::string> busy;
  for (const RebalanceAction& action : actions) {
    busy.insert(action.range.begin);
  }
  for (const TabletLoad& load : loads) {
    auto it = per_node.find(load.primary);
    if (it == per_node.end()) {
      continue;  // Primary not in the eligible set (e.g. draining).
    }
    it->second.ops += load.ops_per_sec;
  }

  uint64_t total_ops = 0;
  for (const auto& [name, node_load] : per_node) {
    total_ops += node_load.ops;
  }
  const double mean_ops =
      static_cast<double>(total_ops) / static_cast<double>(per_node.size());

  while (budget_left()) {
    // Hottest and coolest node this iteration (planned moves included).
    const std::string* hottest = nullptr;
    const std::string* coolest = nullptr;
    for (const auto& [name, node_load] : per_node) {
      if (hottest == nullptr || node_load.ops > per_node.at(*hottest).ops) {
        hottest = &name;
      }
      if (coolest == nullptr || node_load.ops < per_node.at(*coolest).ops) {
        coolest = &name;
      }
    }
    if (hottest == nullptr || *hottest == *coolest) {
      break;
    }
    NodeLoad& hot = per_node.at(*hottest);
    const NodeLoad& cool = per_node.at(*coolest);
    if (static_cast<double>(hot.ops) <=
        mean_ops * std::max(1.0, options_.imbalance_ratio)) {
      break;  // Spread within tolerance; migration not worth its cost.
    }
    // Move the hot node's busiest tablet that (a) is not mid-split and
    // (b) does not overshoot: after the move the destination must stay
    // below the source's current load, or we would just swap the hotspot.
    const TabletLoad* pick = nullptr;
    for (const TabletLoad& load : loads) {
      if (load.primary != *hottest || busy.count(load.range.begin) > 0) {
        continue;
      }
      if (cool.ops + load.ops_per_sec >= hot.ops) {
        continue;
      }
      if (pick == nullptr || load.ops_per_sec > pick->ops_per_sec) {
        pick = &load;
      }
    }
    if (pick == nullptr) {
      break;  // Nothing movable improves the spread (e.g. one giant tablet).
    }
    RebalanceAction action;
    action.kind = RebalanceAction::Kind::kMove;
    action.range = pick->range;
    action.from = *hottest;
    action.to = *coolest;
    actions.push_back(action);
    busy.insert(pick->range.begin);  // One action per range per round.
    hot.ops -= pick->ops_per_sec;
    per_node.at(*coolest).ops += pick->ops_per_sec;
  }
  return actions;
}

}  // namespace pileus::tablets
