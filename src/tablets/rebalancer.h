// Load-based rebalance planner (DESIGN.md Section 14).
//
// A pure function from observed per-tablet load to a short list of actions:
// split tablets that outgrew the thresholds, then move tablets off the most
// loaded node onto the least loaded one when the spread justifies the
// migration cost. Deliberately transport- and storage-free — the coordinator
// feeds it samples and executes whatever it plans, so the policy is
// deterministic and unit-testable in isolation.

#ifndef PILEUS_SRC_TABLETS_REBALANCER_H_
#define PILEUS_SRC_TABLETS_REBALANCER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/key_range.h"

namespace pileus::tablets {

// One tablet's observed load, attributed to the node holding its primary.
struct TabletLoad {
  KeyRange range;
  std::string primary;
  uint64_t size_bytes = 0;
  uint64_t ops_per_sec = 0;
  // Non-empty when the primary found a usable median pivot; a tablet
  // without one cannot split no matter how hot it is.
  std::string split_key;
};

struct RebalanceAction {
  enum class Kind { kSplit, kMove };
  Kind kind = Kind::kSplit;
  KeyRange range;
  std::string split_key;  // kSplit only.
  std::string from;       // kMove only: current primary.
  std::string to;         // kMove only: destination node.

  std::string ToString() const;
};

class Rebalancer {
 public:
  struct Options {
    // Split once a tablet exceeds either threshold (0 disables that
    // dimension).
    uint64_t split_threshold_bytes = 64ull * 1024 * 1024;
    uint64_t split_threshold_ops_per_sec = 0;
    // Move only when the hottest node carries more than this multiple of
    // the mean node load (hysteresis against migration ping-pong).
    double imbalance_ratio = 1.5;
  };

  // Cap on planned actions per round; churn is applied incrementally so
  // each round's observations reflect the previous round's effects.
  static constexpr int kMaxActionsPerRound = 2;

  explicit Rebalancer(Options options) : options_(options) {}

  // True when the tablet's load exceeds a split threshold. The coordinator
  // looks up a split pivot only for these tablets, and Plan splits exactly
  // these (when a pivot was found).
  bool OverSplitThreshold(const TabletLoad& load) const;

  // Plans at most kMaxActionsPerRound actions. `nodes` lists every node
  // eligible to receive tablets (including ones currently holding none —
  // that is how an empty node gets filled). Splits are planned before
  // moves: halving a hot tablet is cheaper than copying it, and the next
  // round can move the cooler halves.
  std::vector<RebalanceAction> Plan(const std::vector<TabletLoad>& loads,
                                    const std::vector<std::string>& nodes) const;

 private:
  Options options_;
};

}  // namespace pileus::tablets

#endif  // PILEUS_SRC_TABLETS_REBALANCER_H_
