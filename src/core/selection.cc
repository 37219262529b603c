#include "src/core/selection.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <span>

namespace pileus::core {

namespace {

// Figure 8's expected utility of one (subSLA, replica) pair:
//   PNodeSla * utility = PNodeCons * PNodeLat * PNodeUp * utility,
// from the replica's estimate, with `p_lat` its PNodeLat at the subSLA's
// latency budget. `min_read` yields the subSLA's minimum acceptable read
// timestamp; it is called only when the replica's staleness matters.
template <typename MinRead>
double Utility(const SubSla& sub, bool authoritative, MinRead&& min_read,
               const Monitor::NodeEstimate& estimate, double p_lat) {
  double p_cons;
  if (sub.consistency.RequiresAuthoritative()) {
    // Strong reads: only an authoritative copy qualifies, and it qualifies by
    // construction (it holds the latest committed data).
    p_cons = authoritative ? 1.0 : 0.0;
  } else {
    // Authoritative copies satisfy every timestamp threshold.
    p_cons = authoritative || estimate.high_timestamp >= min_read() ? 1.0
                                                                    : 0.0;
  }
  if (p_cons == 0.0) {
    return 0.0;
  }
  double util = p_cons * p_lat * estimate.p_up * sub.utility;
  // Degradation ladder (DESIGN.md Section 11): while the node is shedding,
  // non-authoritative ranks are discounted in proportion to how early the
  // server would shed them, so low-utility reads re-route to secondaries
  // first. Strong reads keep their full value — only an authoritative copy
  // can serve them, and the server protects them longest.
  if (!sub.consistency.RequiresAuthoritative()) {
    util *= Monitor::OverloadFactor(estimate.overloaded, sub.utility);
  }
  return util;
}

}  // namespace

double ExpectedUtility(const SubSla& sub, const ReplicaView& replica,
                       const MinReadTimestampFn& min_read_timestamp,
                       const Monitor& monitor) {
  double p_lat = 0.0;
  const Monitor::NodeEstimate estimate = monitor.Estimate(
      replica.name, std::span<const SubSla>(&sub, 1), std::span(&p_lat, 1));
  return Utility(
      sub, replica.authoritative,
      [&] { return min_read_timestamp(sub.consistency); }, estimate, p_lat);
}

SelectionResult SelectTarget(const Sla& sla,
                             const std::vector<ReplicaView>& replicas,
                             const MinReadTimestampFn& min_read_timestamp,
                             const Monitor& monitor,
                             const SelectionOptions& options, Random* rng) {
  SelectionResult result;
  if (sla.empty() || replicas.empty()) {
    return result;
  }

  // One monitor estimate per replica, with its PNodeLat at every rank's
  // budget in p_lat[i * ranks + rank]; every rank and tie-break below reads
  // these instead of asking the monitor again.
  const size_t ranks = sla.size();
  struct Replica {
    Monitor::NodeEstimate estimate;
    bool eligible = true;
    double best = -1.0;  // The replica's best utility over all ranks.
  };
  std::vector<Replica> views(replicas.size());
  std::vector<double> p_lat(replicas.size() * ranks);
  for (size_t i = 0; i < replicas.size(); ++i) {
    views[i].estimate =
        monitor.Estimate(replicas[i].name, sla.subslas(),
                         std::span(p_lat).subspan(i * ranks, ranks));
  }

  // Replicas behind an open circuit breaker (see Monitor::Breaker) are
  // excluded up front: their PNodeUp is 0, so they can only ever tie at
  // utility 0, and a zero-utility read - total outage under a strict SLA -
  // should start at a replica that might answer. If *every* breaker is open
  // there is no better option, so the filter is waived.
  bool any_eligible = false;
  for (Replica& view : views) {
    view.eligible = !view.estimate.breaker_open;
    any_eligible = any_eligible || view.eligible;
  }
  if (!any_eligible) {
    for (Replica& view : views) {
      view.eligible = true;
    }
  }

  // Figure 8: maxutil starts below any achievable utility so the first pair
  // always becomes the initial candidate.
  double maxutil = -1.0;
  for (size_t rank = 0; rank < ranks; ++rank) {
    const SubSla& sub = sla[rank];
    // The rank's minimum acceptable read timestamp, asked for at most once.
    std::optional<Timestamp> floor;
    const auto min_read = [&] {
      if (!floor.has_value()) {
        floor = min_read_timestamp(sub.consistency);
      }
      return *floor;
    };
    for (size_t i = 0; i < replicas.size(); ++i) {
      Replica& view = views[i];
      if (!view.eligible) {
        continue;
      }
      const double util = Utility(sub, replicas[i].authoritative, min_read,
                                  view.estimate, p_lat[i * ranks + rank]);
      view.best = std::max(view.best, util);
      if (util > maxutil) {
        maxutil = util;
        result.target_rank = static_cast<int>(rank);
        result.candidates.clear();
        result.candidates.push_back(static_cast<int>(i));
      } else if (util == maxutil) {
        // Only extend the node set; the target subSLA stays the
        // highest-ranked one that reached maxutil (Figure 8 semantics).
        if (std::find(result.candidates.begin(), result.candidates.end(),
                      static_cast<int>(i)) == result.candidates.end()) {
          result.candidates.push_back(static_cast<int>(i));
        }
      }
    }
  }
  result.expected_utility = std::max(maxutil, 0.0);

  // Tie-break among candidates.
  assert(!result.candidates.empty());
  int chosen = result.candidates.front();
  switch (options.tie_break) {
    case TieBreak::kClosest: {
      MicrosecondCount best_latency = views[chosen].estimate.mean_latency_us;
      for (int candidate : result.candidates) {
        const MicrosecondCount lat = views[candidate].estimate.mean_latency_us;
        if (lat < best_latency) {
          best_latency = lat;
          chosen = candidate;
        }
      }
      break;
    }
    case TieBreak::kRandom: {
      if (rng != nullptr && result.candidates.size() > 1) {
        chosen = result.candidates[rng->NextUint64(result.candidates.size())];
      }
      break;
    }
    case TieBreak::kFreshest: {
      Timestamp best_high = views[chosen].estimate.high_timestamp;
      for (int candidate : result.candidates) {
        const Timestamp& high = views[candidate].estimate.high_timestamp;
        if (high > best_high) {
          best_high = high;
          chosen = candidate;
        }
      }
      break;
    }
  }
  result.node_index = chosen;

  // Section 6.3: widen the candidate set to "roughly the same service" for
  // parallel-Get fan-out. The single-node choice above used exact ties only.
  if (options.candidate_epsilon > 0.0) {
    for (size_t i = 0; i < replicas.size(); ++i) {
      if (views[i].eligible &&
          views[i].best >= maxutil - options.candidate_epsilon &&
          std::find(result.candidates.begin(), result.candidates.end(),
                    static_cast<int>(i)) == result.candidates.end()) {
        result.candidates.push_back(static_cast<int>(i));
      }
    }
  }

  // Order candidates best-first for parallel-Get fan-out: the chosen node
  // first, the rest by the active tie-break policy's metric (mean latency).
  std::sort(result.candidates.begin(), result.candidates.end(),
            [&](int a, int b) {
              if (a == chosen) {
                return b != chosen;
              }
              if (b == chosen) {
                return false;
              }
              return views[a].estimate.mean_latency_us <
                     views[b].estimate.mean_latency_us;
            });
  return result;
}

}  // namespace pileus::core
