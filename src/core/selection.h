// Target subSLA and node selection (paper Section 4.6, Figure 8).
//
// For every (subSLA, replica) pair the expected utility is
//   PNodeSla(node, consistency, latency, key) * subSLA.utility
// and the client picks the pair with the maximum. Ties across nodes are
// broken by the configured policy — the paper uses "closest" (lowest mean
// latency) and mentions random and most-up-to-date as alternatives, which we
// also implement for the ablation benches. Note the subtle semantics from
// Figure 8: when a later pair merely *equals* the running maximum, the target
// subSLA keeps its earlier (higher-ranked) value and only the candidate node
// set grows.

#ifndef PILEUS_SRC_CORE_SELECTION_H_
#define PILEUS_SRC_CORE_SELECTION_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/monitor.h"
#include "src/core/session.h"
#include "src/core/sla.h"

namespace pileus::core {

// What the selection algorithm needs to know about one replica.
struct ReplicaView {
  std::string name;
  // Primary-site member (or synchronous replica): may serve strong reads.
  bool authoritative = false;
};

enum class TieBreak {
  kClosest = 0,   // Lowest mean monitored latency (paper default).
  kRandom = 1,    // Load balancing alternative.
  kFreshest = 2,  // Highest known high timestamp.
};

struct SelectionOptions {
  TieBreak tie_break = TieBreak::kClosest;
  // Nodes whose best expected utility is within this of the maximum are
  // reported as candidates ("predicted to provide roughly the same service",
  // Section 6.3) for parallel-Get fan-out. 0 = exact ties only. Does not
  // affect which single node is chosen.
  double candidate_epsilon = 0.0;
};

struct SelectionResult {
  int target_rank = -1;           // Chosen subSLA (0-based).
  int node_index = -1;            // Chosen replica.
  double expected_utility = 0.0;  // maxutil from Figure 8.
  // All replicas that tied at maxutil, before tie-breaking (ascending index);
  // parallel Gets (Section 6.3) fan out across a prefix of these.
  std::vector<int> candidates;
};

// Supplies the minimum acceptable read timestamp per guarantee; point Gets
// bind a (session, key) pair, range scans bind the session's scan state.
using MinReadTimestampFn = std::function<Timestamp(const Guarantee&)>;

// Expected utility of sending a read to `replica` under `sub`, i.e.
// PNodeSla * utility with the strong-consistency authoritativeness rule
// applied.
double ExpectedUtility(const SubSla& sub, const ReplicaView& replica,
                       const MinReadTimestampFn& min_read_timestamp,
                       const Monitor& monitor);

// Figure 8 over `replicas`. Returns target_rank/node_index of -1 only when
// `sla` or `replicas` is empty.
SelectionResult SelectTarget(const Sla& sla,
                             const std::vector<ReplicaView>& replicas,
                             const MinReadTimestampFn& min_read_timestamp,
                             const Monitor& monitor,
                             const SelectionOptions& options, Random* rng);

}  // namespace pileus::core

#endif  // PILEUS_SRC_CORE_SELECTION_H_
