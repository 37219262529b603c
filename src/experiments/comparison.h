// Shared driver for the strategy-comparison experiments (paper Section 5):
// run the YCSB workload at a client site under each read strategy (Primary /
// Random / Closest / Pileus) and render the paper's tables - the average
// delivered utility bars (Figures 11, 12, 14) and the Pileus decision
// breakdown (Tables 1, 2).

#ifndef PILEUS_SRC_EXPERIMENTS_COMPARISON_H_
#define PILEUS_SRC_EXPERIMENTS_COMPARISON_H_

#include <string>
#include <vector>

#include "src/core/client.h"
#include "src/experiments/geo_testbed.h"
#include "src/experiments/runner.h"

namespace pileus::experiments {

struct ComparisonOptions {
  core::Sla sla;
  uint64_t total_ops = 8000;
  uint64_t warmup_ops = 2000;
  uint64_t seed = 1;
  GeoTestbedOptions testbed;
  // Extra client options applied on top of the strategy (fan-out, monitor...).
  core::PileusClient::Options client;
};

// Objects preloaded at the primary before each comparison run.
inline constexpr int kComparisonKeysPreload = 10000;

// Runs one (site, strategy) cell on a fresh testbed and returns its stats.
RunStats RunStrategyCell(const std::string& site,
                         core::ReadStrategy strategy,
                         const ComparisonOptions& options);

// Renders the Figure 11/12-style utility table: one row per strategy, one
// column per client site.
std::string UtilityComparisonTable(
    const std::vector<std::string>& sites,
    const std::vector<std::vector<RunStats>>& stats_by_strategy_then_site);

// Renders the Table 1/2-style breakdown for a set of per-site Pileus runs:
// per target subSLA, the share of Gets sent to each storage node, the share
// of Gets that met each subSLA, and the average utility.
std::string PileusBreakdownTable(const std::vector<std::string>& sites,
                                 const std::vector<RunStats>& pileus_stats,
                                 const core::Sla& sla);

// All four strategies in the paper's order.
const std::vector<core::ReadStrategy>& AllStrategies();

}  // namespace pileus::experiments

#endif  // PILEUS_SRC_EXPERIMENTS_COMPARISON_H_
