#include "src/experiments/comparison.h"

#include <cstdio>

#include "src/experiments/tables.h"

namespace pileus::experiments {

const std::vector<core::ReadStrategy>& AllStrategies() {
  static const std::vector<core::ReadStrategy> kStrategies = {
      core::ReadStrategy::kPrimary, core::ReadStrategy::kRandom,
      core::ReadStrategy::kClosest, core::ReadStrategy::kPileus};
  return kStrategies;
}

RunStats RunStrategyCell(const std::string& site,
                         core::ReadStrategy strategy,
                         const ComparisonOptions& options) {
  GeoTestbedOptions testbed_options = options.testbed;
  testbed_options.seed =
      options.seed * 1000003 + static_cast<uint64_t>(strategy) * 101;
  GeoTestbed testbed(testbed_options);
  PreloadKeys(testbed, kComparisonKeysPreload);
  testbed.StartReplication();

  core::PileusClient::Options client_options = options.client;
  client_options.strategy = strategy;
  client_options.seed = options.seed * 31 + static_cast<uint64_t>(strategy);
  auto client = testbed.MakeClient(site, client_options);
  client->StartProbing();

  RunOptions run;
  run.sla = options.sla;
  run.total_ops = options.total_ops;
  run.warmup_ops = options.warmup_ops;
  run.workload.seed = options.seed;
  return RunYcsb(testbed, *client, run);
}

std::string UtilityComparisonTable(
    const std::vector<std::string>& sites,
    const std::vector<std::vector<RunStats>>& stats_by_strategy_then_site) {
  std::vector<std::string> headers = {"Strategy"};
  for (const std::string& site : sites) {
    headers.push_back(site);
  }
  AsciiTable table(std::move(headers));
  for (size_t s = 0; s < AllStrategies().size(); ++s) {
    std::vector<std::string> row = {
        std::string(core::ReadStrategyName(AllStrategies()[s]))};
    for (size_t c = 0; c < sites.size(); ++c) {
      row.push_back(FormatUtility(stats_by_strategy_then_site[s][c].AvgUtility()));
    }
    table.AddRow(std::move(row));
  }
  return table.ToString();
}

std::string PileusBreakdownTable(const std::vector<std::string>& sites,
                                 const std::vector<RunStats>& pileus_stats,
                                 const core::Sla& sla) {
  std::vector<std::string> headers = {"Client", "Target SubSLA"};
  const std::vector<std::string> node_names = {kUs, kEngland, kIndia};
  for (const std::string& node : node_names) {
    headers.push_back("Get from " + node);
  }
  headers.push_back("SubSLA Met");
  headers.push_back("Avg Utility");

  AsciiTable table(std::move(headers));
  for (size_t c = 0; c < sites.size(); ++c) {
    const RunStats& stats = pileus_stats[c];
    const double total = static_cast<double>(stats.gets);
    for (size_t rank = 0; rank < sla.size(); ++rank) {
      std::vector<std::string> row;
      row.push_back(rank == 0 ? sites[c] : "");
      row.push_back(std::to_string(rank + 1) + ".");
      for (size_t node = 0; node < node_names.size(); ++node) {
        auto it = stats.target_node_counts.find(
            {static_cast<int>(rank), static_cast<int>(node)});
        const double fraction =
            (it == stats.target_node_counts.end() || total == 0)
                ? 0.0
                : static_cast<double>(it->second) / total;
        row.push_back(FormatPercent(fraction));
      }
      row.push_back(FormatPercent(stats.MetFraction(static_cast<int>(rank))));
      row.push_back(rank == 0 ? FormatUtility(stats.AvgUtility()) : "");
      table.AddRow(std::move(row));
    }
    // "None met" row only when it occurred.
    if (stats.MetFraction(-1) > 0.0) {
      std::vector<std::string> row = {"", "none"};
      for (size_t node = 0; node < node_names.size(); ++node) {
        row.push_back("");
      }
      row.push_back(FormatPercent(stats.MetFraction(-1)));
      row.push_back("");
      table.AddRow(std::move(row));
    }
  }
  return table.ToString();
}

}  // namespace pileus::experiments
