// Unit tests for the experiments module: table rendering, run statistics,
// preloading, and the workload runner's accounting.

#include <gtest/gtest.h>

#include <string>

#include "src/experiments/comparison.h"
#include "src/experiments/geo_testbed.h"
#include "src/experiments/runner.h"
#include "src/experiments/tables.h"
#include "src/workload/ycsb.h"
#include "tests/testbed_fixture.h"

namespace pileus::experiments {
namespace {

using pileus::testbed::FastGeoOptions;

TEST(AsciiTableTest, AlignsColumns) {
  AsciiTable table({"Name", "Value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer-name", "23456"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| Name        | Value |"), std::string::npos) << out;
  EXPECT_NE(out.find("| a           | 1     |"), std::string::npos) << out;
  EXPECT_NE(out.find("| longer-name | 23456 |"), std::string::npos) << out;
  // Separator rule under the header.
  EXPECT_NE(out.find("|-------------|-------|"), std::string::npos) << out;
}

TEST(AsciiTableTest, ShortRowsPadWithEmptyCells) {
  AsciiTable table({"A", "B", "C"});
  table.AddRow({"x"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| x | "), std::string::npos);
}

TEST(FormattersTest, FormatMs) {
  EXPECT_EQ(FormatMs(1500), "1.5");
  EXPECT_EQ(FormatMs(147000), "147.0");
}

TEST(FormattersTest, FormatPercent) {
  EXPECT_EQ(FormatPercent(0.951), "95.1%");
  EXPECT_EQ(FormatPercent(0.0), "0.0%");
  EXPECT_EQ(FormatPercent(1.0), "100.0%");
}

TEST(FormattersTest, FormatUtility) {
  EXPECT_EQ(FormatUtility(0.98), "0.98");
  EXPECT_EQ(FormatUtility(0.0), "0.00");
  EXPECT_EQ(FormatUtility(0.00001), "1.00e-05");  // Tiny: scientific.
}

TEST(RunStatsTest, AvgUtilityAndMetFraction) {
  RunStats stats;
  EXPECT_DOUBLE_EQ(stats.AvgUtility(), 0.0);
  stats.gets = 4;
  stats.utility_sum = 3.0;
  stats.met_counts[0] = 3;
  stats.met_counts[-1] = 1;
  EXPECT_DOUBLE_EQ(stats.AvgUtility(), 0.75);
  EXPECT_DOUBLE_EQ(stats.MetFraction(0), 0.75);
  EXPECT_DOUBLE_EQ(stats.MetFraction(-1), 0.25);
  EXPECT_DOUBLE_EQ(stats.MetFraction(1), 0.0);
}

TEST(RunnerTest, SingleConsistencySlaShape) {
  const core::Sla sla = SingleConsistencySla(core::Guarantee::Monotonic());
  ASSERT_EQ(sla.size(), 1u);
  EXPECT_EQ(sla[0].consistency, core::Guarantee::Monotonic());
  EXPECT_DOUBLE_EQ(sla[0].utility, 1.0);
  EXPECT_TRUE(sla.Validate().ok());
}

TEST(RunnerTest, PreloadPopulatesEveryNode) {
  GeoTestbed testbed(FastGeoOptions(3));
  PreloadKeys(testbed, 100);
  for (const char* site : {kUs, kEngland, kIndia}) {
    auto* tablet = testbed.node(site)->FindTablet(kTableName, "");
    EXPECT_TRUE(
        tablet->HandleGet(workload::YcsbWorkload::KeyForIndex(0)).found)
        << site;
    EXPECT_TRUE(
        tablet->HandleGet(workload::YcsbWorkload::KeyForIndex(99)).found)
        << site;
    EXPECT_GT(tablet->high_timestamp(), Timestamp::Zero()) << site;
  }
}

TEST(RunnerTest, RunYcsbAccountsEveryCountedOp) {
  GeoTestbed testbed(FastGeoOptions(4));
  pileus::testbed::PreloadAndReplicate(testbed, 1000);
  auto client = testbed.MakeClient(kEngland, core::PileusClient::Options{});

  RunOptions run;
  run.sla = core::ShoppingCartSla();
  run.total_ops = 400;
  run.warmup_ops = 100;
  run.workload.seed = 4;
  run.workload.key_count = 1000;
  int callbacks = 0;
  const RunStats stats =
      RunYcsb(testbed, *client, run,
              [&](MicrosecondCount, const core::GetOutcome&) { ++callbacks; });

  EXPECT_EQ(stats.gets + stats.puts, 400u);
  EXPECT_EQ(static_cast<uint64_t>(callbacks), stats.gets);
  EXPECT_GT(stats.gets, 150u);  // ~50/50 split.
  EXPECT_GT(stats.puts, 150u);
  // Utility accounting is bounded by the SLA's top utility.
  EXPECT_LE(stats.AvgUtility(), 1.0);
  EXPECT_GT(stats.AvgUtility(), 0.9);  // England client: everything local.
  // Message accounting: at least one message per op.
  EXPECT_GE(stats.messages_sent, 400u);
  // Every counted Get has a met entry.
  uint64_t met_total = 0;
  for (const auto& [rank, count] : stats.met_counts) {
    met_total += count;
  }
  EXPECT_EQ(met_total, stats.gets);
}

TEST(ComparisonTest, AllStrategiesListsFour) {
  ASSERT_EQ(AllStrategies().size(), 4u);
  EXPECT_EQ(AllStrategies().front(), core::ReadStrategy::kPrimary);
  EXPECT_EQ(AllStrategies().back(), core::ReadStrategy::kPileus);
}

TEST(ComparisonTest, BreakdownTableMentionsEveryRank) {
  RunStats stats;
  stats.gets = 10;
  stats.utility_sum = 9.0;
  stats.target_node_counts[{0, 1}] = 9;
  stats.target_node_counts[{1, 1}] = 1;
  stats.met_counts[0] = 9;
  stats.met_counts[1] = 1;
  const std::string out =
      PileusBreakdownTable({"US"}, {stats}, core::ShoppingCartSla());
  EXPECT_NE(out.find("1."), std::string::npos);
  EXPECT_NE(out.find("2."), std::string::npos);
  EXPECT_NE(out.find("90.0%"), std::string::npos);
  EXPECT_NE(out.find("0.90"), std::string::npos);
}

}  // namespace
}  // namespace pileus::experiments
