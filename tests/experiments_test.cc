// Unit tests for the experiments module: table rendering, run statistics,
// preloading, the workload runner's accounting, and the tablet fleet's
// coordinator-kill and crash-restart modes.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "src/experiments/comparison.h"
#include "src/experiments/deployment.h"
#include "src/experiments/geo_testbed.h"
#include "src/experiments/runner.h"
#include "src/experiments/tables.h"
#include "src/experiments/scenario.h"
#include "src/workload/ycsb.h"
#include "tests/numbered_key.h"
#include "tests/scoped_temp_dir.h"
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

// The tablet-churn scenario with the coordinator repeatedly killed at
// protocol crash points and recovered by a standby from the intent log
// (DESIGN.md Section 15). The audit bar is the usual one — zero violations,
// zero lost acked writes — and every kill must be followed by a recovery.
TEST(TabletChurnTest, CoordinatorKillRecoversWithZeroLoss) {
  const ScopedTempDir dir("pileus_churn_kill.");
  ASSERT_FALSE(dir.path().empty());
  ScenarioOptions options;
  options.deployment = DeploymentKind::kTabletFleet;
  options.seed = 3;
  options.total_ops = 400;
  options.key_count = 120;
  options.coordinator_kill = true;
  options.durable_root = dir.path();
  const ScenarioResult result = RunAuditScenario(options);
  ASSERT_TRUE(result.setup.ok()) << result.setup;
  EXPECT_TRUE(result.ok()) << result.Summary();
  EXPECT_GT(result.coordinator_kills, 0u);
  EXPECT_EQ(result.coordinator_recoveries, result.coordinator_kills);
  EXPECT_EQ(result.lost_acked_writes, 0u);
  EXPECT_GT(result.acked_writes, 0u);
}

// The fleet's crash-restart on real durable tablets. n3 and n4 start with
// no tablet, so one that leads a range got it by a committed migration.
// Crash that node and restart it: it must reopen its tablets from its own
// data root (there is no other copy of its writes), and no acked write may
// be missing from the committed order.
TEST(TabletChurnTest, RestartedMigrationTargetRecoversItsOwnTablets) {
  const ScopedTempDir root("pileus_churn_restart.");
  ASSERT_FALSE(root.path().empty());
  ScenarioOptions options;
  options.deployment = DeploymentKind::kTabletFleet;
  options.scenario = FaultScenario::kCrashRestart;
  options.key_count = 60;
  options.durable_root = root.path();
  std::unique_ptr<Deployment> fleet = MakeTabletFleetDeployment(options);
  ASSERT_TRUE(fleet->Build(nullptr).ok());
  core::ShardedClient* client =
      std::get<core::ShardedClient*>(fleet->frontends().front());
  Result<core::Session> session = client->BeginSession(AuditSla());
  ASSERT_TRUE(session.ok());

  std::set<std::pair<std::string, Timestamp>> acked;
  uint64_t op = 0;
  const auto run = [&](uint64_t ops) {
    for (const uint64_t end = op + ops; op < end; ++op) {
      ASSERT_TRUE(fleet->BeforeOp(op).ok());
      const std::string key = workload::YcsbWorkload::KeyForIndex(
          op % static_cast<uint64_t>(options.key_count));
      Result<core::PutResult> put =
          client->Put(*session, key,
                      NumberedKey("v", static_cast<int64_t>(op)));
      if (put.ok()) {
        acked.emplace(key, put->timestamp);
      }
      fleet->AfterOp();
    }
  };
  std::string target;
  while (target.empty() && op < 400) {
    run(10);
    for (const std::string& node :
         fleet->Nodes(FaultEvent::Target::kReplica)) {
      if (node == "n3" || node == "n4") {
        target = node;
      }
    }
  }
  ASSERT_FALSE(target.empty());
  fleet->Apply(FaultEvent{FaultEvent::Kind::kCrash}, target);
  run(40);
  fleet->Apply(FaultEvent{FaultEvent::Kind::kRestart}, target);
  run(40);

  ScenarioResult result;
  Result<GroundTruth> truth = fleet->Finish(result);
  ASSERT_TRUE(truth.ok()) << truth.status();
  EXPECT_GT(result.migrations, 0u);
  EXPECT_GT(result.restart_wal_versions, 0u);
  std::set<std::pair<std::string, Timestamp>> committed;
  for (const proto::ObjectVersion& version : truth->versions) {
    committed.emplace(version.key, version.timestamp);
  }
  for (const auto& [key, timestamp] : acked) {
    EXPECT_EQ(committed.count({key, timestamp}), 1u) << key << "@" << timestamp;
  }
  // The only WALs are the tablets' own.
  ASSERT_FALSE(truth->wal_paths.empty());
  for (const std::string& path : truth->wal_paths) {
    EXPECT_TRUE(path.ends_with("/wal.log")) << path;
  }
}

TEST(TabletChurnTest, CoordinatorKillRequiresDurableRoot) {
  ScenarioOptions options;
  options.deployment = DeploymentKind::kTabletFleet;
  options.coordinator_kill = true;
  options.durable_root = "";
  const ScenarioResult result = RunAuditScenario(options);
  EXPECT_FALSE(result.setup.ok());
}

}  // namespace
}  // namespace pileus::experiments
