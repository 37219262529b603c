// Integration tests on the simulated Figure 10 test bed: replication flow,
// SLA-driven routing, latency injection, reconfiguration, and determinism.

#include <gtest/gtest.h>

#include "src/core/sla.h"
#include "src/experiments/comparison.h"
#include "src/experiments/geo_testbed.h"
#include "src/experiments/runner.h"
#include "tests/testbed_fixture.h"

namespace pileus::experiments {
namespace {

using core::Guarantee;
using pileus::testbed::FastGeoOptions;

TEST(GeoTestbedTest, TopologyIsBuilt) {
  GeoTestbed testbed(FastGeoOptions());
  EXPECT_NE(testbed.node(kUs), nullptr);
  EXPECT_NE(testbed.node(kEngland), nullptr);
  EXPECT_NE(testbed.node(kIndia), nullptr);
  EXPECT_EQ(testbed.node(kChina), nullptr);  // Client-only site.
  EXPECT_EQ(testbed.primary_site(), kEngland);
  EXPECT_TRUE(
      testbed.node(kEngland)->FindTablet(kTableName, "k")->is_primary());
  EXPECT_FALSE(testbed.node(kUs)->FindTablet(kTableName, "k")->is_primary());
}

TEST(GeoTestbedTest, ReplicationPropagatesWithinOnePeriod) {
  GeoTestbed testbed(FastGeoOptions());
  testbed.StartReplication();

  auto* primary = testbed.node(kEngland)->FindTablet(kTableName, "");
  ASSERT_TRUE(primary->HandlePut("k", "v").ok());

  auto* us = testbed.node(kUs)->FindTablet(kTableName, "");
  EXPECT_FALSE(us->HandleGet("k").found);

  // One period + one WAN round trip is plenty.
  testbed.env().RunFor(SecondsToMicroseconds(11));
  EXPECT_TRUE(us->HandleGet("k").found);
  EXPECT_TRUE(
      testbed.node(kIndia)->FindTablet(kTableName, "")->HandleGet("k").found);
  EXPECT_GE(testbed.replication_rounds(), 2u);
}

TEST(GeoTestbedTest, IdleHeartbeatsAdvanceSecondaries) {
  GeoTestbed testbed(FastGeoOptions());
  testbed.StartReplication();
  auto* us = testbed.node(kUs)->FindTablet(kTableName, "");
  testbed.env().RunFor(SecondsToMicroseconds(11));
  const Timestamp first = us->high_timestamp();
  EXPECT_GT(first, Timestamp::Zero());
  testbed.env().RunFor(SecondsToMicroseconds(10));
  EXPECT_GT(us->high_timestamp(), first);  // No Puts, yet it advances.
}

TEST(GeoTestbedTest, ClientGetLatencyTracksRttMatrix) {
  GeoTestbed testbed(FastGeoOptions());
  PreloadKeys(testbed, 100);
  testbed.StartReplication();

  core::PileusClient::Options options;
  auto client = testbed.MakeClient(kUs, options);
  core::Session session =
      client->client()
          .BeginSession(SingleConsistencySla(Guarantee::Strong()))
          .value();
  Result<core::GetResult> result =
      client->client().Get(session, workload::YcsbWorkload::KeyForIndex(1));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome.node_name, kEngland);
  EXPECT_TRUE(result->outcome.from_primary);
  // US <-> England is ~147 ms.
  EXPECT_NEAR(static_cast<double>(result->outcome.rtt_us),
              MillisecondsToMicroseconds(147), 20000.0);
}

TEST(GeoTestbedTest, EventualReadsStayLocal) {
  GeoTestbed testbed(FastGeoOptions());
  PreloadKeys(testbed, 100);
  testbed.StartReplication();
  auto client = testbed.MakeClient(kUs, core::PileusClient::Options{});
  core::Session session =
      client->client()
          .BeginSession(SingleConsistencySla(Guarantee::Eventual()))
          .value();
  // Warm up the monitor, then check routing.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        client->client()
            .Get(session, workload::YcsbWorkload::KeyForIndex(i))
            .ok());
  }
  Result<core::GetResult> result =
      client->client().Get(session, workload::YcsbWorkload::KeyForIndex(50));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome.node_name, kUs);
  EXPECT_LT(result->outcome.rtt_us, MillisecondsToMicroseconds(5));
}

TEST(GeoTestbedTest, ReadMyWritesVisibleThroughLocalNodeAfterSync) {
  GeoTestbed testbed(FastGeoOptions());
  PreloadKeys(testbed, 100);
  testbed.StartReplication();
  auto client = testbed.MakeClient(kUs, core::PileusClient::Options{});
  core::Session session =
      client->client()
          .BeginSession(SingleConsistencySla(Guarantee::ReadMyWrites()))
          .value();
  ASSERT_TRUE(client->client().Put(session, "mine", "my-value").ok());

  // Immediately after the Put only the primary can satisfy RMW.
  Result<core::GetResult> before = client->client().Get(session, "mine");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->value, "my-value");
  EXPECT_EQ(before->outcome.node_name, kEngland);

  // After a replication period the local secondary catches up; piggybacked
  // evidence or probes tell the client.
  testbed.env().RunFor(SecondsToMicroseconds(25));
  client->client().monitor().RecordHighTimestamp(
      kUs, testbed.node(kUs)->FindTablet(kTableName, "")->high_timestamp());
  Result<core::GetResult> after = client->client().Get(session, "mine");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->value, "my-value");
  EXPECT_EQ(after->outcome.node_name, kUs);
}

TEST(GeoTestbedTest, LatencyInjectionIsVisibleToClients) {
  GeoTestbed testbed(FastGeoOptions());
  PreloadKeys(testbed, 100);
  testbed.StartReplication();
  auto client = testbed.MakeClient(kUs, core::PileusClient::Options{});
  core::Session session =
      client->client()
          .BeginSession(SingleConsistencySla(Guarantee::Strong()))
          .value();
  Result<core::GetResult> before = client->client().Get(session, "k");
  ASSERT_TRUE(before.ok());

  testbed.SetRttDelta(kUs, kEngland, MillisecondsToMicroseconds(300));
  Result<core::GetResult> during = client->client().Get(session, "k");
  ASSERT_TRUE(during.ok());
  EXPECT_GT(during->outcome.rtt_us,
            before->outcome.rtt_us + MillisecondsToMicroseconds(250));

  testbed.SetRttDelta(kUs, kEngland, 0);
  Result<core::GetResult> after = client->client().Get(session, "k");
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->outcome.rtt_us, MillisecondsToMicroseconds(200));
}

TEST(GeoTestbedTest, ProbesPopulateMonitorWithoutForegroundTraffic) {
  GeoTestbed testbed(FastGeoOptions());
  PreloadKeys(testbed, 10);
  testbed.StartReplication();
  auto client = testbed.MakeClient(kChina, core::PileusClient::Options{});
  client->StartProbing();
  testbed.env().RunFor(SecondsToMicroseconds(30));
  // All three nodes have been probed: latency and staleness known.
  for (const char* node : {kUs, kEngland, kIndia}) {
    EXPECT_GT(client->client().monitor().MeanLatency(node), 0) << node;
    EXPECT_GT(client->client().monitor().KnownHighTimestamp(node),
              Timestamp::Zero())
        << node;
  }
  EXPECT_GT(client->probes_sent(), 0u);
  client->StopProbing();
}

TEST(GeoTestbedTest, TriggerFailoverRetargetsReplicationAndClients) {
  GeoTestbed testbed(FastGeoOptions());
  PreloadKeys(testbed, 10);
  const Status status = testbed.TriggerFailover(kUs);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(testbed.primary_site(), kUs);
  testbed.StartReplication();

  EXPECT_TRUE(testbed.node(kUs)->FindTablet(kTableName, "")->is_primary());
  EXPECT_FALSE(
      testbed.node(kEngland)->FindTablet(kTableName, "")->is_primary());

  auto client = testbed.MakeClient(kUs, core::PileusClient::Options{});
  core::Session session =
      client->client()
          .BeginSession(SingleConsistencySla(Guarantee::Strong()))
          .value();
  ASSERT_TRUE(client->client().Put(session, "k", "v").ok());
  Result<core::GetResult> result = client->client().Get(session, "k");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome.node_name, kUs);
  EXPECT_LT(result->outcome.rtt_us, MillisecondsToMicroseconds(5));

  // The old primary receives the new data via replication.
  testbed.env().RunFor(SecondsToMicroseconds(11));
  EXPECT_TRUE(testbed.node(kEngland)
                  ->FindTablet(kTableName, "")
                  ->HandleGet("k")
                  .found);
}

TEST(GeoTestbedTest, SyncReplicasServeLocalStrongReads) {
  GeoTestbedOptions options = FastGeoOptions();
  options.sync_replica_count = 2;  // England + US.
  GeoTestbed testbed(options);
  PreloadKeys(testbed, 10);
  testbed.StartReplication();

  auto client = testbed.MakeClient(kUs, core::PileusClient::Options{});
  core::Session session =
      client->client()
          .BeginSession(SingleConsistencySla(Guarantee::Strong()))
          .value();
  // The Put pays the sync fan-out...
  Result<core::PutResult> put = client->client().Put(session, "k", "v");
  ASSERT_TRUE(put.ok());
  EXPECT_GT(put->rtt_us, MillisecondsToMicroseconds(250));

  // ...and the strong read is then served by the local sync replica.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client->client().Get(session, "k").ok());
  }
  Result<core::GetResult> result = client->client().Get(session, "k");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome.node_name, kUs);
  EXPECT_TRUE(result->outcome.from_primary);
  EXPECT_EQ(result->value, "v");
}

TEST(GeoTestbedTest, DeleteReplicatesAndHonorsReadMyWrites) {
  GeoTestbed testbed(FastGeoOptions());
  PreloadKeys(testbed, 100);
  testbed.StartReplication();
  auto client = testbed.MakeClient(kUs, core::PileusClient::Options{});
  client->StartProbing();
  core::Session session =
      client->client()
          .BeginSession(SingleConsistencySla(Guarantee::ReadMyWrites()))
          .value();

  const std::string key = workload::YcsbWorkload::KeyForIndex(7);
  // The preloaded key exists, then this session deletes it. Read-my-writes
  // must observe the deletion immediately, even though the local secondary
  // still holds the old value.
  Result<core::GetResult> before = client->client().Get(session, key);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->found);

  ASSERT_TRUE(client->client().Delete(session, key).ok());
  Result<core::GetResult> after = client->client().Get(session, key);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->found);
  EXPECT_EQ(after->outcome.met_rank, 0);  // RMW satisfied (via the primary).

  // Replication spreads the tombstone to secondaries.
  testbed.env().RunFor(SecondsToMicroseconds(11));
  EXPECT_FALSE(
      testbed.node(kUs)->FindTablet(kTableName, "")->HandleGet(key).found);
  EXPECT_FALSE(
      testbed.node(kIndia)->FindTablet(kTableName, "")->HandleGet(key).found);
}

TEST(GeoTestbedTest, MonotonicNeverResurrectsDeletedValues) {
  // After observing a deletion (not-found with a tombstone timestamp), a
  // monotonic session must never see the old live value again, even from a
  // stale secondary.
  GeoTestbed testbed(FastGeoOptions());
  PreloadKeys(testbed, 100);
  testbed.StartReplication();
  auto client = testbed.MakeClient(kUs, core::PileusClient::Options{});
  client->StartProbing();
  core::Session session =
      client->client()
          .BeginSession(SingleConsistencySla(Guarantee::Monotonic()))
          .value();

  const std::string key = workload::YcsbWorkload::KeyForIndex(3);
  // Delete at the primary, then observe the deletion via a strong read.
  ASSERT_TRUE(client->client().Delete(session, key).ok());
  Result<core::GetResult> observed = client->client().Get(
      session, key, SingleConsistencySla(Guarantee::Strong()));
  ASSERT_TRUE(observed.ok());
  EXPECT_FALSE(observed->found);

  // Monotonic reads for the rest of the session (the local secondary still
  // holds the live value until replication catches up) must stay not-found.
  for (int i = 0; i < 20; ++i) {
    Result<core::GetResult> result = client->client().Get(session, key);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->found) << "resurrected deleted value on read " << i;
    testbed.env().RunFor(MillisecondsToMicroseconds(200));
  }
}

TEST(GeoTestbedTest, RangeScanOverSimTestbed) {
  GeoTestbed testbed(FastGeoOptions());
  PreloadKeys(testbed, 100);
  testbed.StartReplication();
  auto client = testbed.MakeClient(kUs, core::PileusClient::Options{});
  client->StartProbing();
  testbed.env().RunFor(SecondsToMicroseconds(12));  // One replication round.
  core::Session session =
      client->client()
          .BeginSession(SingleConsistencySla(Guarantee::Eventual()))
          .value();
  Result<core::RangeResult> result = client->client().GetRange(
      session, workload::YcsbWorkload::KeyForIndex(10),
      workload::YcsbWorkload::KeyForIndex(20), 0);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->items.size(), 10u);
  EXPECT_EQ(result->outcome.met_rank, 0);
  EXPECT_EQ(result->items.front().key,
            workload::YcsbWorkload::KeyForIndex(10));
}

TEST(GeoTestbedTest, NodeFailureIsRoutedAround) {
  GeoTestbed testbed(FastGeoOptions());
  PreloadKeys(testbed, 100);
  testbed.StartReplication();
  auto client = testbed.MakeClient(kUs, core::PileusClient::Options{});
  client->StartProbing();
  core::Session session =
      client->client()
          .BeginSession(SingleConsistencySla(Guarantee::Eventual()))
          .value();
  // Warm up: reads go to the local US node.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        client->client()
            .Get(session, workload::YcsbWorkload::KeyForIndex(i))
            .ok());
  }

  testbed.SetNodeDown(kUs, true);
  // Every Get during the outage still returns data (availability retries +
  // PNodeUp-driven selection route around the dead node).
  for (int i = 0; i < 20; ++i) {
    Result<core::GetResult> result =
        client->client().Get(session, workload::YcsbWorkload::KeyForIndex(i));
    ASSERT_TRUE(result.ok()) << i << ": " << result.status();
    EXPECT_TRUE(result->found);
    EXPECT_NE(result->outcome.node_name, kUs);
  }

  // After recovery, probes rediscover the local node and reads return home.
  testbed.SetNodeDown(kUs, false);
  testbed.env().RunFor(SecondsToMicroseconds(120));
  bool back_home = false;
  for (int i = 0; i < 30 && !back_home; ++i) {
    Result<core::GetResult> result =
        client->client().Get(session, workload::YcsbWorkload::KeyForIndex(i));
    ASSERT_TRUE(result.ok());
    back_home = result->outcome.node_name == kUs;
    testbed.env().RunFor(SecondsToMicroseconds(5));
  }
  EXPECT_TRUE(back_home);
}

TEST(GeoTestbedTest, CrashedNodeRecoversStalenessAndLocalRouting) {
  // Crash (silent, volatile state lost) instead of SetNodeDown (fast, clean
  // kUnavailable): the client must survive the outage window, and after
  // RestartNode the node must catch up on staleness via replication before
  // probes route reads back to it.
  GeoTestbed testbed(FastGeoOptions());
  PreloadKeys(testbed, 100);
  testbed.StartReplication();
  auto client = testbed.MakeClient(kChina, core::PileusClient::Options{});
  client->StartProbing();
  core::Session session =
      client->client()
          .BeginSession(core::Sla()
                            .Add(Guarantee::Eventual(),
                                 MillisecondsToMicroseconds(400), 1.0)
                            .Add(Guarantee::Eventual(),
                                 SecondsToMicroseconds(2), 0.1))
          .value();
  // Warm up: China's reads settle on the US node (its closest replica).
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        client->client()
            .Get(session, workload::YcsbWorkload::KeyForIndex(i))
            .ok());
  }

  testbed.CrashNode(kUs);
  // The outage is silent, so the first Get burns its whole deadline before
  // the monitor learns anything; after that reads are served elsewhere.
  int failures = 0;
  for (int i = 0; i < 15; ++i) {
    Result<core::GetResult> result =
        client->client().Get(session, workload::YcsbWorkload::KeyForIndex(i));
    if (!result.ok()) {
      ++failures;
      continue;
    }
    EXPECT_TRUE(result->found);
    EXPECT_NE(result->outcome.node_name, kUs);
  }
  EXPECT_GE(failures, 1);
  EXPECT_LE(failures, 6);

  // A write lands at the primary while the node is dead: the restarted node
  // comes back both empty and stale.
  ASSERT_TRUE(client->client().Put(session, "fresh-key", "fresh").ok());
  const Timestamp fresh_high =
      testbed.primary_node()->FindTablet(kTableName, "")->high_timestamp();

  ASSERT_TRUE(testbed.RestartNode(kUs).ok());
  testbed.env().RunFor(SecondsToMicroseconds(120));
  // Replication caught the node up past the crash-window write...
  auto* us = testbed.node(kUs)->FindTablet(kTableName, "");
  EXPECT_TRUE(us->HandleGet("fresh-key").found);
  EXPECT_GE(us->high_timestamp(), fresh_high);
  // ...probes re-learned its staleness, and routing returned to the nearest
  // node.
  bool back_home = false;
  for (int i = 0; i < 30 && !back_home; ++i) {
    Result<core::GetResult> result =
        client->client().Get(session, workload::YcsbWorkload::KeyForIndex(i));
    ASSERT_TRUE(result.ok());
    back_home = result->outcome.node_name == kUs;
    testbed.env().RunFor(SecondsToMicroseconds(5));
  }
  EXPECT_TRUE(back_home);
  EXPECT_GT(client->client().monitor().KnownHighTimestamp(kUs),
            Timestamp::Zero());
}

TEST(GeoTestbedTest, PrimaryFailureKillsPutsButNotWeakReads) {
  GeoTestbed testbed(FastGeoOptions());
  PreloadKeys(testbed, 100);
  testbed.StartReplication();
  auto client = testbed.MakeClient(kUs, core::PileusClient::Options{});
  core::Session session =
      client->client().BeginSession(core::ShoppingCartSla()).value();

  testbed.SetNodeDown(kEngland, true);
  EXPECT_FALSE(client->client().Put(session, "k", "v").ok());
  Result<core::GetResult> result =
      client->client().Get(session, workload::YcsbWorkload::KeyForIndex(3));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->found);
}

// --- Live reconfiguration (Section 6.2) ---

TEST(GeoTestbedTest, TriggerFailoverMovesRoleAndRedirectsClients) {
  GeoTestbedOptions options = FastGeoOptions();
  options.sync_replica_count = 2;  // US holds the complete prefix: lossless.
  GeoTestbed testbed(options);
  PreloadKeys(testbed, 10);
  testbed.StartReplication();
  testbed.StartReconfiguration();
  EXPECT_EQ(testbed.current_config().epoch, 1u);
  EXPECT_EQ(testbed.current_config().primary, kEngland);

  auto client = testbed.MakeClient(kUs, core::PileusClient::Options{});
  core::Session session =
      client->client().BeginSession(core::ShoppingCartSla()).value();
  ASSERT_TRUE(client->client().Put(session, "before", "v1").ok());

  ASSERT_TRUE(testbed.TriggerFailover(kUs).ok());
  EXPECT_EQ(testbed.primary_site(), kUs);
  EXPECT_EQ(testbed.current_config().epoch, 2u);
  EXPECT_EQ(testbed.failovers(), 1u);
  EXPECT_TRUE(testbed.node(kUs)->FindTablet(kTableName, "")->is_primary());
  EXPECT_FALSE(
      testbed.node(kEngland)->FindTablet(kTableName, "")->is_primary());

  // A write routed at the demoted primary bounces with the redirect payload.
  proto::PutRequest put;
  put.table = kTableName;
  put.key = "direct";
  put.value = "v";
  proto::Message bounced = testbed.node(kEngland)->Handle(put);
  const auto* err = std::get_if<proto::ErrorReply>(&bounced);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, StatusCode::kNotPrimary);
  EXPECT_EQ(err->config_epoch, 2u);
  EXPECT_EQ(err->primary_hint, kUs);

  // The epoch-1 client redirects its next Put transparently and keeps its
  // session guarantees across the epochs.
  ASSERT_TRUE(client->client().Put(session, "after", "v2").ok());
  Result<core::GetResult> new_write = client->client().Get(session, "after");
  ASSERT_TRUE(new_write.ok());
  EXPECT_EQ(new_write->value, "v2");
  Result<core::GetResult> old_write = client->client().Get(session, "before");
  ASSERT_TRUE(old_write.ok());
  EXPECT_EQ(old_write->value, "v1");  // Read-my-writes spans the failover.
}

TEST(GeoTestbedTest, AutoFailoverPromotesSyncMemberOnPrimaryCrash) {
  GeoTestbedOptions options = FastGeoOptions();
  options.sync_replica_count = 2;  // England primary + US sync.
  options.enable_failover = true;
  GeoTestbed testbed(options);
  PreloadKeys(testbed, 50);
  testbed.StartReplication();
  testbed.StartReconfiguration();

  auto client = testbed.MakeClient(kUs, core::PileusClient::Options{});
  core::Session session =
      client->client().BeginSession(core::ShoppingCartSla()).value();
  ASSERT_TRUE(client->client().Put(session, "acked", "v").ok());

  testbed.CrashNode(kEngland);
  // Detection needs missed_heartbeats_to_fail (3) periods of 500 ms; give
  // the coordinator a few extra rounds.
  testbed.env().RunFor(SecondsToMicroseconds(5));

  EXPECT_GE(testbed.failovers(), 1u);
  EXPECT_GE(testbed.current_config().epoch, 2u);
  // The sync member holds the highest durable timestamp, so it wins.
  EXPECT_EQ(testbed.primary_site(), kUs);
  // No acked write lost: the promoted primary serves it...
  EXPECT_TRUE(testbed.primary_node()
                  ->FindTablet(kTableName, "")
                  ->HandleGet("acked")
                  .found);
  // ...and accepts new writes in the new epoch.
  proto::PutRequest put;
  put.table = kTableName;
  put.key = "post-failover";
  put.value = "v";
  EXPECT_TRUE(std::holds_alternative<proto::PutReply>(
      testbed.primary_node()->Handle(put)));
}

TEST(GeoTestbedTest, RestartedExPrimaryRejoinsFencedAsSecondary) {
  GeoTestbedOptions options = FastGeoOptions();
  options.sync_replica_count = 2;
  options.enable_failover = true;
  GeoTestbed testbed(options);
  PreloadKeys(testbed, 10);
  testbed.StartReplication();
  testbed.StartReconfiguration();

  testbed.CrashNode(kEngland);
  testbed.env().RunFor(SecondsToMicroseconds(5));
  ASSERT_GE(testbed.failovers(), 1u);
  const uint64_t epoch = testbed.current_config().epoch;

  ASSERT_TRUE(testbed.RestartNode(kEngland).ok());
  // The restarted ex-primary rejoins under the current epoch, demoted.
  auto installed = testbed.node(kEngland)->InstalledTabletMap(kTableName);
  ASSERT_TRUE(installed.has_value());
  EXPECT_EQ(installed->tablets.front().config.epoch, epoch);
  EXPECT_NE(installed->tablets.front().config.primary, kEngland);

  proto::PutRequest put;
  put.table = kTableName;
  put.key = "stale-route";
  put.value = "v";
  proto::Message reply = testbed.node(kEngland)->Handle(put);
  const auto* err = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, StatusCode::kNotPrimary);
  EXPECT_EQ(err->primary_hint, testbed.primary_site());

  // As a plain secondary it catches up via replication.
  proto::PutRequest fresh;
  fresh.table = kTableName;
  fresh.key = "fresh";
  fresh.value = "v";
  ASSERT_TRUE(std::holds_alternative<proto::PutReply>(
      testbed.primary_node()->Handle(fresh)));
  testbed.env().RunFor(SecondsToMicroseconds(25));
  EXPECT_TRUE(testbed.node(kEngland)
                  ->FindTablet(kTableName, "")
                  ->HandleGet("fresh")
                  .found);
}

TEST(GeoTestbedTest, RunsAreDeterministic) {
  auto run = [] {
    ComparisonOptions options;
    options.sla = core::ShoppingCartSla();
    options.total_ops = 500;
    options.warmup_ops = 100;
    options.seed = 5;
    return RunStrategyCell(kIndia, core::ReadStrategy::kPileus, options)
        .AvgUtility();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(GeoTestbedTest, PileusMatchesOrBeatsFixedSchemes) {
  // The paper's headline (Section 5.6): at every site, Pileus delivers at
  // least the utility of the best fixed scheme. Mini version of Fig 11/12.
  for (const char* site : {kUs, kIndia, kChina}) {
    ComparisonOptions options;
    options.sla = core::PasswordCheckingSla();
    options.total_ops = 1500;
    options.warmup_ops = 500;
    options.seed = 21;
    double best_fixed = 0.0;
    for (core::ReadStrategy strategy :
         {core::ReadStrategy::kPrimary, core::ReadStrategy::kRandom,
          core::ReadStrategy::kClosest}) {
      best_fixed = std::max(best_fixed,
                            RunStrategyCell(site, strategy, options)
                                .AvgUtility());
    }
    const double pileus =
        RunStrategyCell(site, core::ReadStrategy::kPileus, options)
            .AvgUtility();
    EXPECT_GE(pileus + 0.02, best_fixed) << "site " << site;
  }
}

}  // namespace
}  // namespace pileus::experiments
