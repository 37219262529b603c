// Fault-injection coverage: unit tests for the FaultInjector rule engine and
// one deterministic virtual-time test per fault class on the GeoTestbed
// (silent drops, gray slowness, asymmetric partitions, payload corruption,
// crash + WAL recovery), plus the in-process transport hookup.

#include <gtest/gtest.h>

#include <string>

#include "src/common/random.h"
#include "src/core/sla.h"
#include "src/experiments/geo_testbed.h"
#include "src/experiments/runner.h"
#include "src/net/inproc.h"
#include "src/proto/messages.h"
#include "src/sim/fault_injector.h"
#include "src/storage/storage_node.h"
#include "tests/scoped_temp_dir.h"

namespace pileus {
namespace {

using core::Guarantee;
using experiments::GeoTestbed;
using experiments::GeoTestbedOptions;
using experiments::kChina;
using experiments::kEngland;
using experiments::kIndia;
using experiments::kTableName;
using experiments::kUs;
using experiments::PreloadKeys;
using experiments::SingleConsistencySla;

// ---------------------------------------------------------------------------
// FaultInjector rule engine (no testbed).
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, NodeRuleAffectsBothDirections) {
  sim::FaultInjector faults;
  Random rng(1);
  faults.SetSilentDrop("B", 1.0);
  EXPECT_TRUE(faults.OnMessage("A", "B", rng).drop);
  EXPECT_TRUE(faults.OnMessage("B", "A", rng).drop);
  EXPECT_FALSE(faults.OnMessage("A", "C", rng).drop);
  EXPECT_TRUE(faults.Affects("A", "B"));
  EXPECT_TRUE(faults.Affects("B", "A"));
  EXPECT_FALSE(faults.Affects("A", "C"));
}

TEST(FaultInjectorTest, LinkRuleIsDirected) {
  sim::FaultInjector faults;
  Random rng(1);
  faults.SetPartition("A", "B", true);
  EXPECT_TRUE(faults.OnMessage("A", "B", rng).drop);
  EXPECT_FALSE(faults.OnMessage("B", "A", rng).drop);  // Asymmetric.
  EXPECT_TRUE(faults.Affects("A", "B"));
  EXPECT_FALSE(faults.Affects("B", "A"));
  faults.SetPartition("A", "B", false);
  EXPECT_FALSE(faults.OnMessage("A", "B", rng).drop);
  EXPECT_FALSE(faults.Affects("A", "B"));
}

TEST(FaultInjectorTest, RulesCombine) {
  sim::FaultInjector faults;
  Random rng(1);
  // Node and link multipliers multiply; drop anywhere wins over everything.
  faults.SetGrayNode("G", 4.0);
  sim::FaultRule link;
  link.latency_multiplier = 2.0;
  faults.SetLinkRule("G", "H", link);
  sim::FaultDecision decision = faults.OnMessage("G", "H", rng);
  EXPECT_FALSE(decision.drop);
  EXPECT_DOUBLE_EQ(decision.latency_multiplier, 8.0);
  // The reverse direction only sees the node rule.
  EXPECT_DOUBLE_EQ(faults.OnMessage("H", "G", rng).latency_multiplier, 4.0);

  faults.CrashNode("H");
  decision = faults.OnMessage("G", "H", rng);
  EXPECT_TRUE(decision.drop);
  // A dropped message reports no other effects.
  EXPECT_FALSE(decision.corrupt);
  EXPECT_DOUBLE_EQ(decision.latency_multiplier, 1.0);
  EXPECT_GE(faults.messages_dropped(), 1u);
  EXPECT_GE(faults.messages_slowed(), 2u);
}

TEST(FaultInjectorTest, CrashAndRecoverSugar) {
  sim::FaultInjector faults;
  Random rng(1);
  faults.CrashNode("N");
  EXPECT_TRUE(faults.IsCrashed("N"));
  EXPECT_TRUE(faults.OnMessage("X", "N", rng).drop);
  faults.RecoverNode("N");
  EXPECT_FALSE(faults.IsCrashed("N"));
  EXPECT_FALSE(faults.OnMessage("X", "N", rng).drop);
  EXPECT_FALSE(faults.Affects("X", "N"));
}

TEST(FaultInjectorTest, CorruptFrameIsRejectedByCodecCrc) {
  // Flipped bytes in a real encoded frame must be caught by the wire CRC and
  // surface as a clean decode error - the contract every corruption path in
  // the transports relies on.
  proto::PutRequest request;
  request.table = "t";
  request.key = "some-key";
  request.value = std::string(200, 'v');
  const std::string original = proto::EncodeMessage(request);
  Random rng(99);
  int rejected = 0;
  for (int i = 0; i < 50; ++i) {
    std::string frame = original;
    sim::FaultInjector::CorruptFrame(frame, rng);
    EXPECT_EQ(frame.size(), original.size());
    EXPECT_NE(frame, original);
    if (!proto::DecodeMessage(frame).ok()) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 50);  // CRC-32 catches every 1-3 byte flip.
}

TEST(FaultInjectorTest, InProcTransportConsultsInjector) {
  net::InProcNetwork network;
  storage::StorageNode node("n1", "site", RealClock::Instance());
  storage::Tablet::Options tablet_options;
  tablet_options.range = KeyRange::All();
  tablet_options.is_primary = true;
  ASSERT_TRUE(node.AddTablet("t", tablet_options).ok());
  network.RegisterEndpoint(
      "n1", [&node](const proto::Message& m) { return node.Handle(m); });

  sim::FaultInjector faults;
  network.SetFaultInjector(&faults);
  auto channel = network.Connect("n1", 0, "client");

  proto::GetRequest get;
  get.table = "t";
  get.key = "k";
  // Healthy: the call goes through.
  EXPECT_TRUE(channel->Call(get, MillisecondsToMicroseconds(200)).ok());

  // Reply corruption (link rule so the request arrives intact): the client
  // codec rejects the damaged frame with a clean kCorruption.
  sim::FaultRule corrupt;
  corrupt.corrupt_probability = 1.0;
  faults.SetLinkRule("n1", "client", corrupt);
  Result<proto::Message> corrupted =
      channel->Call(get, MillisecondsToMicroseconds(200));
  ASSERT_FALSE(corrupted.ok());
  EXPECT_EQ(corrupted.status().code(), StatusCode::kCorruption);
  faults.ClearLinkRule("n1", "client");

  // Silent drop: the caller learns nothing until the deadline expires.
  faults.SetSilentDrop("n1", 1.0);
  Result<proto::Message> dropped =
      channel->Call(get, MillisecondsToMicroseconds(20));
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kTimeout);

  // Healing the injector restores service on the same channel.
  faults.RecoverNode("n1");
  EXPECT_TRUE(channel->Call(get, MillisecondsToMicroseconds(200)).ok());
}

// ---------------------------------------------------------------------------
// GeoTestbed integration: one deterministic virtual-time scenario per fault
// class. Clients sit in China (client-only site) so node faults never also
// affect the client's own endpoint name.
// ---------------------------------------------------------------------------

GeoTestbedOptions FastOptions() {
  GeoTestbedOptions options;
  options.seed = 7;
  options.replication_period_us = SecondsToMicroseconds(10);
  return options;
}

// An availability-shaped SLA with a shortened tail so a silent drop burns two
// virtual seconds, not the paper's "unbounded" hour, per failed attempt.
core::Sla AvailabilitySla() {
  return core::Sla()
      .Add(Guarantee::Eventual(), MillisecondsToMicroseconds(400), 1.0)
      .Add(Guarantee::Eventual(), SecondsToMicroseconds(2), 0.1);
}

struct WarmClient {
  std::unique_ptr<experiments::GeoClient> client;
  core::Session session;
};

// Builds a China client, lets probes populate the monitor, and routes a few
// Gets so selection has settled (on the US node, China's best candidate).
WarmClient MakeWarmChinaClient(GeoTestbed& testbed) {
  auto client = testbed.MakeClient(kChina, core::PileusClient::Options{});
  client->StartProbing();
  testbed.env().RunFor(SecondsToMicroseconds(30));
  core::Session session =
      client->client().BeginSession(AvailabilitySla()).value();
  for (int i = 0; i < 10; ++i) {
    auto result =
        client->client().Get(session, workload::YcsbWorkload::KeyForIndex(i));
    EXPECT_TRUE(result.ok());
  }
  return WarmClient{std::move(client), std::move(session)};
}

TEST(FaultGeoTest, SilentDropTripsBreakerAndIsRoutedAround) {
  GeoTestbed testbed(FastOptions());
  PreloadKeys(testbed, 100);
  testbed.StartReplication();
  WarmClient warm = MakeWarmChinaClient(testbed);
  core::PileusClient& client = warm.client->client();

  testbed.faults().SetSilentDrop(kUs, 1.0);
  int failures = 0;
  int successes_elsewhere = 0;
  for (int i = 0; i < 30; ++i) {
    Result<core::GetResult> result =
        client.Get(warm.session, workload::YcsbWorkload::KeyForIndex(i));
    if (!result.ok()) {
      // A silent drop consumes the whole SLA deadline: the only evidence is
      // the expiry itself, never a fast error.
      ++failures;
      continue;
    }
    EXPECT_TRUE(result->found);
    if (result->outcome.node_name != kUs) {
      ++successes_elsewhere;
    }
  }
  // The first expiry poisons the latency window, so routing abandons the
  // node after at most a handful of wasted deadlines; from then on every Get
  // is served by the remaining replicas.
  EXPECT_GE(failures, 1);
  EXPECT_LE(failures, 6);
  EXPECT_GE(successes_elsewhere, 20);
  EXPECT_GT(testbed.faults().messages_dropped(), 0u);
  EXPECT_LT(client.monitor().PNodeUp(kUs), 1.0);

  // With foreground traffic gone, background probes keep checking the node;
  // their consecutive expiries trip the circuit breaker, which then
  // oscillates open <-> half-open (each probation probe drops too) but
  // never closes while the fault holds.
  testbed.env().RunFor(SecondsToMicroseconds(60));
  EXPECT_GE(client.monitor().breaker_trips(), 1u);
  EXPECT_NE(client.monitor().Breaker(kUs), core::Monitor::BreakerState::kClosed);

  // Recovery: the half-open probation probe succeeds, the breaker closes,
  // and reads migrate back to the nearest node.
  testbed.faults().RecoverNode(kUs);
  testbed.env().RunFor(SecondsToMicroseconds(120));
  bool back_home = false;
  for (int i = 0; i < 30 && !back_home; ++i) {
    Result<core::GetResult> result =
        client.Get(warm.session, workload::YcsbWorkload::KeyForIndex(i));
    ASSERT_TRUE(result.ok());
    back_home = result->outcome.node_name == kUs;
    testbed.env().RunFor(SecondsToMicroseconds(5));
  }
  EXPECT_TRUE(back_home);
}

TEST(FaultGeoTest, GrayNodeSlowsRepliesAndRoutingShiftsAway) {
  GeoTestbed testbed(FastOptions());
  PreloadKeys(testbed, 100);
  testbed.StartReplication();
  WarmClient warm = MakeWarmChinaClient(testbed);
  core::PileusClient& client = warm.client->client();

  // 6x slower: China-US round trips stretch from ~160 ms to ~1 s - inside
  // the 2 s tail, so the node still answers (a gray failure, not an outage).
  testbed.faults().SetGrayNode(kUs, 6.0);
  Result<core::GetResult> first =
      client.Get(warm.session, workload::YcsbWorkload::KeyForIndex(0));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->outcome.node_name, kUs);
  EXPECT_GT(first->outcome.rtt_us, MillisecondsToMicroseconds(500));
  EXPECT_EQ(first->outcome.met_rank, 1);  // Missed the 400 ms rank.

  // The inflated samples push PNodeLat(US) down and selection moves to the
  // next-closest replica, which now delivers rank 0 again.
  Result<core::GetResult> settled{Status(StatusCode::kInternal, "")};
  for (int i = 1; i <= 10; ++i) {
    settled = client.Get(warm.session, workload::YcsbWorkload::KeyForIndex(i));
    ASSERT_TRUE(settled.ok());
  }
  EXPECT_EQ(settled->outcome.node_name, kIndia);
  EXPECT_EQ(settled->outcome.met_rank, 0);
  EXPECT_GT(testbed.faults().messages_slowed(), 0u);
}

TEST(FaultGeoTest, AsymmetricPartitionBlocksOneDirectionOnly) {
  GeoTestbed testbed(FastOptions());
  PreloadKeys(testbed, 100);
  testbed.StartReplication();
  WarmClient warm = MakeWarmChinaClient(testbed);
  core::PileusClient& client = warm.client->client();

  // Block England -> China: requests still reach the primary, replies die.
  testbed.faults().SetPartition(kEngland, kChina, true);

  // The Put times out on every bounded retry attempt...
  Result<core::PutResult> put = client.Put(warm.session, "partition-key", "v");
  EXPECT_FALSE(put.ok());
  // ...yet the forward direction worked: the write committed at the primary.
  // Exactly the trap of an asymmetric partition - a timed-out write is not
  // a failed write.
  EXPECT_TRUE(testbed.node(kEngland)
                  ->FindTablet(kTableName, "")
                  ->HandleGet("partition-key")
                  .found);

  // Reads are unaffected: the eventual tail is served by the secondaries.
  Result<core::GetResult> read =
      client.Get(warm.session, workload::YcsbWorkload::KeyForIndex(1));
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->found);
  EXPECT_NE(read->outcome.node_name, kEngland);

  // Healing the one directed link restores writes end to end.
  testbed.faults().SetPartition(kEngland, kChina, false);
  EXPECT_TRUE(client.Put(warm.session, "partition-key", "v2").ok());
}

TEST(FaultGeoTest, CorruptedRepliesFailCleanAndGetRetriesElsewhere) {
  GeoTestbed testbed(FastOptions());
  PreloadKeys(testbed, 100);
  testbed.StartReplication();
  WarmClient warm = MakeWarmChinaClient(testbed);
  core::PileusClient& client = warm.client->client();

  // Corrupt only US -> China reply frames (a link rule, so requests arrive
  // intact). Unlike a silent drop, the client hears back quickly - with a
  // frame its codec's CRC rejects - so the same Get retries other replicas
  // within its deadline budget and still succeeds.
  sim::FaultRule corrupt;
  corrupt.corrupt_probability = 1.0;
  testbed.faults().SetLinkRule(kUs, kChina, corrupt);
  for (int i = 0; i < 10; ++i) {
    Result<core::GetResult> result =
        client.Get(warm.session, workload::YcsbWorkload::KeyForIndex(i));
    ASSERT_TRUE(result.ok()) << i << ": " << result.status();
    EXPECT_TRUE(result->found);
    EXPECT_NE(result->outcome.node_name, kUs);
  }
  EXPECT_GT(testbed.faults().messages_corrupted(), 0u);
  // The corruption failures fed the monitor: US reachability took a hit.
  EXPECT_LT(client.monitor().PNodeUp(kUs), 1.0);
}

TEST(FaultGeoTest, CrashLosesVolatileStateAndWalRestoresIt) {
  const ScopedTempDir wal_dir("pileus_fault_wal_");
  ASSERT_FALSE(wal_dir.path().empty());
  GeoTestbedOptions options = FastOptions();
  options.durable_root = wal_dir.path();
  GeoTestbed testbed(options);
  testbed.StartReplication();

  // Write through the client so every version flows through Serve and is
  // journaled (at the primary on accept, at secondaries on replication).
  auto client = testbed.MakeClient(kChina, core::PileusClient::Options{});
  core::Session session =
      client->client().BeginSession(AvailabilitySla()).value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client->client()
                    .Put(session, workload::YcsbWorkload::KeyForIndex(i), "d")
                    .ok());
  }
  testbed.env().RunFor(SecondsToMicroseconds(11));  // Replicate + journal.
  ASSERT_TRUE(testbed.node(kUs)
                  ->FindTablet(kTableName, "")
                  ->HandleGet(workload::YcsbWorkload::KeyForIndex(0))
                  .found);

  testbed.CrashNode(kUs);
  EXPECT_TRUE(testbed.IsNodeCrashed(kUs));
  EXPECT_EQ(testbed.node(kUs), nullptr);  // Volatile state is gone.

  // A write accepted while the node is down must arrive via catch-up later.
  ASSERT_TRUE(client->client().Put(session, "while-down", "late").ok());

  ASSERT_TRUE(testbed.RestartNode(kUs).ok());
  EXPECT_FALSE(testbed.IsNodeCrashed(kUs));
  storage::Tablet* us = testbed.node(kUs)->FindTablet(kTableName, "");
  // WAL replay restored everything journaled before the crash...
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(us->HandleGet(workload::YcsbWorkload::KeyForIndex(i)).found)
        << i;
  }
  // ...but not the write it slept through; replication catches that up.
  EXPECT_FALSE(us->HandleGet("while-down").found);
  testbed.env().RunFor(SecondsToMicroseconds(11));
  EXPECT_TRUE(us->HandleGet("while-down").found);
}

TEST(FaultGeoTest, CrashWithoutWalRecoversViaReplicationAlone) {
  GeoTestbed testbed(FastOptions());  // No durable_root: nothing survives.
  testbed.StartReplication();
  auto client = testbed.MakeClient(kChina, core::PileusClient::Options{});
  core::Session session =
      client->client().BeginSession(AvailabilitySla()).value();
  ASSERT_TRUE(client->client().Put(session, "k", "v").ok());
  testbed.env().RunFor(SecondsToMicroseconds(11));
  ASSERT_TRUE(
      testbed.node(kIndia)->FindTablet(kTableName, "")->HandleGet("k").found);

  testbed.CrashNode(kIndia);
  ASSERT_TRUE(testbed.RestartNode(kIndia).ok());
  storage::Tablet* india = testbed.node(kIndia)->FindTablet(kTableName, "");
  EXPECT_FALSE(india->HandleGet("k").found);  // Came back empty.
  testbed.env().RunFor(SecondsToMicroseconds(11));
  EXPECT_TRUE(india->HandleGet("k").found);  // Refilled from the primary.
}

TEST(FaultGeoTest, FaultRunsAreDeterministic) {
  auto run = [] {
    GeoTestbed testbed(FastOptions());
    PreloadKeys(testbed, 50);
    testbed.StartReplication();
    auto client = testbed.MakeClient(kChina, core::PileusClient::Options{});
    client->StartProbing();
    testbed.env().RunFor(SecondsToMicroseconds(20));
    core::Session session =
        client->client().BeginSession(AvailabilitySla()).value();
    testbed.faults().SetSilentDrop(kUs, 0.4);
    std::string pattern;
    for (int i = 0; i < 30; ++i) {
      Result<core::GetResult> result =
          client->client().Get(session, workload::YcsbWorkload::KeyForIndex(i));
      pattern.push_back(result.ok() ? 'o' + (result->outcome.node_name == kUs
                                                 ? 0
                                                 : 1)
                                    : 'x');
    }
    pattern += ':' + std::to_string(testbed.faults().messages_dropped());
    return pattern;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace pileus
