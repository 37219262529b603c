// Integration tests for the shared-monitoring control plane (DESIGN.md
// Section 12) over the real in-process transport: an AggregatorService
// endpoint on the InProcCluster network, warm clients reporting conditions,
// and cold clients ranking SLAs from the pushed digest with zero probes.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <variant>

#include "src/core/client.h"
#include "src/core/monitor.h"
#include "src/monitoring/aggregator.h"
#include "src/monitoring/digest.h"
#include "src/monitoring/service.h"
#include "src/net/inproc.h"
#include "src/proto/messages.h"
#include "tests/testbed_fixture.h"

namespace pileus {
namespace {

using core::Guarantee;
using core::PileusClient;
using core::Session;
using core::Sla;
using monitoring::AggregatorService;
using monitoring::MonitorAggregator;
using testbed::InProcCluster;

constexpr MicrosecondCount kMs = kMicrosecondsPerMillisecond;

// Strong within 5 ms (utility 1.0) vs eventual within 50 ms (utility 0.5).
// On the InProcCluster the primary's ~20 ms round trip breaks the strong
// bound while the 1 ms local secondary easily meets the eventual one, so a
// correctly informed client targets rank 1 and an optimistic blank one
// targets rank 0.
Sla SplitSla() {
  return Sla()
      .Add(Guarantee::Strong(), 5 * kMs, 1.0)
      .Add(Guarantee::Eventual(), 50 * kMs, 0.5);
}

// Registers `service` as its own endpoint named "aggregator". A crash is
// simulated by unregistering the endpoint: calls then fail kUnavailable,
// exactly like a dead process.
void RegisterAggregator(InProcCluster& cluster, AggregatorService* service) {
  cluster.network().RegisterEndpoint("aggregator", service->Wrap(nullptr));
}

// One subscribe round trip over `channel`: installs the pushed digest, if
// any, as `monitor`'s fleet prior.
Status Subscribe(net::Channel& channel, core::Monitor& monitor) {
  proto::DigestSubscribe subscribe;
  subscribe.table = "t";
  subscribe.have_version = monitor.digest_version();
  Result<proto::Message> reply =
      channel.Call(subscribe, SecondsToMicroseconds(5));
  if (!reply.ok()) {
    return reply.status();
  }
  const auto* push = std::get_if<proto::DigestPush>(&reply.value());
  if (push == nullptr) {
    return Status(StatusCode::kInternal, "expected a DigestPush");
  }
  if (push->has_digest) {
    monitor.InstallDigest(push->digest);
  }
  return Status::Ok();
}

// Warm a client the way a deployment would: probe every replica a few times
// so the monitor holds real latency and liveness evidence.
void WarmUp(PileusClient& client, int rounds = 5) {
  for (int i = 0; i < rounds; ++i) {
    ASSERT_TRUE(client.ProbeNode(0).ok());
    ASSERT_TRUE(client.ProbeNode(1).ok());
  }
}

TEST(MonitoringPlaneTest, ServiceAnswersReportsAndSubscriptionsOverWire) {
  MonitorAggregator aggregator(RealClock::Instance());
  AggregatorService service(&aggregator);
  InProcCluster cluster;
  RegisterAggregator(cluster, &service);
  auto channel = cluster.network().Connect("aggregator", 100);

  proto::MonitorReport report;
  report.reporter = "warm";
  report.seq = 1;
  report.table = "t";
  monitoring::NodeCondition cond;
  cond.node = "Local";
  cond.sample_count = 10;
  cond.mean_latency_us = 1200;
  cond.p50_latency_us = 1000;
  cond.p95_latency_us = 2000;
  cond.p99_latency_us = 3000;
  cond.p_up = 1.0;
  report.conditions.push_back(cond);

  Result<proto::Message> reply = channel->Call(report, SecondsToMicroseconds(5));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto* push = std::get_if<proto::DigestPush>(&reply.value());
  ASSERT_NE(push, nullptr);
  ASSERT_TRUE(push->has_digest);
  EXPECT_EQ(push->digest.version, 1u);
  ASSERT_EQ(push->digest.nodes.size(), 1u);
  EXPECT_EQ(push->digest.nodes[0].node, "Local");

  // An up-to-date subscriber gets a cheap not-modified answer.
  proto::DigestSubscribe current;
  current.table = "t";
  current.have_version = push->digest.version;
  reply = channel->Call(current, SecondsToMicroseconds(5));
  ASSERT_TRUE(reply.ok());
  push = std::get_if<proto::DigestPush>(&reply.value());
  ASSERT_NE(push, nullptr);
  EXPECT_FALSE(push->has_digest);

  // Non-monitoring traffic hits the null inner handler and errors cleanly.
  proto::GetRequest get;
  get.table = "t";
  get.key = "k";
  reply = channel->Call(get, SecondsToMicroseconds(5));
  ASSERT_TRUE(reply.ok());
  EXPECT_NE(std::get_if<proto::ErrorReply>(&reply.value()), nullptr);
}

TEST(MonitoringPlaneTest, ColdClientRanksCorrectlyWithZeroProbes) {
  InProcCluster cluster;

  // Seed data and replicate it to the secondary so eventual reads hit.
  auto warm = cluster.MakeClient(PileusClient::Options{});
  Session write_session = warm->BeginSession(SplitSla()).value();
  ASSERT_TRUE(warm->Put(write_session, "k", "v").ok());
  cluster.PullNow();

  // The warm client measures the fleet and reports into the aggregator.
  WarmUp(*warm);
  MonitorAggregator aggregator(RealClock::Instance());
  AggregatorService service(&aggregator);
  RegisterAggregator(cluster, &service);
  ASSERT_TRUE(aggregator.Ingest("warm", warm->monitor().state_version(),
                                warm->monitor().BuildReportConditions()));

  // A brand-new client subscribes before its first operation.
  auto cold = cluster.MakeClient(PileusClient::Options{});
  auto channel = cluster.network().Connect("aggregator", 100);
  ASSERT_TRUE(Subscribe(*channel, cold->monitor()).ok());
  EXPECT_GE(cold->monitor().digest_version(), 1u);

  // The fresh prior suppresses probing entirely...
  EXPECT_FALSE(cold->monitor().NeedsProbe("England"));
  EXPECT_FALSE(cold->monitor().NeedsProbe("Local"));

  // ...and the very first operation already ranks like the warmed client:
  // rank 1 (eventual within 50 ms), not the optimistic rank-0 shot at the
  // distant primary.
  Session warmed_session = warm->BeginSession(SplitSla()).value();
  Result<core::GetResult> warmed_result = warm->Get(warmed_session, "k");
  ASSERT_TRUE(warmed_result.ok());
  EXPECT_EQ(warmed_result->outcome.target_rank, 1);

  Session session = cold->BeginSession(SplitSla()).value();
  Result<core::GetResult> result = cold->Get(session, "k");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome.target_rank, warmed_result->outcome.target_rank);
  EXPECT_DOUBLE_EQ(result->outcome.utility, 0.5);

  // Control: an equally cold client *without* the prior aims at rank 0.
  auto blank = cluster.MakeClient(PileusClient::Options{});
  Session blank_session = blank->BeginSession(SplitSla()).value();
  Result<core::GetResult> blank_result = blank->Get(blank_session, "k");
  ASSERT_TRUE(blank_result.ok());
  EXPECT_EQ(blank_result->outcome.target_rank, 0);
}

TEST(MonitoringPlaneTest, AggregatorCrashFallsBackToLocalProbing) {
  InProcCluster cluster;
  auto warm = cluster.MakeClient(PileusClient::Options{});
  Session write_session = warm->BeginSession(SplitSla()).value();
  ASSERT_TRUE(warm->Put(write_session, "k", "v").ok());
  cluster.PullNow();
  WarmUp(*warm);

  MonitorAggregator aggregator(RealClock::Instance());
  AggregatorService service(&aggregator);
  RegisterAggregator(cluster, &service);
  ASSERT_TRUE(aggregator.Ingest("warm", warm->monitor().state_version(),
                                warm->monitor().BuildReportConditions()));

  // The cold client's monitor runs on a manual clock, so the prior can age
  // past Monitor::kPriorProbeSuppressUs without waiting 15 wall seconds.
  ManualClock monitor_clock(SecondsToMicroseconds(1000));
  core::Monitor cold_monitor(&monitor_clock);
  PileusClient::Options cold_options;
  cold_options.shared_monitor = &cold_monitor;
  auto cold = cluster.MakeClient(cold_options);
  auto channel = cluster.network().Connect("aggregator", 100);
  ASSERT_TRUE(Subscribe(*channel, cold->monitor()).ok());

  // Prior installed; probing suppressed while it is fresh.
  EXPECT_FALSE(cold->monitor().NeedsProbe("Local"));

  // Aggregator dies. Subscribe rounds fail but are survived: the monitor
  // keeps its last digest.
  cluster.network().Unregister("aggregator");
  EXPECT_FALSE(Subscribe(*channel, cold->monitor()).ok());
  uint64_t version_before = cold->monitor().digest_version();
  EXPECT_GE(version_before, 1u);

  // Once the orphaned prior outgrows the suppression window, the normal
  // self-probing path resumes and the client keeps operating on fresh
  // local evidence.
  monitor_clock.AdvanceMicros(core::Monitor::kPriorProbeSuppressUs);
  EXPECT_TRUE(cold->monitor().NeedsProbe("Local"));
  ASSERT_TRUE(cold->ProbeNode(0).ok());
  ASSERT_TRUE(cold->ProbeNode(1).ok());
  Session session = cold->BeginSession(SplitSla()).value();
  Result<core::GetResult> result = cold->Get(session, "k");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome.target_rank, 1);
  EXPECT_DOUBLE_EQ(result->outcome.utility, 0.5);
  EXPECT_EQ(cold->monitor().digest_version(), version_before);
}

}  // namespace
}  // namespace pileus
