// End-to-end tests over the *real* transports (threads, sockets, wall-clock
// time): a miniature geo deployment with in-process WAN emulation, and a TCP
// cluster, both driven through the public client API.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/client.h"
#include "src/core/prober.h"
#include "src/net/inproc.h"
#include "src/net/tcp.h"
#include "src/replication/replication_agent.h"
#include "src/storage/storage_node.h"
#include "tests/testbed_fixture.h"

namespace pileus {
namespace {

using core::ChannelConnection;
using core::PileusClient;
using core::Replica;
using core::Session;
using core::TableView;
using storage::StorageNode;
using storage::Tablet;
using testbed::InProcCluster;

constexpr MicrosecondCount kMs = kMicrosecondsPerMillisecond;

TEST(EndToEndInProcTest, PutThenStrongAndEventualReads) {
  InProcCluster cluster;
  auto client = cluster.MakeClient(PileusClient::Options{});
  Session session =
      client->BeginSession(core::PasswordCheckingSla()).value();

  ASSERT_TRUE(client->Put(session, "pw:alice", "hunter2").ok());

  Result<core::GetResult> strong = client->Get(session, "pw:alice");
  ASSERT_TRUE(strong.ok());
  EXPECT_EQ(strong->value, "hunter2");
  EXPECT_TRUE(strong->outcome.from_primary);
  EXPECT_EQ(strong->outcome.met_rank, 0);  // ~20 ms RTT < 150 ms.
}

TEST(EndToEndInProcTest, ReplicationMakesDataLocal) {
  InProcCluster cluster;
  auto client = cluster.MakeClient(PileusClient::Options{});
  Session session = client->BeginSession(core::ShoppingCartSla()).value();

  // The puller applies to Local under its lock; read under it too.
  const auto local_has_cart = [&cluster] {
    return cluster.local().WithLock(
        [&] { return cluster.local().FindTablet("t", "")->HandleGet("cart"); })
        .found;
  };
  ASSERT_TRUE(client->Put(session, "cart", "3 items").ok());
  EXPECT_FALSE(local_has_cart());

  cluster.PullNow();
  for (int i = 0; i < 100; ++i) {
    if (local_has_cart()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(local_has_cart());

  // Tell the monitor (as probes would) and watch the read turn local. Both
  // nodes need latency samples: an unmeasured node reports mean 0 and would
  // win the closest tie-break.
  ASSERT_TRUE(client->ProbeNode(0).ok());
  ASSERT_TRUE(client->ProbeNode(1).ok());
  Result<core::GetResult> result = client->Get(session, "cart");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->value, "3 items");
  EXPECT_EQ(result->outcome.node_name, "Local");
  EXPECT_EQ(result->outcome.met_rank, 0);  // Read-my-writes, locally.
}

TEST(EndToEndInProcTest, ProberKeepsMonitorFresh) {
  InProcCluster cluster;
  PileusClient::Options options;
  options.monitor.probe_interval_us = 20 * kMs;
  auto client = cluster.MakeClient(options);
  {
    core::ThreadedProber prober(client.get(), 10 * kMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  }
  EXPECT_GT(client->monitor().MeanLatency("England"), 0);
  EXPECT_GT(client->monitor().MeanLatency("Local"), 0);
}

TEST(EndToEndTcpTest, FullStackOverSockets) {
  // One primary storage node served over TCP; the client on top.
  StorageNode node("primary", "dc1", RealClock::Instance());
  Tablet::Options tablet_options;
  tablet_options.is_primary = true;
  ASSERT_TRUE(node.AddTablet("t", tablet_options).ok());

  net::TcpServer server;
  ASSERT_TRUE(
      server.Start(0, [&](const proto::Message& m) { return node.Handle(m); })
          .ok());

  TableView view;
  view.table_name = "t";
  view.replicas = {
      Replica{"primary", true,
              std::make_shared<ChannelConnection>(
                  std::make_shared<net::TcpChannel>(server.port()),
                  RealClock::Instance())}};
  view.primary_index = 0;
  PileusClient client(std::move(view), RealClock::Instance());

  Session session = client.BeginSession(core::ShoppingCartSla()).value();
  ASSERT_TRUE(client.Put(session, "k", "v-over-tcp").ok());
  Result<core::GetResult> got = client.Get(session, "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v-over-tcp");
  EXPECT_EQ(got->outcome.met_rank, 0);
  server.Stop();
}

TEST(EndToEndTcpTest, SessionGuaranteesAcrossRestart) {
  // Monotonic reads hold even when the client reconnects mid-session.
  StorageNode node("primary", "dc1", RealClock::Instance());
  Tablet::Options tablet_options;
  tablet_options.is_primary = true;
  ASSERT_TRUE(node.AddTablet("t", tablet_options).ok());

  net::TcpServer server;
  ASSERT_TRUE(
      server.Start(0, [&](const proto::Message& m) { return node.Handle(m); })
          .ok());

  TableView view;
  view.table_name = "t";
  auto channel = std::make_shared<net::TcpChannel>(server.port());
  view.replicas = {Replica{
      "primary", true,
      std::make_shared<ChannelConnection>(channel, RealClock::Instance())}};
  view.primary_index = 0;
  PileusClient client(std::move(view), RealClock::Instance());

  Session session =
      client
          .BeginSession(core::Sla().Add(core::Guarantee::Monotonic(),
                                        SecondsToMicroseconds(5), 1.0))
          .value();
  ASSERT_TRUE(client.Put(session, "k", "v1").ok());
  Result<core::GetResult> first = client.Get(session, "k");
  ASSERT_TRUE(first.ok());

  ASSERT_TRUE(client.Put(session, "k", "v2").ok());
  Result<core::GetResult> second = client.Get(session, "k");
  ASSERT_TRUE(second.ok());
  EXPECT_GE(second->timestamp, first->timestamp);
  EXPECT_EQ(second->value, "v2");
  server.Stop();
}

}  // namespace
}  // namespace pileus
