// Concurrency tests: storage nodes under multi-threaded load, the monitor
// shared between an application thread and a prober, and parallel fan-out.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/core/client.h"
#include "src/core/monitor.h"
#include "src/core/prober.h"
#include "src/core/selection.h"
#include "src/net/inproc.h"
#include "src/storage/storage_node.h"

namespace pileus {
namespace {

constexpr MicrosecondCount kMs = kMicrosecondsPerMillisecond;

TEST(ConcurrencyTest, StorageNodeHandlesParallelClients) {
  storage::StorageNode node("n", "s", RealClock::Instance());
  storage::Tablet::Options options;
  options.is_primary = true;
  ASSERT_TRUE(node.AddTablet("t", options).ok());

  constexpr int kThreads = 8;
  constexpr int kOpsEach = 500;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsEach; ++i) {
        proto::PutRequest put;
        put.table = "t";
        put.key = "key" + std::to_string(i % 50);
        put.value = std::to_string(t) + ":" + std::to_string(i);
        if (!std::holds_alternative<proto::PutReply>(node.Handle(put))) {
          ++failures;
        }
        proto::GetRequest get;
        get.table = "t";
        get.key = put.key;
        proto::Message reply = node.Handle(get);
        const auto* get_reply = std::get_if<proto::GetReply>(&reply);
        if (get_reply == nullptr || !get_reply->found) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(node.requests_served(),
            static_cast<uint64_t>(kThreads * kOpsEach * 2));

  // Every key's final version is a value some thread actually wrote, and the
  // update log is in non-decreasing timestamp order.
  auto* tablet = node.FindTablet("t", "");
  const auto scan = tablet->update_log().Scan(Timestamp::Zero(), 0);
  for (size_t i = 1; i < scan.versions.size(); ++i) {
    ASSERT_GE(scan.versions[i].timestamp, scan.versions[i - 1].timestamp);
  }
  EXPECT_EQ(scan.versions.size(),
            static_cast<size_t>(kThreads * kOpsEach));
}

TEST(ConcurrencyTest, MonitorSharedBetweenThreads) {
  ManualClock clock(SecondsToMicroseconds(1000));
  core::Monitor monitor(&clock);
  std::atomic<bool> stop{false};

  // Writer threads feed evidence; reader threads query estimates.
  std::vector<std::thread> threads;
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&, w] {
      Random rng(w);
      while (!stop.load(std::memory_order_acquire)) {
        const std::string node = "node-" + std::to_string(rng.NextUint64(4));
        monitor.RecordLatency(node, 1000 + rng.NextUint64(1000));
        monitor.RecordHighTimestamp(
            node, Timestamp{static_cast<int64_t>(rng.NextUint64(1 << 20)), 0});
        if (rng.NextBool(0.1)) {
          monitor.RecordFailure(node);
        } else {
          monitor.RecordSuccess(node);
        }
      }
    });
  }
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      Random rng(100 + r);
      while (!stop.load(std::memory_order_acquire)) {
        const std::string node = "node-" + std::to_string(rng.NextUint64(4));
        const double lat = monitor.PNodeLat(node, 1500);
        const double up = monitor.PNodeUp(node);
        if (lat < 0.0 || lat > 1.0 || up < 0.0 || up > 1.0) {
          ADD_FAILURE() << "estimate out of range";
        }
        (void)monitor.KnownHighTimestamp(node);
        (void)monitor.MeanLatency(node);
        (void)monitor.NeedsProbe(node);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_GT(monitor.samples_recorded(), 100u);
}

// Two clients sharing one monitor, as the end-to-end benchmark's do: each
// thread absorbs replies (one RecordReply each) and selects targets (one
// Estimate per replica) against the same monitor. Under TSan this is the
// referee for the one-lock reply and estimate paths; everywhere it checks
// that no reply's evidence is lost: every latency sample lands in its
// node's latency window, and every reachability outcome in its outcome
// window, whose success fraction is the node's p_up.
TEST(ConcurrencyTest, SharedMonitorRepliesAndSelectionsRace) {
  core::Monitor::Options monitor_options;
  // Windows that keep every sample of the run, so they can be counted.
  monitor_options.latency_window.window_us = SecondsToMicroseconds(3600);
  monitor_options.latency_window.max_samples = 1 << 16;
  core::Monitor monitor(RealClock::Instance(), monitor_options);
  const std::vector<core::ReplicaView> replicas = {
      {"primary", true}, {"near", false}, {"far", false}};
  const core::Sla sla = core::Sla()
                            .Add(core::Guarantee::ReadMyWrites(), 2 * kMs, 1.0)
                            .Add(core::Guarantee::Monotonic(), 5 * kMs, 0.7)
                            .Add(core::Guarantee::Eventual(), 50 * kMs, 0.3);
  constexpr int kRepliesEach = 4000;
  // Every kFailureStride-th iteration also records a failure, round-robin
  // over the replicas, so each outcome window holds both kinds.
  constexpr int kFailureStride = 40;
  std::vector<std::thread> threads;
  std::atomic<int> bad_selections{0};
  // Per thread and replica: {successes, failures} recorded.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> recorded(
      2, std::vector<std::pair<uint64_t, uint64_t>>(replicas.size()));
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Random rng(7 + t);
      core::Session session(sla);
      const core::MinReadTimestampFn floor = [&](const core::Guarantee& g) {
        return session.MinReadTimestamp(g, "k", 0);
      };
      core::SelectionOptions options;
      for (int i = 0; i < kRepliesEach; ++i) {
        const core::SelectionResult selected = core::SelectTarget(
            sla, replicas, floor, monitor, options, &rng);
        if (selected.node_index < 0 || selected.target_rank < 0) {
          ++bad_selections;
        }
        const size_t index = selected.node_index < 0
                                 ? 0
                                 : static_cast<size_t>(selected.node_index);
        const Timestamp high{static_cast<int64_t>(rng.NextUint64(1 << 20)), 0};
        monitor.RecordReply(
            replicas[index].name,
            static_cast<MicrosecondCount>(500 + rng.NextUint64(6000)), high,
            static_cast<MicrosecondCount>(rng.NextUint64(300)));
        ++recorded[t][index].first;
        session.RecordGet("k", high);
        if (i % kFailureStride == 0) {
          const size_t failed = static_cast<size_t>(i / kFailureStride) %
                                replicas.size();
          monitor.RecordFailure(replicas[failed].name);
          ++recorded[t][failed].second;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(bad_selections.load(), 0);
  // One more reply per replica closes any breaker the failures tripped, so
  // each snapshot's p_up is its outcome window's success fraction.
  for (size_t r = 0; r < replicas.size(); ++r) {
    monitor.RecordReply(replicas[r].name, 1000, Timestamp::Zero(), 0);
    ++recorded[0][r].first;
  }
  // Each reply is one latency sample and one reachability outcome: 4 per
  // iteration of the two threads, plus the closing replies.
  EXPECT_EQ(monitor.samples_recorded(), 2u * kRepliesEach + replicas.size());
  const std::vector<core::Monitor::NodeSnapshot> snapshot = monitor.Snapshot();
  ASSERT_EQ(snapshot.size(), replicas.size());
  uint64_t latency_samples = 0;
  for (const core::Monitor::NodeSnapshot& node : snapshot) {
    const auto replica = std::find_if(
        replicas.begin(), replicas.end(),
        [&](const core::ReplicaView& r) { return r.name == node.node; });
    ASSERT_NE(replica, replicas.end()) << node.node;
    const size_t r = static_cast<size_t>(replica - replicas.begin());
    const uint64_t successes = recorded[0][r].first + recorded[1][r].first;
    const uint64_t failures = recorded[0][r].second + recorded[1][r].second;
    ASSERT_GT(failures, 0u) << node.node;
    EXPECT_EQ(node.latency_samples, successes) << node.node;
    EXPECT_DOUBLE_EQ(node.p_up,
                     1.0 - static_cast<double>(failures) /
                               static_cast<double>(successes + failures))
        << node.node;
    latency_samples += node.latency_samples;
  }
  EXPECT_EQ(latency_samples, 2u * kRepliesEach + replicas.size());
}

TEST(ConcurrencyTest, ClientWithBackgroundProberUnderLoad) {
  storage::StorageNode primary("primary", "dc", RealClock::Instance());
  storage::StorageNode secondary("secondary", "dc", RealClock::Instance());
  storage::Tablet::Options primary_options;
  primary_options.is_primary = true;
  ASSERT_TRUE(primary.AddTablet("t", primary_options).ok());
  ASSERT_TRUE(secondary.AddTablet("t", storage::Tablet::Options{}).ok());

  net::InProcNetwork network;
  network.RegisterEndpoint(
      "primary", [&](const proto::Message& m) { return primary.Handle(m); });
  network.RegisterEndpoint("secondary", [&](const proto::Message& m) {
    return secondary.Handle(m);
  });

  core::TableView view;
  view.table_name = "t";
  view.replicas = {
      core::Replica{"primary", true,
                    std::make_shared<core::ChannelConnection>(
                        network.Connect("primary", 200),
                        RealClock::Instance())},
      core::Replica{"secondary", false,
                    std::make_shared<core::ChannelConnection>(
                        network.Connect("secondary", 100),
                        RealClock::Instance())}};
  view.primary_index = 0;
  core::PileusClient::Options options;
  options.monitor.probe_interval_us = 1 * kMs;
  core::PileusClient client(std::move(view), RealClock::Instance(), options);

  // Prober hammering the monitor from another thread while the application
  // thread runs a few hundred operations.
  core::ThreadedProber prober(&client, 1 * kMs);
  core::Session session =
      client.BeginSession(core::ShoppingCartSla()).value();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(client.Put(session, "k" + std::to_string(i % 20), "v").ok());
    Result<core::GetResult> result =
        client.Get(session, "k" + std::to_string(i % 20));
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->found);
  }
  EXPECT_GT(client.monitor().samples_recorded(), 300u);
}

TEST(ConcurrencyTest, ThreadFanoutCollectsAllReplies) {
  storage::StorageNode node("n", "s", RealClock::Instance());
  storage::Tablet::Options options;
  options.is_primary = true;
  ASSERT_TRUE(node.AddTablet("t", options).ok());
  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  put.value = "v";
  (void)node.Handle(put);

  net::InProcNetwork network;
  network.RegisterEndpoint(
      "n", [&](const proto::Message& m) { return node.Handle(m); });

  std::vector<std::unique_ptr<core::NodeConnection>> owned;
  std::vector<core::NodeConnection*> connections;
  for (int i = 0; i < 6; ++i) {
    owned.push_back(std::make_unique<core::ChannelConnection>(
        network.Connect("n", 1000 * (i + 1)), RealClock::Instance()));
    connections.push_back(owned.back().get());
  }
  core::ThreadFanoutCaller fanout;
  proto::GetRequest get;
  get.table = "t";
  get.key = "k";
  const std::vector<core::TimedReply> replies =
      fanout.CallAll(connections, get, SecondsToMicroseconds(5));
  ASSERT_EQ(replies.size(), 6u);
  for (const core::TimedReply& reply : replies) {
    ASSERT_TRUE(reply.reply.ok());
    EXPECT_TRUE(std::get<proto::GetReply>(reply.reply.value()).found);
  }
}

}  // namespace
}  // namespace pileus
