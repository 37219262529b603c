// Tests for the replication agents: the pull state machine, blocking and
// threaded pullers, ordering, heartbeats, and failure handling.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/common/clock.h"
#include "src/replication/replication_agent.h"
#include "src/storage/tablet.h"

namespace pileus::replication {
namespace {

using storage::Tablet;

struct Fixture {
  ManualClock clock{1000};
  Tablet primary;
  Tablet secondary;

  Fixture()
      : primary(
            [] {
              Tablet::Options options;
              options.is_primary = true;
              return options;
            }(),
            &clock),
        secondary(Tablet::Options{}, &clock) {}

  void PutMany(int n) {
    for (int i = 0; i < n; ++i) {
      clock.AdvanceMicros(3);
      (void)primary.HandlePut("k" + std::to_string(i),
                              "v" + std::to_string(i));
    }
  }
};

TEST(ReplicationAgentTest, NextRequestAsksAboveHighTimestamp) {
  Fixture fx;
  ReplicationAgent::Options options;
  options.table = "t";
  options.max_versions_per_pull = 7;
  ReplicationAgent agent(&fx.secondary, options);

  proto::SyncRequest request = agent.NextRequest();
  EXPECT_EQ(request.table, "t");
  EXPECT_EQ(request.after, Timestamp::Zero());
  EXPECT_EQ(request.max_versions, 7u);
}

TEST(ReplicationAgentTest, OnReplyAppliesAndCounts) {
  Fixture fx;
  fx.PutMany(5);
  ReplicationAgent agent(&fx.secondary, {.table = "t"});

  const proto::SyncReply reply =
      fx.primary.HandleSync(agent.NextRequest().after, 0);
  EXPECT_FALSE(agent.OnReply(reply));
  EXPECT_EQ(agent.versions_applied(), 5u);
  EXPECT_EQ(agent.pulls_completed(), 1u);
  EXPECT_TRUE(fx.secondary.HandleGet("k4").found);
}

TEST(ReplicationAgentTest, OnReplySignalsMoreRounds) {
  Fixture fx;
  fx.PutMany(10);
  ReplicationAgent agent(&fx.secondary, {.table = "t"});

  const proto::SyncReply reply =
      fx.primary.HandleSync(agent.NextRequest().after, 3);
  EXPECT_TRUE(reply.has_more);
  EXPECT_TRUE(agent.OnReply(reply));
  EXPECT_EQ(agent.pulls_completed(), 0u);  // Cycle not finished yet.
}

TEST(BlockingPullerTest, LoopsUntilCaughtUp) {
  Fixture fx;
  fx.PutMany(20);
  ReplicationAgent agent(&fx.secondary,
                         {.table = "t", .max_versions_per_pull = 6});
  int round_trips = 0;
  BlockingPuller puller(&agent, [&](const proto::SyncRequest& request) {
    ++round_trips;
    return fx.primary.HandleSync(request.after, request.max_versions);
  });

  Result<int> pulled = puller.PullOnce();
  ASSERT_TRUE(pulled.ok());
  EXPECT_EQ(pulled.value(), 20);
  EXPECT_EQ(round_trips, 4);  // ceil(20/6).
  EXPECT_TRUE(fx.secondary.HandleGet("k19").found);
  EXPECT_EQ(agent.pulls_completed(), 1u);
}

TEST(BlockingPullerTest, SecondPullIsIncremental) {
  Fixture fx;
  fx.PutMany(5);
  ReplicationAgent agent(&fx.secondary, {.table = "t"});
  BlockingPuller puller(&agent, [&](const proto::SyncRequest& request) {
    return fx.primary.HandleSync(request.after, request.max_versions);
  });
  ASSERT_EQ(puller.PullOnce().value(), 5);
  fx.PutMany(3);  // Keys k0..k2 overwritten with new timestamps.
  ASSERT_EQ(puller.PullOnce().value(), 3);
  EXPECT_EQ(agent.versions_applied(), 8u);
}

TEST(BlockingPullerTest, PropagatesSourceErrors) {
  Fixture fx;
  ReplicationAgent agent(&fx.secondary, {.table = "t"});
  BlockingPuller puller(&agent, [&](const proto::SyncRequest&) {
    return Result<proto::SyncReply>(StatusCode::kUnavailable, "down");
  });
  EXPECT_EQ(puller.PullOnce().status().code(), StatusCode::kUnavailable);
}

TEST(BlockingPullerTest, DeliversInTimestampOrderPrefix) {
  // After any pull, the secondary must hold a *prefix* of the primary's
  // update sequence (prefix consistency, Section 4.2): if it has version X
  // it has every earlier version too.
  Fixture fx;
  fx.PutMany(50);
  ReplicationAgent agent(&fx.secondary,
                         {.table = "t", .max_versions_per_pull = 7});
  BlockingPuller puller(&agent, [&](const proto::SyncRequest& request) {
    return fx.primary.HandleSync(request.after, request.max_versions);
  });
  ASSERT_TRUE(puller.PullOnce().ok());
  const Timestamp high = fx.secondary.high_timestamp();
  for (int i = 0; i < 50; ++i) {
    const auto reply = fx.secondary.HandleGet("k" + std::to_string(i));
    ASSERT_TRUE(reply.found) << i;
    EXPECT_LE(reply.value_timestamp, high);
  }
}

TEST(ThreadedPullerTest, PullNowSyncsPromptly) {
  Fixture fx;
  fx.PutMany(5);
  ReplicationAgent agent(&fx.secondary, {.table = "t"});
  std::atomic<int> pulls{0};
  ThreadedPuller puller(
      &agent,
      [&](const proto::SyncRequest& request) {
        ++pulls;
        return fx.primary.HandleSync(request.after, request.max_versions);
      },
      SecondsToMicroseconds(3600));  // Period long enough to never fire.
  puller.PullNow();
  for (int i = 0; i < 200 && pulls.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  puller.Stop();
  EXPECT_GE(pulls.load(), 1);
  EXPECT_TRUE(fx.secondary.HandleGet("k4").found);
}

TEST(ThreadedPullerTest, PeriodicPullsHappen) {
  Fixture fx;
  fx.PutMany(2);
  ReplicationAgent agent(&fx.secondary, {.table = "t"});
  std::atomic<int> pulls{0};
  {
    ThreadedPuller puller(
        &agent,
        [&](const proto::SyncRequest& request) {
          ++pulls;
          return fx.primary.HandleSync(request.after, request.max_versions);
        },
        MillisecondsToMicroseconds(5));
    for (int i = 0; i < 200 && pulls.load() < 3; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }  // Destructor stops the thread.
  EXPECT_GE(pulls.load(), 3);
}

TEST(ThreadedPullerTest, SlowPullsDoNotStretchThePeriod) {
  // Each pull takes 90% of the period. Scheduled start to start, about 50
  // pulls begin in a second; waiting a full period after each pull returns
  // would allow at most 26. The bound leaves room for a loaded machine.
  constexpr auto kPeriod = std::chrono::milliseconds(20);
  constexpr auto kPullTime = std::chrono::milliseconds(18);
  Fixture fx;
  ReplicationAgent agent(&fx.secondary, {.table = "t"});
  std::atomic<int> pulls{0};
  ThreadedPuller puller(
      &agent,
      [&](const proto::SyncRequest& request) {
        ++pulls;
        std::this_thread::sleep_for(kPullTime);
        return fx.primary.HandleSync(request.after, request.max_versions);
      },
      std::chrono::duration_cast<std::chrono::microseconds>(kPeriod).count());
  std::this_thread::sleep_for(std::chrono::seconds(1));
  puller.Stop();
  EXPECT_GE(pulls.load(), 36);
}

TEST(ThreadedPullerTest, StopIsIdempotent) {
  Fixture fx;
  ReplicationAgent agent(&fx.secondary, {.table = "t"});
  ThreadedPuller puller(
      &agent,
      [&](const proto::SyncRequest& request) {
        return fx.primary.HandleSync(request.after, request.max_versions);
      },
      SecondsToMicroseconds(1));
  puller.Stop();
  puller.Stop();
}

}  // namespace
}  // namespace pileus::replication
