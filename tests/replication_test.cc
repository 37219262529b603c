// Tests for the replication agents: the pull state machine, blocking and
// threaded pullers, ordering, heartbeats, ranged pulls, the journal barrier,
// and failure handling.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "src/common/clock.h"
#include "src/replication/replication_agent.h"
#include "src/storage/storage_node.h"
#include "src/storage/tablet.h"
#include "src/storage/tablet_journal.h"
#include "tests/numbered_key.h"

namespace pileus::replication {
namespace {

using storage::StorageNode;
using storage::Tablet;

Tablet::Options TabletOptions(KeyRange range, bool is_primary = false) {
  Tablet::Options options;
  options.range = std::move(range);
  options.is_primary = is_primary;
  return options;
}

// A primary and a secondary node, each hosting table "t" whole.
struct Fixture {
  ManualClock clock{1000};
  StorageNode primary{"primary", "p", &clock};
  StorageNode secondary{"secondary", "s", &clock};
  std::atomic<int> syncs{0};  // Sync round trips.

  Fixture() {
    EXPECT_TRUE(primary.AddTablet("t", TabletOptions({}, true)).ok());
    EXPECT_TRUE(secondary.AddTablet("t", TabletOptions({})).ok());
  }

  void Put(const std::string& key) {
    clock.AdvanceMicros(3);
    (void)primary.WithLock(
        [&] { return primary.FindTablet("t", key)->HandlePut(key, "v"); });
  }
  void PutMany(int n) {
    for (int i = 0; i < n; ++i) {
      Put(NumberedKey("k", i));
    }
  }

  // What every puller here calls: the primary's own handler.
  Result<proto::SyncReply> Sync(const proto::SyncRequest& request) {
    ++syncs;
    return ToSyncReply(primary.Handle(request));
  }
  BlockingPuller::SyncFn SyncFn() {
    return [this](const proto::SyncRequest& r) { return Sync(r); };
  }

  bool Has(const std::string& key) {
    return secondary.WithLock(
        [&] { return secondary.FindTablet("t", key)->HandleGet(key).found; });
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
  EXPECT_FALSE(request.has_range);  // The whole keyspace is not a range.
}

TEST(ReplicationAgentTest, OnReplyAppliesAndCounts) {
  Fixture fx;
  fx.PutMany(5);
  ReplicationAgent agent(&fx.secondary, {.table = "t"});

  const Result<bool> more =
      agent.OnReply(fx.Sync(agent.NextRequest()).value());
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more.value());
  EXPECT_EQ(agent.versions_applied(), 5u);
  EXPECT_EQ(agent.pulls_completed(), 1u);
  EXPECT_TRUE(fx.Has("k4"));
}

TEST(ReplicationAgentTest, OnReplySignalsMoreRounds) {
  Fixture fx;
  fx.PutMany(10);
  ReplicationAgent agent(&fx.secondary, {.table = "t"});

  proto::SyncRequest request = agent.NextRequest();
  request.max_versions = 3;
  const proto::SyncReply reply = fx.Sync(request).value();
  EXPECT_TRUE(reply.has_more);
  EXPECT_TRUE(agent.OnReply(reply).value());
  EXPECT_EQ(agent.pulls_completed(), 0u);  // Cycle not finished yet.
}

TEST(ReplicationAgentTest, RangedPullAdvancesOnlyTabletsInRange) {
  Fixture fx;
  StorageNode split("split", "s", &fx.clock);
  ASSERT_TRUE(split.AddTablet("t", TabletOptions({"", "m"})).ok());
  ASSERT_TRUE(split.AddTablet("t", TabletOptions({"m", ""})).ok());
  fx.Put("a");
  fx.Put("x");
  ReplicationAgent agent(&split, {.table = "t", .range = {"m", ""}});
  const proto::SyncRequest request = agent.NextRequest();
  EXPECT_TRUE(request.has_range);
  EXPECT_EQ(request.range_begin, "m");
  ASSERT_TRUE(BlockingPuller(&agent, fx.SyncFn()).PullOnce().ok());

  Tablet* lower = split.FindTablet("t", "a");
  Tablet* upper = split.FindTablet("t", "x");
  EXPECT_EQ(lower->high_timestamp(), Timestamp::Zero());
  EXPECT_GT(upper->high_timestamp(), Timestamp::Zero());
  EXPECT_EQ(agent.NextRequest().after, upper->high_timestamp());
  EXPECT_TRUE(upper->HandleGet("x").found);
  // The source's one tablet spans both halves and so also sends "a"; it
  // lands in neither.
  EXPECT_FALSE(lower->HandleGet("a").found);
  EXPECT_FALSE(upper->HandleGet("a").found);
}

TEST(ReplicationAgentTest, ErrorReplyFailsThePull) {
  Fixture fx;
  fx.PutMany(3);
  ReplicationAgent agent(&fx.secondary, {.table = "t"});
  BlockingPuller puller(&agent, [](const proto::SyncRequest&) {
    proto::ErrorReply error;
    error.code = StatusCode::kOverloaded;
    return ToSyncReply(proto::Message(error));
  });

  Result<int> pulled(StatusCode::kInternal, "unset");
  EXPECT_NO_THROW(pulled = puller.PullOnce());
  EXPECT_EQ(pulled.status().code(), StatusCode::kOverloaded);
  EXPECT_EQ(agent.versions_applied(), 0u);
  EXPECT_EQ(agent.NextRequest().after, Timestamp::Zero());
  // A reply of the wrong type fails the same way.
  EXPECT_EQ(ToSyncReply(proto::Message(proto::GetReply{})).status().code(),
            StatusCode::kInternal);
}

// Counts Sync() calls; records nothing.
struct CountingJournal : storage::TabletJournal {
  int syncs = 0;
  Status RecordVersion(Tablet&, const storage::VersionPtr&) override {
    return Status::Ok();
  }
  Status RecordHeartbeat(Tablet&) override { return Status::Ok(); }
  Status RecordConfig(const reconfig::ConfigEpoch&) override {
    return Status::Ok();
  }
  Status Sync() override {
    ++syncs;
    return Status::Ok();
  }
  Status Checkpoint(Tablet&) override { return Status::Ok(); }
};

TEST(ReplicationAgentTest, VersionedReplySyncsJournal) {
  Fixture fx;
  auto journal = std::make_unique<CountingJournal>();
  const CountingJournal* counting = journal.get();
  auto tablet = std::make_shared<Tablet>(Tablet::Options{}, &fx.clock);
  tablet->AttachJournal(std::move(journal));
  StorageNode durable("durable", "s", &fx.clock);
  ASSERT_TRUE(durable.AddTablet("t", tablet).ok());
  ReplicationAgent agent(&durable, {.table = "t", .max_versions_per_pull = 2});
  int with_versions = 0;
  BlockingPuller puller(&agent, [&](const proto::SyncRequest& request) {
    Result<proto::SyncReply> reply = fx.Sync(request);
    with_versions += reply.value().versions.empty() ? 0 : 1;
    return reply;
  });

  fx.PutMany(5);
  ASSERT_EQ(puller.PullOnce().value(), 5);
  EXPECT_EQ(with_versions, 3);
  EXPECT_EQ(counting->syncs, with_versions);
  fx.clock.AdvanceMicros(1000);  // Heartbeat-only: advances, no sync.
  ASSERT_EQ(puller.PullOnce().value(), 0);
  EXPECT_GT(tablet->high_timestamp(), tablet->HandleGet("k4").value_timestamp);
  EXPECT_EQ(counting->syncs, with_versions);
}

TEST(ReplicationAgentTest, TabletAdapterKeepsE2ebenchContract) {
  // A bare tablet target: the agent hosts it on a node of its own.
  Fixture fx;
  fx.PutMany(6);
  Tablet bare(Tablet::Options{}, &fx.clock);
  ReplicationAgent agent(&bare, {.table = "t", .max_versions_per_pull = 4});
  ASSERT_EQ(BlockingPuller(&agent, fx.SyncFn()).PullOnce().value(), 6);
  EXPECT_TRUE(bare.HandleGet("k5").found);
  const Timestamp pulled = bare.high_timestamp();
  EXPECT_EQ(agent.NextRequest().after, pulled);
  EXPECT_EQ(agent.pulls_completed(), 1u);

  // e2ebench applies each batch itself and hands the agent only the
  // heartbeat, which still advances the tablet.
  fx.Put("k0");
  BlockingPuller heartbeats(&agent, [&fx](const proto::SyncRequest& r) {
    Result<proto::SyncReply> reply = fx.Sync(r);
    reply.value().versions.clear();
    return reply;
  });
  ASSERT_EQ(heartbeats.PullOnce().value(), 0);
  EXPECT_GT(bare.high_timestamp(), pulled);
}

TEST(BlockingPullerTest, LoopsUntilCaughtUp) {
  Fixture fx;
  fx.PutMany(20);
  ReplicationAgent agent(&fx.secondary,
                         {.table = "t", .max_versions_per_pull = 6});
  BlockingPuller puller(&agent, fx.SyncFn());

  // A round bound stops the cycle early; without one it runs until the
  // source has no more.
  ASSERT_EQ(puller.PullOnce(/*max_rounds=*/2).value(), 12);
  EXPECT_EQ(agent.pulls_completed(), 0u);
  ASSERT_EQ(puller.PullOnce().value(), 8);
  EXPECT_EQ(fx.syncs.load(), 4);  // ceil(20/6).
  EXPECT_TRUE(fx.Has("k19"));
  EXPECT_EQ(agent.pulls_completed(), 1u);
}

TEST(BlockingPullerTest, SecondPullIsIncremental) {
  Fixture fx;
  fx.PutMany(5);
  ReplicationAgent agent(&fx.secondary, {.table = "t"});
  BlockingPuller puller(&agent, fx.SyncFn());
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
  ASSERT_TRUE(BlockingPuller(&agent, fx.SyncFn()).PullOnce().ok());
  const Tablet* tablet = fx.secondary.FindTablet("t", "");
  for (int i = 0; i < 50; ++i) {
    const auto reply = tablet->HandleGet(NumberedKey("k", i));
    ASSERT_TRUE(reply.found) << i;
    EXPECT_LE(reply.value_timestamp, tablet->high_timestamp());
  }
}

TEST(ThreadedPullerTest, PullNowSyncsPromptly) {
  Fixture fx;
  fx.PutMany(5);
  ReplicationAgent agent(&fx.secondary, {.table = "t"});
  // The period is long enough to never fire.
  ThreadedPuller puller(&agent, fx.SyncFn(), SecondsToMicroseconds(3600));
  puller.PullNow();
  for (int i = 0; i < 200 && fx.syncs.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  puller.Stop();
  EXPECT_GE(fx.syncs.load(), 1);
  EXPECT_TRUE(fx.Has("k4"));
}

TEST(ThreadedPullerTest, PeriodicPullsHappen) {
  Fixture fx;
  fx.PutMany(2);
  ReplicationAgent agent(&fx.secondary, {.table = "t"});
  {
    ThreadedPuller puller(&agent, fx.SyncFn(), MillisecondsToMicroseconds(5));
    for (int i = 0; i < 200 && fx.syncs.load() < 3; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }  // Destructor stops the thread.
  EXPECT_GE(fx.syncs.load(), 3);
}

TEST(ThreadedPullerTest, SlowPullsDoNotStretchThePeriod) {
  // Each pull takes 90% of the period. Scheduled start to start, about 50
  // pulls begin in a second; waiting a full period after each pull returns
  // would allow at most 26. The bound leaves room for a loaded machine.
  constexpr auto kPeriod = std::chrono::milliseconds(20);
  constexpr auto kPullTime = std::chrono::milliseconds(18);
  Fixture fx;
  ReplicationAgent agent(&fx.secondary, {.table = "t"});
  ThreadedPuller puller(
      &agent,
      [&](const proto::SyncRequest& request) {
        std::this_thread::sleep_for(kPullTime);
        return fx.Sync(request);
      },
      std::chrono::duration_cast<std::chrono::microseconds>(kPeriod).count());
  std::this_thread::sleep_for(std::chrono::seconds(1));
  puller.Stop();
  EXPECT_GE(fx.syncs.load(), 36);
}

TEST(ThreadedPullerTest, ThreadedPullRacesNoReads) {
  // The puller applies into the node while another thread reads it through
  // Handle; an unlocked apply is a data race that TSan reports.
  Fixture fx;
  ReplicationAgent agent(&fx.secondary, {.table = "t"});
  ThreadedPuller puller(&agent, fx.SyncFn(), MillisecondsToMicroseconds(1));
  std::atomic<bool> done{false};
  std::thread reader([&] {
    proto::GetRequest get;
    get.table = "t";
    for (int i = 0; !done.load(); ++i) {
      get.key = NumberedKey("k", i % 20);
      (void)fx.secondary.Handle(get);
    }
  });
  for (int round = 0; round < 20; ++round) {
    fx.PutMany(20);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const Timestamp last = fx.primary.HighTimestamp("t", "");
  for (int i = 0; i < 400 && fx.secondary.HighTimestamp("t", "") < last; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  done.store(true);
  reader.join();
  EXPECT_GE(fx.secondary.HighTimestamp("t", ""), last);
}

TEST(ThreadedPullerTest, StopIsIdempotent) {
  Fixture fx;
  ReplicationAgent agent(&fx.secondary, {.table = "t"});
  ThreadedPuller puller(&agent, fx.SyncFn(), SecondsToMicroseconds(1));
  puller.Stop();
  puller.Stop();
}

}  // namespace
}  // namespace pileus::replication
