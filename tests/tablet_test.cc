// Tests for the tablet: timestamp assignment, request handlers, replication
// apply, heartbeats, role changes, and version sharing.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/storage/tablet.h"
#include "tests/numbered_key.h"

namespace pileus::storage {
namespace {

Tablet::Options PrimaryOptions() {
  Tablet::Options options;
  options.is_primary = true;
  return options;
}

Tablet::Options SecondaryOptions() { return Tablet::Options{}; }

TEST(TabletTest, PutAssignsClockTimestamp) {
  ManualClock clock(1000);
  Tablet tablet(PrimaryOptions(), &clock);
  auto reply = tablet.HandlePut("k", "v");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->timestamp, (Timestamp{1000, 0}));
  EXPECT_EQ(tablet.high_timestamp(), (Timestamp{1000, 0}));
}

TEST(TabletTest, SameMicrosecondPutsGetIncreasingSequence) {
  ManualClock clock(1000);
  Tablet tablet(PrimaryOptions(), &clock);
  Timestamp last = Timestamp::Zero();
  for (int i = 0; i < 100; ++i) {
    auto reply = tablet.HandlePut(NumberedKey("k", i), "v");
    ASSERT_TRUE(reply.ok());
    EXPECT_GT(reply->timestamp, last);
    last = reply->timestamp;
  }
  EXPECT_EQ(last, (Timestamp{1000, 99}));
}

TEST(TabletTest, TimestampsStrictlyIncreaseAcrossClockAdvances) {
  ManualClock clock(1000);
  Tablet tablet(PrimaryOptions(), &clock);
  Timestamp last = Timestamp::Zero();
  for (int i = 0; i < 50; ++i) {
    if (i % 3 == 0) {
      clock.AdvanceMicros(1);
    }
    auto reply = tablet.HandlePut("k", "v");
    ASSERT_TRUE(reply.ok());
    EXPECT_GT(reply->timestamp, last);
    last = reply->timestamp;
  }
}

TEST(TabletTest, SecondaryRejectsPut) {
  ManualClock clock(1000);
  Tablet tablet(SecondaryOptions(), &clock);
  auto reply = tablet.HandlePut("k", "v");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNotPrimary);
}

TEST(TabletTest, GetReturnsLatestVersionAndFlags) {
  ManualClock clock(1000);
  Tablet tablet(PrimaryOptions(), &clock);
  (void)tablet.HandlePut("k", "v1");
  clock.AdvanceMicros(10);
  (void)tablet.HandlePut("k", "v2");

  auto reply = tablet.HandleGet("k");
  EXPECT_TRUE(reply.found);
  EXPECT_EQ(reply.value, "v2");
  EXPECT_TRUE(reply.served_by_primary);
  EXPECT_GE(reply.high_timestamp, reply.value_timestamp);
}

TEST(TabletTest, GetMissingKey) {
  ManualClock clock(1000);
  Tablet tablet(PrimaryOptions(), &clock);
  auto reply = tablet.HandleGet("missing");
  EXPECT_FALSE(reply.found);
  // The primary still reports a meaningful high timestamp.
  EXPECT_GT(reply.high_timestamp, Timestamp::Zero());
}

TEST(TabletTest, PrimaryHeartbeatCoversAllAssignedTimestamps) {
  ManualClock clock(1000);
  Tablet tablet(PrimaryOptions(), &clock);
  // Burn through the same microsecond so last_assigned > {now-1, max}.
  Timestamp last;
  for (int i = 0; i < 10; ++i) {
    last = tablet.HandlePut("k", "v")->timestamp;
  }
  auto reply = tablet.HandleGet("k");
  EXPECT_GE(reply.high_timestamp, last);
}

TEST(TabletTest, SyncDeliversUpdatesInOrder) {
  ManualClock clock(1000);
  Tablet primary(PrimaryOptions(), &clock);
  Tablet secondary(SecondaryOptions(), &clock);

  for (int i = 0; i < 20; ++i) {
    clock.AdvanceMicros(5);
    (void)primary.HandlePut(NumberedKey("k", i), "v");
  }
  auto reply = primary.HandleSync(secondary.high_timestamp(), 0);
  EXPECT_EQ(reply.versions.size(), 20u);
  for (size_t i = 1; i < reply.versions.size(); ++i) {
    EXPECT_GT(reply.versions[i].timestamp, reply.versions[i - 1].timestamp);
  }
  secondary.ApplySync(reply);
  EXPECT_EQ(secondary.high_timestamp(), reply.heartbeat);
  EXPECT_TRUE(secondary.HandleGet("k7").found);
  EXPECT_FALSE(secondary.HandleGet("k7").served_by_primary);
}

TEST(TabletTest, IdleHeartbeatAdvancesSecondaryHighTimestamp) {
  ManualClock clock(1000);
  Tablet primary(PrimaryOptions(), &clock);
  Tablet secondary(SecondaryOptions(), &clock);
  (void)primary.HandlePut("k", "v");
  secondary.ApplySync(primary.HandleSync(secondary.high_timestamp(), 0));
  const Timestamp after_first = secondary.high_timestamp();

  // No new Puts, but time passes; the next sync still advances the high
  // timestamp via the heartbeat (Section 4.3).
  clock.AdvanceMicros(SecondsToMicroseconds(60));
  auto reply = primary.HandleSync(secondary.high_timestamp(), 0);
  EXPECT_TRUE(reply.versions.empty());
  secondary.ApplySync(reply);
  EXPECT_GT(secondary.high_timestamp(), after_first);
  EXPECT_GE(secondary.high_timestamp().physical_us,
            clock.NowMicros() - kMicrosecondsPerSecond);
}

TEST(TabletTest, ApplySyncIsIdempotent) {
  ManualClock clock(1000);
  Tablet primary(PrimaryOptions(), &clock);
  Tablet secondary(SecondaryOptions(), &clock);
  (void)primary.HandlePut("k", "v1");
  auto reply = primary.HandleSync(Timestamp::Zero(), 0);
  secondary.ApplySync(reply);
  secondary.ApplySync(reply);  // Duplicate delivery.
  EXPECT_EQ(secondary.HandleGet("k").value, "v1");
  EXPECT_EQ(secondary.update_log().size(), 1u);
}

TEST(TabletTest, ChainedSyncThroughSecondary) {
  // Secondaries "could also receive updates from other secondary nodes"
  // (Section 4.1): a secondary can serve syncs from its own log.
  ManualClock clock(1000);
  Tablet primary(PrimaryOptions(), &clock);
  Tablet mid(SecondaryOptions(), &clock);
  Tablet leaf(SecondaryOptions(), &clock);

  for (int i = 0; i < 5; ++i) {
    clock.AdvanceMicros(3);
    (void)primary.HandlePut(NumberedKey("k", i), "v");
  }
  mid.ApplySync(primary.HandleSync(mid.high_timestamp(), 0));
  leaf.ApplySync(mid.HandleSync(leaf.high_timestamp(), 0));
  EXPECT_TRUE(leaf.HandleGet("k4").found);
  // The leaf's high timestamp is bounded by what mid actually has.
  EXPECT_LE(leaf.high_timestamp(), mid.high_timestamp());
}

TEST(TabletTest, SyncAfterLogTruncationFallsBackToFullState) {
  ManualClock clock(1000);
  Tablet primary(PrimaryOptions(), &clock);
  for (int i = 0; i < 10; ++i) {
    clock.AdvanceMicros(3);
    (void)primary.HandlePut(NumberedKey("k", i), "v");
  }
  primary.update_log().TruncateThrough(Timestamp{1015, 0});

  // A brand-new secondary asks from zero, below the truncation point.
  Tablet secondary(SecondaryOptions(), &clock);
  auto reply = primary.HandleSync(Timestamp::Zero(), 0);
  EXPECT_EQ(reply.versions.size(), 10u);  // Full-state transfer.
  secondary.ApplySync(reply);
  EXPECT_TRUE(secondary.HandleGet("k0").found);
  EXPECT_TRUE(secondary.HandleGet("k9").found);
}

TEST(TabletTest, ApplyReplicatedPutAdvancesHighTimestamp) {
  ManualClock clock(1000);
  Tablet sync_replica(SecondaryOptions(), &clock);
  proto::ObjectVersion version;
  version.key = "k";
  version.value = "v";
  version.timestamp = Timestamp{999, 0};
  sync_replica.ApplyReplicatedPut(version);
  EXPECT_EQ(sync_replica.high_timestamp(), version.timestamp);
  EXPECT_EQ(sync_replica.HandleGet("k").value, "v");
}

TEST(TabletTest, PromoteToPrimaryKeepsTimestampsIncreasing) {
  ManualClock clock(1000);
  Tablet primary(PrimaryOptions(), &clock);
  Tablet secondary(SecondaryOptions(), &clock);
  clock.AdvanceMicros(100);
  const Timestamp put_ts = primary.HandlePut("k", "v")->timestamp;
  secondary.ApplySync(primary.HandleSync(Timestamp::Zero(), 0));

  // Simulate a clock skew: the new primary's clock is behind the timestamps
  // it already holds. Promotion must still keep timestamps increasing.
  secondary.SetPrimary(true);
  auto reply = secondary.HandlePut("k", "v2");
  ASSERT_TRUE(reply.ok());
  EXPECT_GT(reply->timestamp, put_ts);
}

TEST(TabletTest, DeleteHidesKeyButKeepsTimestamp) {
  ManualClock clock(1000);
  Tablet tablet(PrimaryOptions(), &clock);
  (void)tablet.HandlePut("k", "v");
  clock.AdvanceMicros(10);
  auto del = tablet.HandleDelete("k");
  ASSERT_TRUE(del.ok());

  const auto get = tablet.HandleGet("k");
  EXPECT_FALSE(get.found);
  EXPECT_TRUE(get.value.empty());
  // The tombstone's timestamp is visible: callers can see the deletion is at
  // least as new as their own writes.
  EXPECT_EQ(get.value_timestamp, del->timestamp);
  EXPECT_GE(tablet.high_timestamp(), del->timestamp);
}

TEST(TabletTest, DeleteRejectedAtSecondary) {
  ManualClock clock(1000);
  Tablet tablet(SecondaryOptions(), &clock);
  EXPECT_EQ(tablet.HandleDelete("k").status().code(),
            StatusCode::kNotPrimary);
}

TEST(TabletTest, DeleteReplicatesAsTombstone) {
  ManualClock clock(1000);
  Tablet primary(PrimaryOptions(), &clock);
  Tablet secondary(SecondaryOptions(), &clock);
  (void)primary.HandlePut("k", "v");
  secondary.ApplySync(primary.HandleSync(Timestamp::Zero(), 0));
  EXPECT_TRUE(secondary.HandleGet("k").found);

  clock.AdvanceMicros(10);
  ASSERT_TRUE(primary.HandleDelete("k").ok());
  secondary.ApplySync(
      primary.HandleSync(secondary.high_timestamp(), 0));
  EXPECT_FALSE(secondary.HandleGet("k").found);
}

TEST(TabletTest, PutAfterDeleteResurrectsKey) {
  ManualClock clock(1000);
  Tablet tablet(PrimaryOptions(), &clock);
  (void)tablet.HandlePut("k", "v1");
  clock.AdvanceMicros(10);
  (void)tablet.HandleDelete("k");
  clock.AdvanceMicros(10);
  (void)tablet.HandlePut("k", "v2");
  const auto get = tablet.HandleGet("k");
  EXPECT_TRUE(get.found);
  EXPECT_EQ(get.value, "v2");
}

TEST(TabletTest, DeletedKeysSkippedInRangeScans) {
  ManualClock clock(1000);
  Tablet tablet(PrimaryOptions(), &clock);
  for (const char* key : {"a", "b", "c"}) {
    clock.AdvanceMicros(1);
    (void)tablet.HandlePut(key, "v");
  }
  clock.AdvanceMicros(1);
  (void)tablet.HandleDelete("b");
  const auto range = tablet.HandleRange("", "", 0);
  ASSERT_EQ(range.items.size(), 2u);
  EXPECT_EQ(range.items[0]->key, "a");
  EXPECT_EQ(range.items[1]->key, "c");
}

TEST(TabletTest, CompactLogPreservesSyncCorrectness) {
  ManualClock clock(1000);
  Tablet primary(PrimaryOptions(), &clock);
  for (int i = 0; i < 10; ++i) {
    clock.AdvanceMicros(5);
    (void)primary.HandlePut(NumberedKey("k", i), "v");
  }
  const Timestamp mid = primary.update_log()
                            .Scan(Timestamp::Zero(), 5)
                            .versions.back()
                            .timestamp;
  primary.CompactLog(mid);
  EXPECT_EQ(primary.update_log().size(), 5u);

  // A fresh secondary (from zero, below the compaction point) still gets a
  // complete, prefix-consistent state via the full-state fallback.
  Tablet fresh(SecondaryOptions(), &clock);
  fresh.ApplySync(primary.HandleSync(Timestamp::Zero(), 0));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(fresh.HandleGet(NumberedKey("k", i)).found) << i;
  }

  // An up-to-date secondary keeps pulling incrementally.
  Tablet caught_up(SecondaryOptions(), &clock);
  caught_up.ApplySync(primary.HandleSync(mid, 0));
  EXPECT_TRUE(caught_up.HandleGet("k9").found);
}

TEST(TabletTest, ClockSkewShiftsBoundedStalenessByTheOffset) {
  // The paper assumes approximately synchronized clocks for bounded
  // staleness (Section 4.4): "staleness bounds tend to be large, often on
  // the order of minutes". This test quantifies the failure mode: a primary
  // whose clock runs ahead by S makes a secondary look S *fresher* than it
  // is; behind by S, S staler. Either way the error is bounded by the skew.
  ManualClock true_clock(SecondsToMicroseconds(1000));
  OffsetClock skewed(&true_clock, SecondsToMicroseconds(5));  // +5 s ahead.
  Tablet::Options primary_options;
  primary_options.is_primary = true;
  Tablet primary(primary_options, &skewed);
  Tablet secondary(Tablet::Options{}, &true_clock);

  (void)primary.HandlePut("k", "v");
  secondary.ApplySync(primary.HandleSync(Timestamp::Zero(), 0));

  // A client with the true clock checks bounded(30): the secondary's high
  // timestamp (stamped by the skewed primary) reads 5 s into the future, so
  // it satisfies bounds down to -5 s of real staleness - a 5 s error, well
  // within a 30 s bound but visible for tight ones.
  const Timestamp high = secondary.high_timestamp();
  const MicrosecondCount apparent_staleness =
      true_clock.NowMicros() - high.physical_us;
  EXPECT_LE(apparent_staleness, 0);  // Looks "fresher than now".
  EXPECT_GE(apparent_staleness, -SecondsToMicroseconds(6));
  // The guarantee check a client would run for bounded(30s) still passes,
  // as it should: the data genuinely is fresh.
  EXPECT_GE(high,
            (Timestamp{true_clock.NowMicros() - SecondsToMicroseconds(30),
                       0}));
}

// --- One copy of each version per node ---

// True when the store's latest version of `key` and the update log's newest
// entry are one object.
bool StoreHeadIsLogTail(Tablet& tablet, std::string_view key) {
  const VersionPtr head = tablet.store().GetLatest(key);
  return head != nullptr && !tablet.update_log().empty() &&
         head.get() == tablet.update_log().back().get();
}

TEST(TabletTest, EveryMutationSharesOneVersionWithTheLog) {
  ManualClock clock(1000);
  Tablet primary(PrimaryOptions(), &clock);
  ASSERT_TRUE(primary.HandlePut("k", "v1").ok());
  EXPECT_TRUE(StoreHeadIsLogTail(primary, "k"));

  clock.AdvanceMicros(5);
  ASSERT_TRUE(primary.HandleDelete("k").ok());
  EXPECT_TRUE(StoreHeadIsLogTail(primary, "k"));

  Tablet secondary(SecondaryOptions(), &clock);
  ASSERT_TRUE(
      secondary.ApplySync(primary.HandleSync(Timestamp::Zero(), 0)).ok());
  EXPECT_TRUE(StoreHeadIsLogTail(secondary, "k"));
  EXPECT_EQ(secondary.update_log().size(), 2u);

  Tablet sync_replica(SecondaryOptions(), &clock);
  proto::ObjectVersion forwarded;
  forwarded.key = "s";
  forwarded.value = "v";
  forwarded.timestamp = Timestamp{2000, 0};
  ASSERT_TRUE(sync_replica.ApplyReplicatedPut(forwarded).ok());
  EXPECT_TRUE(StoreHeadIsLogTail(sync_replica, "s"));
}

TEST(TabletTest, LogServesVersionsTheStorePruned) {
  ManualClock clock(1000);
  Tablet primary(PrimaryOptions(), &clock);
  ASSERT_TRUE(primary.HandlePut("k", "v1").ok());
  clock.AdvanceMicros(5);
  ASSERT_TRUE(primary.HandlePut("k", "v2").ok());

  // The store kept only v2 ...
  EXPECT_EQ(primary.store().GetLatest("k")->value, "v2");
  EXPECT_EQ(primary.ApproximateBytes(), 3u);  // "k" + "v2".
  // ... yet the log still replicates both, in order.
  auto scan = primary.update_log().Scan(Timestamp::Zero(), 0);
  ASSERT_EQ(scan.versions.size(), 2u);
  EXPECT_EQ(scan.versions[0].value, "v1");
  EXPECT_EQ(scan.versions[1].value, "v2");
  EXPECT_EQ(primary.HandleSync(Timestamp::Zero(), 0).versions.size(), 2u);
}

TEST(TabletTest, CompactingTheLogLeavesStoreReadsIntact) {
  ManualClock clock(1000);
  Tablet primary(PrimaryOptions(), &clock);
  std::vector<Timestamp> stamps;
  for (const char* value : {"a1", "a2", "a3"}) {
    clock.AdvanceMicros(5);
    auto put = primary.HandlePut("a", value);
    ASSERT_TRUE(put.ok());
    stamps.push_back(put->timestamp);
  }
  clock.AdvanceMicros(5);
  ASSERT_TRUE(primary.HandlePut("b", "b1").ok());

  primary.update_log().TruncateThrough(stamps[1]);
  EXPECT_EQ(primary.update_log().size(), 2u);
  EXPECT_EQ(primary.HandleGet("a").value, "a3");

  primary.CompactLog(primary.high_timestamp());
  EXPECT_TRUE(primary.update_log().empty());
  EXPECT_EQ(primary.HandleGet("a").value, "a3");
  EXPECT_EQ(primary.HandleGet("b").value, "b1");
  EXPECT_EQ(primary.HandleRange("", "", 0).items.size(), 2u);
}

}  // namespace
}  // namespace pileus::storage
