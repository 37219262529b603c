// Tests for the replication update log.

#include <gtest/gtest.h>

#include "src/storage/update_log.h"
#include "tests/numbered_key.h"

namespace pileus::storage {
namespace {

VersionPtr V(const std::string& key, int64_t ts, uint32_t seq = 0) {
  proto::ObjectVersion version;
  version.key = key;
  version.value = "v@" + std::to_string(ts);
  version.timestamp = Timestamp{ts, seq};
  return MakeVersion(std::move(version));
}

TEST(UpdateLogTest, EmptyLog) {
  UpdateLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.LastTimestamp(), Timestamp::Zero());
  auto scan = log.Scan(Timestamp::Zero(), 0);
  EXPECT_TRUE(scan.versions.empty());
  EXPECT_FALSE(scan.has_more);
  EXPECT_TRUE(scan.contiguous);
}

TEST(UpdateLogTest, ScanReturnsStrictlyAfter) {
  UpdateLog log;
  log.Append(V("a", 10));
  log.Append(V("b", 20));
  log.Append(V("c", 30));

  auto scan = log.Scan(Timestamp{10, 0}, 0);
  ASSERT_EQ(scan.versions.size(), 2u);
  EXPECT_EQ(scan.versions[0].key, "b");
  EXPECT_EQ(scan.versions[1].key, "c");
  EXPECT_FALSE(scan.has_more);
}

TEST(UpdateLogTest, ScanFromZeroReturnsEverything) {
  UpdateLog log;
  for (int i = 1; i <= 100; ++i) {
    log.Append(V(NumberedKey("k", i), i * 10));
  }
  auto scan = log.Scan(Timestamp::Zero(), 0);
  EXPECT_EQ(scan.versions.size(), 100u);
}

TEST(UpdateLogTest, MaxVersionsSetsHasMore) {
  UpdateLog log;
  for (int i = 1; i <= 10; ++i) {
    log.Append(V("k", i * 10));
  }
  auto scan = log.Scan(Timestamp::Zero(), 4);
  EXPECT_EQ(scan.versions.size(), 4u);
  EXPECT_TRUE(scan.has_more);

  // Resuming from the last returned timestamp yields the rest.
  auto rest = log.Scan(scan.versions.back().timestamp, 0);
  EXPECT_EQ(rest.versions.size(), 6u);
  EXPECT_FALSE(rest.has_more);
}

TEST(UpdateLogTest, SameTimestampBatchNeverSplit) {
  UpdateLog log;
  log.Append(V("a", 10));
  // Three writes at one timestamp, as a replica of split tablets logs them.
  log.Append(V("x", 20));
  log.Append(V("y", 20));
  log.Append(V("z", 20));
  log.Append(V("b", 30));

  // max_versions = 2 would cut inside the batch; the scan must extend it.
  auto scan = log.Scan(Timestamp::Zero(), 2);
  ASSERT_EQ(scan.versions.size(), 4u);  // a + whole batch.
  EXPECT_EQ(scan.versions.back().timestamp, (Timestamp{20, 0}));
  EXPECT_TRUE(scan.has_more);

  auto rest = log.Scan(scan.versions.back().timestamp, 2);
  ASSERT_EQ(rest.versions.size(), 1u);
  EXPECT_EQ(rest.versions[0].key, "b");
}

TEST(UpdateLogTest, TruncationDropsEntries) {
  UpdateLog log;
  log.Append(V("a", 10));
  log.Append(V("b", 20));
  log.Append(V("c", 30));
  log.TruncateThrough(Timestamp{20, 0});
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.truncation_point(), (Timestamp{20, 0}));
}

TEST(UpdateLogTest, ScanBelowTruncationReportsNonContiguous) {
  UpdateLog log;
  log.Append(V("a", 10));
  log.Append(V("b", 20));
  log.Append(V("c", 30));
  log.TruncateThrough(Timestamp{20, 0});

  // A reader at 10 can no longer get a contiguous stream.
  auto scan = log.Scan(Timestamp{10, 0}, 0);
  EXPECT_FALSE(scan.contiguous);
  EXPECT_TRUE(scan.versions.empty());

  // A reader exactly at the truncation point is fine.
  auto ok_scan = log.Scan(Timestamp{20, 0}, 0);
  EXPECT_TRUE(ok_scan.contiguous);
  ASSERT_EQ(ok_scan.versions.size(), 1u);
  EXPECT_EQ(ok_scan.versions[0].key, "c");
}

TEST(UpdateLogTest, LastTimestampTracksAppends) {
  UpdateLog log;
  log.Append(V("a", 10));
  log.Append(V("b", 20, 5));
  EXPECT_EQ(log.LastTimestamp(), (Timestamp{20, 5}));
}

// A checkpoint truncates the whole log; its tail is still the newest update
// the log covered, not Zero.
TEST(UpdateLogTest, LastTimestampSurvivesTruncation) {
  UpdateLog log;
  log.Append(V("a", 10));
  log.Append(V("b", 20, 5));
  log.TruncateThrough(Timestamp{20, 5});
  ASSERT_TRUE(log.empty());
  EXPECT_EQ(log.LastTimestamp(), (Timestamp{20, 5}));
  // Truncated past the newest entry (a heartbeat-advanced high timestamp).
  log.TruncateThrough(Timestamp{30, 0});
  EXPECT_EQ(log.LastTimestamp(), (Timestamp{30, 0}));
  log.Append(V("c", 40));
  EXPECT_EQ(log.LastTimestamp(), (Timestamp{40, 0}));
}

TEST(UpdateLogTest, SequenceNumbersOrderWithinMicrosecond) {
  UpdateLog log;
  log.Append(V("a", 10, 0));
  log.Append(V("b", 10, 1));
  log.Append(V("c", 10, 2));
  auto scan = log.Scan(Timestamp{10, 1}, 0);
  ASSERT_EQ(scan.versions.size(), 1u);
  EXPECT_EQ(scan.versions[0].key, "c");
}

// --- Shared versions (one copy per node) ---

TEST(UpdateLogTest, AppendKeepsTheVersionItWasGiven) {
  UpdateLog log;
  const VersionPtr a = V("a", 10);
  log.Append(a);
  EXPECT_EQ(log.back().get(), a.get());
  // Scan copies: what it returns leaves the node.
  auto scan = log.Scan(Timestamp::Zero(), 0);
  ASSERT_EQ(scan.versions.size(), 1u);
  EXPECT_EQ(scan.versions[0], *a);
  EXPECT_EQ(a.use_count(), 2);
}

TEST(UpdateLogTest, TruncationReleasesOnlyTheLogsReference) {
  UpdateLog log;
  // `held` plays the versioned store's part.
  const VersionPtr held = V("a", 10);
  log.Append(held);
  log.Append(V("b", 20));
  log.TruncateThrough(Timestamp{20, 0});
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(held->value, "v@10");
}

}  // namespace
}  // namespace pileus::storage
