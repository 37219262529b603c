// Tests for the tablet store.

#include <gtest/gtest.h>

#include "src/storage/versioned_store.h"
#include "tests/numbered_key.h"

namespace pileus::storage {
namespace {

VersionPtr V(const std::string& key, const std::string& value, int64_t ts,
             uint32_t seq = 0, bool is_tombstone = false) {
  proto::ObjectVersion version;
  version.key = key;
  version.value = value;
  version.timestamp = Timestamp{ts, seq};
  version.is_tombstone = is_tombstone;
  return MakeVersion(std::move(version));
}

TEST(VersionedStoreTest, GetLatestOnEmptyStore) {
  VersionedStore store;
  EXPECT_EQ(store.GetLatest("missing"), nullptr);
  EXPECT_EQ(store.key_count(), 0u);
}

TEST(VersionedStoreTest, ApplyAndGetLatest) {
  VersionedStore store;
  EXPECT_TRUE(store.Apply(V("k", "v1", 10)));
  auto latest = store.GetLatest("k");
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->value, "v1");
  EXPECT_EQ(latest->timestamp, (Timestamp{10, 0}));
}

TEST(VersionedStoreTest, NewerVersionReplacesLatest) {
  VersionedStore store;
  store.Apply(V("k", "v1", 10));
  store.Apply(V("k", "v2", 20));
  EXPECT_EQ(store.GetLatest("k")->value, "v2");
}

TEST(VersionedStoreTest, StaleApplyIsIgnored) {
  VersionedStore store;
  store.Apply(V("k", "v2", 20));
  EXPECT_FALSE(store.Apply(V("k", "v1", 10)));
  EXPECT_EQ(store.GetLatest("k")->value, "v2");
}

TEST(VersionedStoreTest, DuplicateApplyIsIdempotent) {
  VersionedStore store;
  store.Apply(V("k", "v1", 10));
  EXPECT_TRUE(store.Apply(V("k", "v1", 10)));
  EXPECT_EQ(store.GetLatest("k")->value, "v1");
}

TEST(VersionedStoreTest, LatestVersionsAfterSortsByTimestamp) {
  VersionedStore store;
  store.Apply(V("b", "vb", 30));
  store.Apply(V("a", "va", 10));
  store.Apply(V("c", "vc", 20));

  auto versions = store.LatestVersionsAfter(Timestamp{5, 0});
  ASSERT_EQ(versions.size(), 3u);
  EXPECT_EQ(versions[0]->key, "a");
  EXPECT_EQ(versions[1]->key, "c");
  EXPECT_EQ(versions[2]->key, "b");
}

TEST(VersionedStoreTest, LatestVersionsAfterFiltersByTimestamp) {
  VersionedStore store;
  store.Apply(V("a", "va", 10));
  store.Apply(V("b", "vb", 30));
  auto versions = store.LatestVersionsAfter(Timestamp{10, 0});
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0]->key, "b");
}

TEST(VersionedStoreTest, LatestVersionsAfterTieBreaksByKey) {
  VersionedStore store;
  store.Apply(V("z", "v", 10));
  store.Apply(V("a", "v", 10));
  auto versions = store.LatestVersionsAfter(Timestamp::Zero());
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0]->key, "a");
  EXPECT_EQ(versions[1]->key, "z");
}

TEST(VersionedStoreTest, ScanRangeReturnsKeyOrder) {
  VersionedStore store;
  store.Apply(V("delta", "4", 40));
  store.Apply(V("alpha", "1", 10));
  store.Apply(V("charlie", "3", 30));
  store.Apply(V("bravo", "2", 20));

  bool truncated = true;
  auto items = store.ScanRange("", "", 0, &truncated);
  ASSERT_EQ(items.size(), 4u);
  EXPECT_FALSE(truncated);
  EXPECT_EQ(items[0]->key, "alpha");
  EXPECT_EQ(items[3]->key, "delta");
}

TEST(VersionedStoreTest, ScanRangeHonorsBounds) {
  VersionedStore store;
  for (const char* key : {"a", "b", "c", "d", "e"}) {
    store.Apply(V(key, "v", 10));
  }
  bool truncated = false;
  auto items = store.ScanRange("b", "d", 0, &truncated);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0]->key, "b");  // Inclusive begin.
  EXPECT_EQ(items[1]->key, "c");  // Exclusive end.

  items = store.ScanRange("c", "", 0, &truncated);
  ASSERT_EQ(items.size(), 3u);  // c, d, e: unbounded end.
}

TEST(VersionedStoreTest, ScanRangeLimitTruncates) {
  VersionedStore store;
  for (int i = 0; i < 10; ++i) {
    store.Apply(V(NumberedKey("k", i), "v", 10 + i));
  }
  bool truncated = false;
  auto items = store.ScanRange("", "", 3, &truncated);
  EXPECT_EQ(items.size(), 3u);
  EXPECT_TRUE(truncated);

  items = store.ScanRange("", "", 10, &truncated);
  EXPECT_EQ(items.size(), 10u);
  EXPECT_FALSE(truncated);
}

TEST(VersionedStoreTest, ScanRangeReturnsLatestVersions) {
  VersionedStore store;
  store.Apply(V("k", "old", 10));
  store.Apply(V("k", "new", 20));
  bool truncated = false;
  auto items = store.ScanRange("", "", 0, &truncated);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0]->value, "new");
}

TEST(VersionedStoreTest, CollectTombstonesDropsOnlyOldDeletes) {
  VersionedStore store;
  store.Apply(V("live", "v", 10));
  store.Apply(V("old-dead", "", 20, 0, /*is_tombstone=*/true));
  store.Apply(V("fresh-dead", "", 90, 0, /*is_tombstone=*/true));

  EXPECT_EQ(store.CollectTombstones(Timestamp{50, 0}), 1u);
  EXPECT_EQ(store.key_count(), 2u);
  EXPECT_EQ(store.GetLatest("old-dead"), nullptr);  // Collected.
  ASSERT_NE(store.GetLatest("fresh-dead"), nullptr);  // Kept.
  EXPECT_TRUE(store.GetLatest("fresh-dead")->is_tombstone);
  EXPECT_NE(store.GetLatest("live"), nullptr);
}

TEST(VersionedStoreTest, CollectedTombstoneStillReadsNotFound) {
  VersionedStore store;
  store.Apply(V("k", "v", 10));
  store.Apply(V("k", "", 20, 0, /*is_tombstone=*/true));
  store.CollectTombstones(Timestamp{100, 0});
  EXPECT_EQ(store.GetLatest("k"), nullptr);
  bool truncated = false;
  EXPECT_TRUE(store.ScanRange("", "", 0, &truncated).empty());
}

TEST(VersionedStoreTest, ManyKeysIndependentChains) {
  VersionedStore store;
  for (int i = 0; i < 1000; ++i) {
    store.Apply(V(NumberedKey("key", i), "v", 100 + i));
  }
  EXPECT_EQ(store.key_count(), 1000u);
  EXPECT_EQ(store.GetLatest("key500")->timestamp, (Timestamp{600, 0}));
}

// --- Shared versions (one copy per node) ---

TEST(VersionedStoreTest, ApplyKeepsTheVersionItWasGiven) {
  VersionedStore store;
  const VersionPtr v1 = V("k", "v1", 10);
  store.Apply(v1);
  EXPECT_EQ(store.GetLatest("k").get(), v1.get());
  // An exact duplicate is a no-op: the store keeps the first object.
  store.Apply(V("k", "v1", 10));
  EXPECT_EQ(store.GetLatest("k").get(), v1.get());
}

TEST(VersionedStoreTest, PrunedVersionLivesOnWhileSharedElsewhere) {
  VersionedStore store;
  // `held` plays the update log's part: it points at the same object.
  const VersionPtr held = V("k", "old", 10);
  store.Apply(held);
  store.Apply(V("k", "new", 20));  // Replaces "old" in the store.
  EXPECT_EQ(store.GetLatest("k")->value, "new");
  EXPECT_EQ(store.ApproximateBytes(), 4u);  // "k" + "new" only.
  EXPECT_EQ(held->value, "old");
  EXPECT_EQ(held.use_count(), 1);
}

}  // namespace
}  // namespace pileus::storage
