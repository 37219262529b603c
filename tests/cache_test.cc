// Tests for the consistency-aware client cache: the entry-invariant merge
// rule, LRU ordering under a byte budget, tombstones, invalidation, and the
// telemetry counters (DESIGN.md "Client cache").

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "src/cache/client_cache.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "tests/numbered_key.h"

namespace pileus::cache {
namespace {

Timestamp Ts(int64_t physical) { return Timestamp{physical, 0}; }

ClientCache::Options SingleShard(size_t capacity_bytes) {
  ClientCache::Options options;
  options.capacity_bytes = capacity_bytes;
  options.shard_count = 1;  // Deterministic LRU order across keys.
  return options;
}

TEST(ClientCacheTest, MissThenHit) {
  ClientCache cache;
  EXPECT_FALSE(cache.Lookup("t", "k").has_value());
  cache.Admit("t", "k", "v", Ts(10), /*is_tombstone=*/false, Ts(20));
  const auto entry = cache.Lookup("t", "k");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->value, "v");
  EXPECT_EQ(entry->timestamp, Ts(10));
  EXPECT_EQ(entry->valid_through, Ts(20));
  EXPECT_FALSE(entry->is_tombstone);
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.admissions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ClientCacheTest, KeysAreTableScoped) {
  ClientCache cache;
  cache.Admit("t1", "k", "v1", Ts(10), false, Ts(10));
  cache.Admit("t2", "k", "v2", Ts(11), false, Ts(11));
  EXPECT_EQ(cache.Lookup("t1", "k")->value, "v1");
  EXPECT_EQ(cache.Lookup("t2", "k")->value, "v2");
}

TEST(ClientCacheTest, NewerTimestampReplacesAndKeepsMaxBound) {
  ClientCache cache;
  // An older fill with a *later* validity bound (e.g. read from a fresh
  // secondary) followed by a newer version with a tighter bound (e.g. our
  // own write-through): both assertions were sound, so the merged entry is
  // the newer version valid through the max of both bounds.
  cache.Admit("t", "k", "old", Ts(10), false, Ts(50));
  cache.Admit("t", "k", "new", Ts(20), false, Ts(20));
  const auto entry = cache.Lookup("t", "k");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->value, "new");
  EXPECT_EQ(entry->timestamp, Ts(20));
  EXPECT_EQ(entry->valid_through, Ts(50));
}

TEST(ClientCacheTest, EqualTimestampOnlyExtendsValidity) {
  ClientCache cache;
  cache.Admit("t", "k", "v", Ts(10), false, Ts(20));
  cache.Admit("t", "k", "v", Ts(10), false, Ts(90));
  EXPECT_EQ(cache.Lookup("t", "k")->valid_through, Ts(90));
  // A shorter bound for the same version must not shrink the entry.
  cache.Admit("t", "k", "v", Ts(10), false, Ts(30));
  EXPECT_EQ(cache.Lookup("t", "k")->valid_through, Ts(90));
}

TEST(ClientCacheTest, OlderEvidenceIsIgnored) {
  ClientCache cache;
  cache.Admit("t", "k", "new", Ts(20), false, Ts(25));
  cache.Admit("t", "k", "stale", Ts(10), false, Ts(99));
  const auto entry = cache.Lookup("t", "k");
  EXPECT_EQ(entry->value, "new");
  EXPECT_EQ(entry->timestamp, Ts(20));
  // The stale read's bound cannot vouch for this newer version.
  EXPECT_EQ(entry->valid_through, Ts(25));
}

TEST(ClientCacheTest, ValidThroughFlooredAtTimestamp) {
  ClientCache cache;
  cache.Admit("t", "k", "v", Ts(30), false, Ts(5));
  EXPECT_EQ(cache.Lookup("t", "k")->valid_through, Ts(30));
}

TEST(ClientCacheTest, TombstoneReplacesValueAndViceVersa) {
  ClientCache cache;
  cache.Admit("t", "k", "v", Ts(10), false, Ts(10));
  cache.Admit("t", "k", "", Ts(20), /*is_tombstone=*/true, Ts(20));
  auto entry = cache.Lookup("t", "k");
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->is_tombstone);
  cache.Admit("t", "k", "reborn", Ts(30), false, Ts(30));
  entry = cache.Lookup("t", "k");
  EXPECT_FALSE(entry->is_tombstone);
  EXPECT_EQ(entry->value, "reborn");
}

TEST(ClientCacheTest, NegativeEntryForNeverExistedKey) {
  // A not-found reply admits a tombstone with timestamp Zero: "nothing at or
  // below valid_through".
  ClientCache cache;
  cache.Admit("t", "ghost", "", Timestamp::Zero(), true, Ts(40));
  const auto entry = cache.Lookup("t", "ghost");
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->is_tombstone);
  EXPECT_EQ(entry->timestamp, Timestamp::Zero());
  EXPECT_EQ(entry->valid_through, Ts(40));
}

TEST(ClientCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Budget for roughly two entries (cost = namespaced key + value + 64).
  ClientCache cache(SingleShard(200));
  cache.Admit("t", "a", std::string(20, 'x'), Ts(1), false, Ts(1));
  cache.Admit("t", "b", std::string(20, 'x'), Ts(2), false, Ts(2));
  EXPECT_TRUE(cache.Lookup("t", "a").has_value());  // a is now most recent.
  cache.Admit("t", "c", std::string(20, 'x'), Ts(3), false, Ts(3));
  const CacheStats stats = cache.Stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, 200u);
  // b was least recently used, so it goes first.
  EXPECT_FALSE(cache.Lookup("t", "b").has_value());
  EXPECT_TRUE(cache.Lookup("t", "a").has_value());
  EXPECT_TRUE(cache.Lookup("t", "c").has_value());
}

TEST(ClientCacheTest, OversizedEntryNeverExceedsBudget) {
  ClientCache cache(SingleShard(100));
  cache.Admit("t", "huge", std::string(4096, 'x'), Ts(1), false, Ts(1));
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_FALSE(cache.Lookup("t", "huge").has_value());
}

TEST(ClientCacheTest, ZeroCapacityDisablesAdmission) {
  ClientCache cache(SingleShard(0));
  cache.Admit("t", "k", "v", Ts(1), false, Ts(1));
  EXPECT_FALSE(cache.Lookup("t", "k").has_value());
  EXPECT_EQ(cache.Stats().admissions, 0u);
}

TEST(ClientCacheTest, InvalidateAndClear) {
  ClientCache cache;
  cache.Admit("t", "a", "v", Ts(1), false, Ts(1));
  cache.Admit("t", "b", "v", Ts(2), false, Ts(2));
  cache.Invalidate("t", "a");
  EXPECT_FALSE(cache.Lookup("t", "a").has_value());
  EXPECT_TRUE(cache.Lookup("t", "b").has_value());
  EXPECT_EQ(cache.Stats().invalidations, 1u);
  cache.Clear();
  EXPECT_FALSE(cache.Lookup("t", "b").has_value());
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.invalidations, 2u);
}

TEST(ClientCacheTest, MetricsFlowThroughRegistryAndExporters) {
  telemetry::MetricsRegistry registry;
  ClientCache::Options options;
  options.metrics = &registry;
  ClientCache cache(options);
  cache.Admit("t", "k", "v", Ts(1), false, Ts(1));
  (void)cache.Lookup("t", "k");
  (void)cache.Lookup("t", "absent");
  EXPECT_EQ(registry.GetCounter("pileus_cache_hits_total")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("pileus_cache_misses_total")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("pileus_cache_admissions_total")->Value(), 1u);
  EXPECT_EQ(registry.GetGauge("pileus_cache_entries")->Value(), 1);
  EXPECT_GT(registry.GetGauge("pileus_cache_bytes")->Value(), 0);
  // The generic exporters pick the cache series up with no special-casing.
  EXPECT_NE(telemetry::ExportPrometheus(registry).find("pileus_cache_hits"),
            std::string::npos);
  EXPECT_NE(telemetry::ExportJson(registry).find("pileus_cache_bytes"),
            std::string::npos);
}

TEST(ClientCacheTest, ShardedCacheKeepsGlobalCounts) {
  ClientCache::Options options;
  options.shard_count = 4;
  options.capacity_bytes = size_t{1} << 20;
  ClientCache cache(options);
  for (int i = 0; i < 100; ++i) {
    cache.Admit("t", NumberedKey("k", i), "v", Ts(i + 1), false,
                Ts(i + 1));
  }
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.admissions, 100u);
  EXPECT_EQ(stats.entries, 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(cache.Lookup("t", NumberedKey("k", i)).has_value());
  }
  EXPECT_EQ(cache.Stats().hits, 100u);
}

}  // namespace
}  // namespace pileus::cache
