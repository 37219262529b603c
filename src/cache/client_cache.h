// Consistency-aware client cache: a zero-RTT pseudo-replica.
//
// Pileus routes each Get to the node maximizing expected utility given
// monitored latency and staleness (paper Section 4.6). A client-side cache
// can join that decision as a pseudo-replica whose latency is ~0 and whose
// staleness is *exactly* known, because every entry carries the invariant:
//
//   "timestamp is the newest committed version of this key at or below
//    valid_through" (tombstone entries assert the key is absent/deleted).
//
// The invariant is established only from key-covering server evidence:
//  - a Get reply for the key (timestamp = value_timestamp, valid_through =
//    the serving node's high timestamp; not-found replies admit a tombstone
//    entry, since the node's prefix provably holds nothing newer),
//  - a GetRange reply item (valid_through = the scan's high timestamp),
//  - an acked Put/Delete (timestamp = valid_through = the assigned update
//    timestamp; the ack's heartbeat high may race with other writers and is
//    deliberately NOT used).
// A probe's high timestamp says nothing about whether a particular cached
// key changed, so probes never refresh entries (DESIGN.md "Client cache").
//
// Because primaries assign strictly increasing update timestamps and a
// node's advertised high timestamp is below every future assignment
// (Tablet::CurrentHeartbeat), the invariant stays true forever: the entry's
// guarantee is about the committed prefix at or below valid_through, which
// is immutable. Entries therefore never expire; they only lose *utility* as
// valid_through recedes behind consistency floors, exactly like a stale
// secondary loses utility in SelectTarget.
//
// Concurrency: sharded LRU maps guarded by per-shard mutexes, byte-budgeted
// per shard. Keys are namespaced "<table>\0<key>" so one cache can be shared
// across tablets/shards (ShardedClient hands the same pointer to every
// per-range PileusClient).

#ifndef PILEUS_SRC_CACHE_CLIENT_CACHE_H_
#define PILEUS_SRC_CACHE_CLIENT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/timestamp.h"
#include "src/telemetry/metrics.h"

namespace pileus::cache {

// Point-in-time counters; entries/bytes are current occupancy.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t admissions = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  uint64_t entries = 0;
  uint64_t bytes = 0;
};

class ClientCache {
 public:
  struct Options {
    // Total byte budget across shards (keys + values + fixed per-entry
    // overhead). Zero disables admission entirely.
    size_t capacity_bytes = size_t{8} << 20;
    // Lock shards; rounded up to at least 1.
    int shard_count = 8;
    // Optional registry for pileus_cache_* counters/gauges; Stats() works
    // without one.
    telemetry::MetricsRegistry* metrics = nullptr;
  };

  // Modelled latency of a cache hit, fed into SelectTarget as the
  // pseudo-replica's expected latency: zero is honest for an in-process map.
  static constexpr int64_t kServeLatencyUs = 0;

  // One cached assertion about a key. For is_tombstone entries the value is
  // empty and timestamp may be Zero (key never existed at or below
  // valid_through) or the deletion's update timestamp.
  struct Entry {
    std::string value;
    Timestamp timestamp;
    bool is_tombstone = false;
    Timestamp valid_through;
  };

  ClientCache();
  explicit ClientCache(Options options);

  // Returns the entry and refreshes its LRU position. Counts a hit or miss.
  std::optional<Entry> Lookup(std::string_view table, std::string_view key);

  // Merges new evidence under the entry invariant: a strictly newer
  // timestamp replaces the entry (valid_through takes the max of both
  // bounds, as both assertions were sound when admitted); an equal timestamp
  // only extends valid_through; older evidence is ignored (it cannot extend
  // what a newer version already bounds). valid_through is floored at
  // timestamp so a malformed admission cannot understate itself.
  void Admit(std::string_view table, std::string_view key,
             std::string_view value, Timestamp timestamp, bool is_tombstone,
             Timestamp valid_through);

  // Drops one key / every entry. Invalidate counts toward invalidations;
  // Clear counts each dropped entry.
  void Invalidate(std::string_view table, std::string_view key);
  void Clear();

  CacheStats Stats() const;

 private:
  struct Shard {
    std::mutex mu;
    // Front = most recently used. The map owns iterators into the list.
    std::list<std::pair<std::string, Entry>> lru;
    std::unordered_map<std::string_view, decltype(lru)::iterator> index;
    size_t bytes = 0;
  };

  Shard& ShardFor(std::string_view namespaced);
  static size_t EntryCost(std::string_view namespaced, const Entry& entry);
  void EvictOverBudgetLocked(Shard& shard);

  Options options_;
  size_t shard_capacity_bytes_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> admissions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> entries_{0};
  std::atomic<uint64_t> bytes_{0};

  telemetry::Counter* hits_metric_ = nullptr;
  telemetry::Counter* misses_metric_ = nullptr;
  telemetry::Counter* admissions_metric_ = nullptr;
  telemetry::Counter* evictions_metric_ = nullptr;
  telemetry::Counter* invalidations_metric_ = nullptr;
  telemetry::Gauge* bytes_metric_ = nullptr;
  telemetry::Gauge* entries_metric_ = nullptr;
};

}  // namespace pileus::cache

#endif  // PILEUS_SRC_CACHE_CLIENT_CACHE_H_
