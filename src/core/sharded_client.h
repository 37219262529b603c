// Client-side routing for range-partitioned tables.
//
// "For scalability, a large table can be sharded into one or more tablets...
// Tablets are the granularity of replication and are independently
// replicated on multiple storage nodes. Different tablets may be configured
// with different primary sites" (paper Section 4.2).
//
// ShardedClient routes each Get/Put to the tablet owning the key and runs
// the normal SLA machinery against that tablet's replica set (one
// PileusClient per shard, each with its own monitor). A single Session spans
// all shards: per-key guarantees (read-my-writes, monotonic) compose
// trivially, and session-wide guarantees (causal) rely on the paper's
// approximately-synchronized-clocks assumption when tablets have different
// primary sites (update timestamps from different primaries are compared).
//
// Two routing modes:
//   - Static (Create): a fixed shard list that must tile the keyspace,
//     matching the paper's manually configured prototype.
//   - Dynamic (CreateDynamic): shards derive from a versioned
//     tablets::TabletMap (DESIGN.md Section 14). The server fences requests
//     that land on a node the current map routes elsewhere (kWrongTablet),
//     and writes at a member that no longer leads the range (kNotPrimary,
//     when the hinted primary is outside the shard's replica set); the
//     client reacts by fetching a newer map and retrying, spending the
//     same retry budget as every other retry path. A dynamic map may have
//     gaps while the client is behind (a mid-churn map it could only
//     partially connect to), so lookups can miss: unrouteable keys fail
//     with kUnavailable after a refresh attempt — never an out-of-range
//     crash or a misrouted request.

#ifndef PILEUS_SRC_CORE_SHARDED_CLIENT_H_
#define PILEUS_SRC_CORE_SHARDED_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/client.h"
#include "src/tablets/tablet_map.h"
#include "src/util/key_range.h"

namespace pileus::core {

class ShardedClient {
 public:
  struct Shard {
    KeyRange range;
    TableView view;  // Replica set + primary for this tablet.
  };

  // `shards` must tile the whole keyspace with non-overlapping ranges and
  // carry valid views; Create validates and returns the client. The options
  // (including any Options::cache pointer) are handed to every per-shard
  // PileusClient, so one client cache naturally spans all tablets: entries
  // are table-scoped and shard ranges are disjoint.
  static Result<std::unique_ptr<ShardedClient>> Create(
      std::vector<Shard> shards, const Clock* clock,
      PileusClient::Options options, FanoutCaller* fanout = nullptr);

  struct DynamicOptions {
    // Connection factory for nodes named by a tablet map (required). May
    // return nullptr for nodes it cannot reach; a tablet whose primary is
    // unconnectable is left out of the routing table (its keys are
    // unrouteable until a refresh succeeds).
    std::function<std::shared_ptr<NodeConnection>(const std::string& node)>
        connect;
    // Refresh-and-retry cycles one operation may spend on kWrongTablet (or
    // unrouteable-key) outcomes before the error is surfaced. Each cycle
    // also costs a token from the retry budget.
    int max_map_refresh_attempts = 2;
    MicrosecondCount refresh_timeout_us = SecondsToMicroseconds(5);
  };

  // Dynamic mode: builds the routing table from `initial` (fetched from any
  // storage node via a TabletMapRequest, or seeded by the deployment) and
  // keeps it fresh by re-fetching whenever an operation is fenced with
  // kWrongTablet. Unlike Create, the map's ranges need not tile the
  // keyspace. Not safe for concurrent operations: a refresh rebuilds the
  // per-shard clients in place.
  static Result<std::unique_ptr<ShardedClient>> CreateDynamic(
      tablets::TabletMap initial, const Clock* clock,
      PileusClient::Options options, DynamicOptions dynamic,
      FanoutCaller* fanout = nullptr);

  Result<Session> BeginSession(const Sla& default_sla) const;

  Result<GetResult> Get(Session& session, std::string_view key);
  Result<GetResult> Get(Session& session, std::string_view key,
                        const Sla& sla);
  Result<PutResult> Put(Session& session, std::string_view key,
                        std::string_view value);
  Result<PutResult> Delete(Session& session, std::string_view key);

  // Range scan across shards: [begin, end) is intersected with each shard's
  // range in key order and the pieces are concatenated (so results stay
  // sorted). The returned outcome aggregates the per-shard scans: the met
  // subSLA is the *weakest* across shards (-1 if any shard met none), the
  // RTT and message counts are summed.
  Result<RangeResult> GetRange(Session& session, std::string_view begin,
                               std::string_view end, uint32_t limit);

  // The per-shard client owning `key`. Never null for a client built with
  // Create (static shards tile the keyspace); may be null in dynamic mode
  // when the current map does not cover the key.
  PileusClient* ShardFor(std::string_view key);

  // --- Dynamic-mode surface (no-ops / zeros in static mode) ---

  bool dynamic() const { return static_cast<bool>(dynamic_.connect); }
  // Version of the routing map in use (0 in static mode).
  uint64_t map_version() const { return map_.version; }
  const tablets::TabletMap& tablet_map() const { return map_; }
  // Fetches the newest map any connected node knows and rebuilds the
  // routing table if it is newer than ours. Ok with no change when every
  // reachable node is at our version. Single-flight: callers arriving while
  // a fetch is in flight wait for it and share its outcome instead of
  // issuing their own query (RefreshTabletMap is safe to call concurrently
  // even though the data path is not).
  Status RefreshTabletMap();
  // Successful refreshes that adopted a newer map.
  uint64_t map_refreshes() const { return map_refreshes_; }
  // Refresh calls that piggybacked on an in-flight fetch (each saved one
  // map query and, on the retry path, one retry-budget token).
  uint64_t map_refreshes_coalesced() const {
    return map_refreshes_coalesced_.load(std::memory_order_relaxed);
  }

  size_t shard_count() const { return shards_.size(); }
  PileusClient& shard_client(size_t index) { return *shards_[index].client; }
  // Gets answered by the client cache, summed across shards.
  uint64_t cache_serves() const;
  const KeyRange& shard_range(size_t index) const {
    return shards_[index].range;
  }

 private:
  struct OwnedShard {
    KeyRange range;
    std::unique_ptr<PileusClient> client;
  };

  ShardedClient(std::vector<OwnedShard> shards)
      : shards_(std::move(shards)) {}

  // The owning shard, or nullptr when no known range contains `key`.
  OwnedShard* OwnedShardFor(std::string_view key);
  // Rebuilds shards_ from `map`, connecting members on demand (cached).
  // Entries whose primary cannot be connected are skipped.
  Status AdoptMap(tablets::TabletMap map);
  std::shared_ptr<NodeConnection> ConnectTo(const std::string& node);
  // Single-flight core behind RefreshTabletMap: joiners wait out the
  // in-flight fetch for free; the fetcher pays a retry-budget token when
  // `charge_budget` is set (the RouteOp retry path).
  Status RefreshShared(bool charge_budget);
  // The actual map query + adopt (exactly one caller at a time).
  Status FetchTabletMap();
  // Runs `op` against the owning shard with refresh-and-retry on
  // kWrongTablet / unrouteable keys (dynamic mode).
  template <typename T, typename Fn>
  Result<T> RouteOp(std::string_view key, Fn&& op);

  std::vector<OwnedShard> shards_;  // Sorted by range begin.

  // Dynamic-mode state (inert in static mode).
  const Clock* clock_ = nullptr;
  PileusClient::Options client_options_;
  FanoutCaller* fanout_ = nullptr;
  DynamicOptions dynamic_;
  tablets::TabletMap map_;
  std::map<std::string, std::shared_ptr<NodeConnection>> connections_;
  std::unique_ptr<RetryBudget> own_refresh_budget_;
  RetryBudget* refresh_budget_ = nullptr;
  uint64_t map_refreshes_ = 0;

  // Single-flight refresh state. refresh_generation_ bumps when a fetch
  // completes so joiners know theirs is done (not a later one).
  std::mutex refresh_mu_;
  std::condition_variable refresh_cv_;
  bool refresh_in_flight_ = false;
  uint64_t refresh_generation_ = 0;
  Status last_refresh_status_;
  // Atomic so tests (and metrics scrapes) can read it while a refresh is
  // still parked on the condition variable; writes stay under refresh_mu_.
  std::atomic<uint64_t> map_refreshes_coalesced_{0};
};

}  // namespace pileus::core

#endif  // PILEUS_SRC_CORE_SHARDED_CLIENT_H_
