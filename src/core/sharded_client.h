// Client-side routing for range-partitioned tables.
//
// "For scalability, a large table can be sharded into one or more tablets...
// Tablets are the granularity of replication and are independently
// replicated on multiple storage nodes. Different tablets may be configured
// with different primary sites" (paper Section 4.2).
//
// ShardedClient routes each Get/Put/Delete, and each piece of a GetRange,
// to the tablet owning the key and runs the normal SLA machinery against
// that tablet's replica set (one PileusClient per tablet, each with its own
// monitor). A single Session spans all tablets: per-key guarantees
// (read-my-writes, monotonic) compose trivially, and session-wide guarantees
// (causal) rely on the paper's approximately-synchronized-clocks assumption
// when tablets have different primary sites (update timestamps from
// different primaries are compared).
//
// Routing follows a versioned tablets::TabletMap (DESIGN.md Section 14). The
// server fences requests that land on a node the current map routes
// elsewhere (kWrongTablet), and writes at a member that no longer leads the
// range (kNotPrimary, when the hinted primary is outside the tablet's
// replica set); the client reacts by fetching a newer map and retrying,
// spending the same retry budget as every other retry path. A map may have
// gaps (a mid-churn map the client could only partially connect to), so
// lookups can miss: unrouteable keys fail with kUnavailable after the
// refresh attempts are spent — never an out-of-range crash or a misrouted
// request. A deployment whose nodes never install a map (the paper's
// manually configured prototype) passes max_map_refresh_attempts = 0: its
// map never refreshes and a failed operation sends no map query.

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
  struct RoutingOptions {
    // Connection factory for nodes named by a tablet map (required). May
    // return nullptr for nodes it cannot reach; a tablet whose primary is
    // unconnectable is left out of the routing table (its keys are
    // unrouteable until a refresh succeeds).
    std::function<std::shared_ptr<NodeConnection>(const std::string& node)>
        connect;
    // Refresh-and-retry cycles one operation (or scan piece) may spend on
    // kWrongTablet, kNotPrimary, kUnavailable or unrouteable-key outcomes
    // before the error is surfaced. Each cycle also costs a token from the
    // retry budget. 0 fixes the map: no operation ever queries for a newer
    // one.
    int max_map_refresh_attempts = 2;
  };

  // Builds the routing table from `initial` (fetched from any storage node
  // via a TabletMapRequest, or seeded by the deployment). The map's ranges
  // must not overlap but need not tile the keyspace. The options are handed
  // to every per-tablet PileusClient. Unless Options::shared_retry_budget is
  // set, the per-tablet clients and the map refreshes share one retry
  // budget. Not safe for concurrent operations: a refresh rebuilds the
  // per-tablet clients in place.
  static Result<std::unique_ptr<ShardedClient>> Create(
      tablets::TabletMap initial, const Clock* clock,
      PileusClient::Options options, RoutingOptions routing,
      FanoutCaller* fanout = nullptr);

  Result<Session> BeginSession(const Sla& default_sla) const;

  Result<GetResult> Get(Session& session, std::string_view key);
  Result<GetResult> Get(Session& session, std::string_view key,
                        const Sla& sla);
  Result<PutResult> Put(Session& session, std::string_view key,
                        std::string_view value);
  Result<PutResult> Delete(Session& session, std::string_view key);

  // Range scan across shards: [begin, end) is covered one piece at a time in
  // key order, each piece ending at its tablet's boundary, and the pieces
  // are concatenated (so results stay sorted). Each piece routes like a
  // point operation on its first key, refresh-and-retry included, so a key
  // range no tablet covers fails with kUnavailable. The returned outcome
  // aggregates the per-shard scans: the met subSLA is the *weakest* across
  // shards (-1 if any shard met none), the RTT and message counts are summed.
  Result<RangeResult> GetRange(Session& session, std::string_view begin,
                               std::string_view end, uint32_t limit);

  // The per-shard client owning `key`; null when the current map does not
  // cover the key.
  PileusClient* ShardFor(std::string_view key);

  // Version of the routing map in use.
  uint64_t map_version() const { return map_.version; }
  const tablets::TabletMap& tablet_map() const { return map_; }
  // Fetches the newest map any connected node knows and rebuilds the
  // routing table if it is newer than ours. Ok with no change when every
  // reachable node is at our version, or when no node ever installed a map.
  // Single-flight: callers arriving while
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
  const KeyRange& shard_range(size_t index) const {
    return shards_[index].range;
  }

 private:
  struct OwnedShard {
    KeyRange range;
    std::unique_ptr<PileusClient> client;
  };

  ShardedClient() = default;

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
  // Runs `op(client, range)` against the shard owning `key`, with
  // refresh-and-retry on fenced, unavailable and unrouteable outcomes.
  template <typename T, typename Fn>
  Result<T> RouteOp(std::string_view key, Fn&& op);

  std::vector<OwnedShard> shards_;  // Sorted by range begin.

  const Clock* clock_ = nullptr;
  PileusClient::Options client_options_;
  FanoutCaller* fanout_ = nullptr;
  RoutingOptions routing_;
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
