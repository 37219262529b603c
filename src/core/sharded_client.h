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
// Routing follows the tablets::TabletMap the deployment hands in, which
// never changes: tablets stay where the deployment placed them (paper
// Section 4.2). Each operation runs once, on the shard owning its key; a
// kWrongTablet or kNotPrimary fence the shard client cannot resolve goes
// back to the caller. The map may have gaps (a tablet whose primary the
// client could not connect to), so lookups can miss: an unrouteable key
// fails with kUnavailable — never an out-of-range crash or a misrouted
// request.
//
// Not safe for concurrent operations: the per-shard clients are not.

#ifndef PILEUS_SRC_CORE_SHARDED_CLIENT_H_
#define PILEUS_SRC_CORE_SHARDED_CLIENT_H_

#include <functional>
#include <memory>
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
    // unrouteable).
    std::function<std::shared_ptr<NodeConnection>(const std::string& node)>
        connect;
  };

  // Builds the routing table from `map` (fetched from any storage node via
  // a TabletMapRequest, or seeded by the deployment). The map's ranges must
  // not overlap but need not tile the keyspace. The options are handed to
  // every per-tablet PileusClient. Unless Options::shared_retry_budget is
  // set, the per-tablet clients share one retry budget.
  static Result<std::unique_ptr<ShardedClient>> Create(
      tablets::TabletMap map, const Clock* clock,
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
  // point operation on its first key, so a key range no tablet covers fails
  // with kUnavailable. The returned outcome aggregates the per-shard scans:
  // the met subSLA is the *weakest* across shards (-1 if any shard met
  // none), the RTT and message counts are summed.
  Result<RangeResult> GetRange(Session& session, std::string_view begin,
                               std::string_view end, uint32_t limit);

  // The per-shard client owning `key`; null when the current map does not
  // cover the key.
  PileusClient* ShardFor(std::string_view key);

  // Version of the routing map in use.
  uint64_t map_version() const { return map_.version; }
  const tablets::TabletMap& tablet_map() const { return map_; }

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
  // Runs `op(client, range)` once against the shard owning `key`;
  // kUnavailable when no shard covers it.
  template <typename T, typename Fn>
  Result<T> RouteOp(std::string_view key, Fn&& op);

  // Declared before the shards, whose clients may draw on it.
  std::unique_ptr<RetryBudget> own_retry_budget_;  // Null when shared.
  std::vector<OwnedShard> shards_;  // Sorted by range begin.
  tablets::TabletMap map_;
};

}  // namespace pileus::core

#endif  // PILEUS_SRC_CORE_SHARDED_CLIENT_H_
