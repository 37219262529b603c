#include "src/core/sharded_client.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>

namespace pileus::core {

Result<std::unique_ptr<ShardedClient>> ShardedClient::Create(
    tablets::TabletMap map, const Clock* clock, PileusClient::Options options,
    RoutingOptions routing, FanoutCaller* fanout) {
  if (!routing.connect) {
    return Status(StatusCode::kInvalidArgument,
                  "routing needs a connection factory");
  }
  if (map.table.empty() || map.tablets.empty()) {
    return Status(StatusCode::kInvalidArgument, "empty tablet map");
  }
  auto client = std::unique_ptr<ShardedClient>(new ShardedClient());
  if (options.shared_retry_budget == nullptr) {
    // One budget across the per-shard clients' retry paths, so the total
    // retry amplification stays bounded per client.
    client->own_retry_budget_ = std::make_unique<RetryBudget>();
    options.shared_retry_budget = client->own_retry_budget_.get();
  }
  // Sorted, non-overlapping ranges with a member primary each; unlike the
  // server-side install we tolerate coverage gaps (a client may only be
  // able to use part of a map). Each range must begin at or after the
  // previous one's end, which rejects unsorted maps too.
  std::map<std::string, std::shared_ptr<NodeConnection>> connections;
  const auto connect = [&](const std::string& node) {
    auto it = connections.find(node);
    if (it == connections.end()) {
      it = connections.emplace(node, routing.connect(node)).first;
    }
    return it->second;
  };
  for (const tablets::TabletInfo& info : map.tablets) {
    if (info.range.IsEmpty() || info.config.primary.empty() ||
        !info.config.IsMember(info.config.primary)) {
      continue;
    }
    if (!client->shards_.empty() &&
        (client->shards_.back().range.end.empty() ||
         info.range.begin < client->shards_.back().range.end)) {
      return Status(StatusCode::kInvalidArgument,
                    "tablet map ranges overlap or are unsorted at " +
                        info.range.ToString());
    }
    TableView view;
    view.table_name = map.table;
    bool primary_connected = false;
    for (const std::string& member : info.config.members) {
      std::shared_ptr<NodeConnection> connection = connect(member);
      if (connection == nullptr) {
        continue;
      }
      Replica replica;
      replica.name = member;
      replica.authoritative = member == info.config.primary ||
                              info.config.IsSyncMember(member);
      replica.connection = std::move(connection);
      if (member == info.config.primary) {
        view.primary_index = static_cast<int>(view.replicas.size());
        primary_connected = true;
      }
      view.replicas.push_back(std::move(replica));
    }
    if (!primary_connected) {
      continue;  // Keys of this range stay unrouteable.
    }
    client->shards_.push_back(OwnedShard{
        info.range,
        std::make_unique<PileusClient>(std::move(view), clock, options,
                                       fanout)});
  }
  if (client->shards_.empty()) {
    return Status(StatusCode::kUnavailable,
                  "no tablet in the initial map has a connectable primary");
  }
  client->map_ = std::move(map);
  return client;
}

Result<Session> ShardedClient::BeginSession(const Sla& default_sla) const {
  if (shards_.empty()) {
    return Status(StatusCode::kUnavailable, "no routable shards");
  }
  return shards_.front().client->BeginSession(default_sla);
}

ShardedClient::OwnedShard* ShardedClient::OwnedShardFor(std::string_view key) {
  // Shards are sorted by begin: the only candidate is the last shard whose
  // begin <= key. The map may have gaps, so the candidate may not contain
  // the key.
  auto it = std::upper_bound(
      shards_.begin(), shards_.end(), key,
      [](std::string_view k, const OwnedShard& shard) {
        return k < shard.range.begin;
      });
  if (it == shards_.begin()) {
    return nullptr;
  }
  --it;
  return it->range.Contains(key) ? &*it : nullptr;
}

PileusClient* ShardedClient::ShardFor(std::string_view key) {
  OwnedShard* shard = OwnedShardFor(key);
  return shard == nullptr ? nullptr : shard->client.get();
}

template <typename T, typename Fn>
Result<T> ShardedClient::RouteOp(std::string_view key, Fn&& op) {
  OwnedShard* shard = OwnedShardFor(key);
  if (shard == nullptr) {
    // Unrouteable key: never misroute, never walk off the shard list.
    return Status(StatusCode::kUnavailable,
                  "no shard covers key '" + std::string(key) +
                      "' (tablet map v" + std::to_string(map_.version) + ")");
  }
  return op(*shard->client, shard->range);
}

Result<GetResult> ShardedClient::Get(Session& session, std::string_view key) {
  return RouteOp<GetResult>(key, [&](PileusClient& client, const KeyRange&) {
    return client.Get(session, key);
  });
}

Result<GetResult> ShardedClient::Get(Session& session, std::string_view key,
                                     const Sla& sla) {
  return RouteOp<GetResult>(key, [&](PileusClient& client, const KeyRange&) {
    return client.Get(session, key, sla);
  });
}

Result<PutResult> ShardedClient::Put(Session& session, std::string_view key,
                                     std::string_view value) {
  return RouteOp<PutResult>(key, [&](PileusClient& client, const KeyRange&) {
    return client.Put(session, key, value);
  });
}

Result<PutResult> ShardedClient::Delete(Session& session,
                                        std::string_view key) {
  return RouteOp<PutResult>(key, [&](PileusClient& client, const KeyRange&) {
    return client.Delete(session, key);
  });
}

Result<RangeResult> ShardedClient::GetRange(Session& session,
                                            std::string_view begin,
                                            std::string_view end,
                                            uint32_t limit) {
  RangeResult combined;
  combined.outcome.messages_sent = 0;
  int total_messages = 0;
  bool first = true;
  // Each piece starts at `cursor` and ends at its tablet's boundary (or at
  // `end`); the next piece starts where this one ended.
  std::string cursor(begin);
  while (end.empty() || cursor < end) {
    if (limit != 0 && combined.items.size() >= limit) {
      combined.truncated = true;
      break;
    }
    const uint32_t remaining =
        limit == 0 ? 0
                   : limit - static_cast<uint32_t>(combined.items.size());
    std::string piece_end;
    Result<RangeResult> piece = RouteOp<RangeResult>(
        cursor, [&](PileusClient& client, const KeyRange& range) {
          piece_end = range.end;
          if (!end.empty() && (piece_end.empty() || end < piece_end)) {
            piece_end = std::string(end);
          }
          return client.GetRange(session, cursor, piece_end, remaining);
        });
    if (!piece.ok()) {
      return piece.status();
    }
    combined.items.insert(combined.items.end(),
                          std::make_move_iterator(piece->items.begin()),
                          std::make_move_iterator(piece->items.end()));
    combined.truncated = combined.truncated || piece->truncated;
    const GetOutcome& outcome = piece->outcome;
    if (first) {
      combined.outcome = outcome;
      first = false;
    } else {
      // Weakest-link aggregation.
      if (outcome.met_rank < 0 || combined.outcome.met_rank < 0) {
        combined.outcome.met_rank = -1;
        combined.outcome.utility = 0.0;
      } else if (outcome.met_rank > combined.outcome.met_rank) {
        combined.outcome.met_rank = outcome.met_rank;
        combined.outcome.utility = outcome.utility;
      }
      combined.outcome.rtt_us += outcome.rtt_us;
      combined.outcome.from_primary =
          combined.outcome.from_primary && outcome.from_primary;
      combined.outcome.node_name += "+" + outcome.node_name;
      combined.outcome.retried =
          combined.outcome.retried || outcome.retried;
    }
    total_messages += outcome.messages_sent;
    if (piece_end.empty()) {
      break;  // The piece ran to the end of the keyspace.
    }
    cursor = std::move(piece_end);
  }
  combined.outcome.messages_sent = total_messages;
  return combined;
}

}  // namespace pileus::core
