#include "src/core/sharded_client.h"

#include <algorithm>
#include <utility>
#include <variant>

namespace pileus::core {

Result<std::unique_ptr<ShardedClient>> ShardedClient::Create(
    std::vector<Shard> shards, const Clock* clock,
    PileusClient::Options options, FanoutCaller* fanout) {
  if (shards.empty()) {
    return Status(StatusCode::kInvalidArgument, "no shards given");
  }
  std::vector<KeyRange> ranges;
  ranges.reserve(shards.size());
  for (const Shard& shard : shards) {
    ranges.push_back(shard.range);
    PILEUS_RETURN_IF_ERROR(shard.view.Validate());
  }
  for (size_t i = 0; i < ranges.size(); ++i) {
    for (size_t j = i + 1; j < ranges.size(); ++j) {
      if (ranges[i].Overlaps(ranges[j])) {
        return Status(StatusCode::kInvalidArgument,
                      "shard ranges " + ranges[i].ToString() + " and " +
                          ranges[j].ToString() + " overlap");
      }
    }
  }
  if (!RangesCoverKeySpace(ranges)) {
    return Status(StatusCode::kInvalidArgument,
                  "shard ranges do not tile the keyspace");
  }

  std::sort(shards.begin(), shards.end(), [](const Shard& a, const Shard& b) {
    return a.range.begin < b.range.begin;
  });
  std::vector<OwnedShard> owned;
  owned.reserve(shards.size());
  for (Shard& shard : shards) {
    OwnedShard entry;
    entry.range = shard.range;
    entry.client = std::make_unique<PileusClient>(std::move(shard.view),
                                                  clock, options, fanout);
    owned.push_back(std::move(entry));
  }
  return std::unique_ptr<ShardedClient>(new ShardedClient(std::move(owned)));
}

Result<std::unique_ptr<ShardedClient>> ShardedClient::CreateDynamic(
    tablets::TabletMap initial, const Clock* clock,
    PileusClient::Options options, DynamicOptions dynamic,
    FanoutCaller* fanout) {
  if (!dynamic.connect) {
    return Status(StatusCode::kInvalidArgument,
                  "dynamic mode needs a connection factory");
  }
  if (initial.table.empty() || initial.tablets.empty()) {
    return Status(StatusCode::kInvalidArgument, "empty initial tablet map");
  }
  auto client = std::unique_ptr<ShardedClient>(
      new ShardedClient(std::vector<OwnedShard>{}));
  client->clock_ = clock;
  client->client_options_ = options;
  client->fanout_ = fanout;
  client->dynamic_ = std::move(dynamic);
  if (options.shared_retry_budget != nullptr) {
    client->refresh_budget_ = options.shared_retry_budget;
  } else {
    // One budget across refreshes AND the per-shard clients' own retry
    // paths, so the total retry amplification stays bounded per client.
    client->own_refresh_budget_ =
        std::make_unique<RetryBudget>(options.retry_budget);
    client->refresh_budget_ = client->own_refresh_budget_.get();
    client->client_options_.shared_retry_budget = client->refresh_budget_;
  }
  PILEUS_RETURN_IF_ERROR(client->AdoptMap(std::move(initial)));
  if (client->shards_.empty()) {
    return Status(StatusCode::kUnavailable,
                  "no tablet in the initial map has a connectable primary");
  }
  return client;
}

std::shared_ptr<NodeConnection> ShardedClient::ConnectTo(
    const std::string& node) {
  auto it = connections_.find(node);
  if (it != connections_.end()) {
    return it->second;
  }
  std::shared_ptr<NodeConnection> connection = dynamic_.connect(node);
  if (connection != nullptr) {
    connections_[node] = connection;
  }
  return connection;
}

Status ShardedClient::AdoptMap(tablets::TabletMap map) {
  // Sorted, non-overlapping ranges with a member primary each; unlike the
  // server-side install we tolerate coverage gaps (a client may only be
  // able to use part of a mid-churn map).
  std::vector<OwnedShard> owned;
  for (const tablets::TabletInfo& info : map.tablets) {
    if (info.range.IsEmpty() || info.config.primary.empty() ||
        !info.config.IsMember(info.config.primary)) {
      continue;
    }
    if (!owned.empty() && !owned.back().range.end.empty() &&
        info.range.begin < owned.back().range.end) {
      return Status(StatusCode::kInvalidArgument,
                    "tablet map ranges overlap at " + info.range.ToString());
    }
    TableView view;
    view.table_name = map.table;
    bool primary_connected = false;
    for (const std::string& member : info.config.members) {
      std::shared_ptr<NodeConnection> connection = ConnectTo(member);
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
      continue;  // Keys of this range stay unrouteable until a refresh.
    }
    OwnedShard entry;
    entry.range = info.range;
    entry.client = std::make_unique<PileusClient>(std::move(view), clock_,
                                                  client_options_, fanout_);
    owned.push_back(std::move(entry));
  }
  shards_ = std::move(owned);
  map_ = std::move(map);
  return Status::Ok();
}

Status ShardedClient::RefreshTabletMap() {
  if (!dynamic()) {
    return Status(StatusCode::kInvalidArgument,
                  "static shard list cannot be refreshed");
  }
  return RefreshShared(/*charge_budget=*/false);
}

Status ShardedClient::RefreshShared(bool charge_budget) {
  std::unique_lock<std::mutex> lock(refresh_mu_);
  if (refresh_in_flight_) {
    // Join the in-flight fetch: its answer is as fresh as one we would
    // issue now, so share it instead of racing a duplicate query (and, on
    // the retry path, spending a duplicate budget token).
    ++map_refreshes_coalesced_;
    const uint64_t generation = refresh_generation_;
    refresh_cv_.wait(lock, [&] { return refresh_generation_ != generation; });
    return last_refresh_status_;
  }
  if (charge_budget && !refresh_budget_->TryAcquire()) {
    return Status(StatusCode::kOverloaded, "retry budget exhausted");
  }
  refresh_in_flight_ = true;
  lock.unlock();
  const Status status = FetchTabletMap();
  lock.lock();
  refresh_in_flight_ = false;
  last_refresh_status_ = status;
  ++refresh_generation_;
  refresh_cv_.notify_all();
  return status;
}

Status ShardedClient::FetchTabletMap() {
  proto::TabletMapRequest query;
  query.table = map_.table;
  query.have_version = map_.version;
  const proto::Message request = query;

  // Any node will do — maps spread to every member on publish — so take the
  // first connected node that answers.
  Status last(StatusCode::kUnavailable, "no node answered the map query");
  for (auto& [name, connection] : connections_) {
    TimedReply timed =
        connection->Call(request, dynamic_.refresh_timeout_us);
    if (!timed.reply.ok()) {
      last = timed.reply.status();
      continue;
    }
    const auto* reply = std::get_if<proto::TabletMapReply>(&timed.reply.value());
    if (reply == nullptr) {
      continue;
    }
    if (!reply->has_map || reply->map.version <= map_.version) {
      return Status::Ok();  // Nobody (reached) knows a newer map.
    }
    PILEUS_RETURN_IF_ERROR(AdoptMap(reply->map));
    ++map_refreshes_;
    return Status::Ok();
  }
  return last;
}

Result<Session> ShardedClient::BeginSession(const Sla& default_sla) const {
  if (shards_.empty()) {
    return Status(StatusCode::kUnavailable, "no routable shards");
  }
  return shards_.front().client->BeginSession(default_sla);
}

uint64_t ShardedClient::cache_serves() const {
  uint64_t total = 0;
  for (const OwnedShard& shard : shards_) {
    total += shard.client->cache_serves();
  }
  return total;
}

ShardedClient::OwnedShard* ShardedClient::OwnedShardFor(std::string_view key) {
  // Shards are sorted by begin: the only candidate is the last shard whose
  // begin <= key. In static mode the shards tile the keyspace, so the
  // candidate always contains the key; a dynamic map may have gaps.
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
  for (int attempt = 0;; ++attempt) {
    OwnedShard* shard = OwnedShardFor(key);
    if (shard != nullptr) {
      Result<T> result = op(*shard->client);
      if (result.ok()) {
        return result;
      }
      // A kWrongTablet fence means the server knows a newer map, and so
      // does a kNotPrimary the shard client could not resolve (the new
      // primary is outside its replica set). In dynamic mode kUnavailable
      // is worth one refresh too (reads surface a fenced replica set as
      // plain unavailability). All spend a retry token.
      const StatusCode code = result.status().code();
      const bool refreshable =
          dynamic() && (code == StatusCode::kWrongTablet ||
                        code == StatusCode::kNotPrimary ||
                        code == StatusCode::kUnavailable);
      if (!refreshable || attempt >= dynamic_.max_map_refresh_attempts) {
        return result;
      }
      if (!RefreshShared(/*charge_budget=*/true).ok()) {
        return result;  // The original failure is the useful one.
      }
      continue;
    }
    // Unrouteable key: never misroute, never walk off the shard list — the
    // stale-map remedy is a refresh, the honest answer is kUnavailable.
    if (!dynamic() || attempt >= dynamic_.max_map_refresh_attempts ||
        !RefreshShared(/*charge_budget=*/true).ok()) {
      return Status(StatusCode::kUnavailable,
                    "no shard covers key '" + std::string(key) +
                        "' (tablet map v" + std::to_string(map_.version) +
                        ")");
    }
  }
}

Result<GetResult> ShardedClient::Get(Session& session, std::string_view key) {
  return RouteOp<GetResult>(
      key, [&](PileusClient& client) { return client.Get(session, key); });
}

Result<GetResult> ShardedClient::Get(Session& session, std::string_view key,
                                     const Sla& sla) {
  return RouteOp<GetResult>(key, [&](PileusClient& client) {
    return client.Get(session, key, sla);
  });
}

Result<PutResult> ShardedClient::Put(Session& session, std::string_view key,
                                     std::string_view value) {
  return RouteOp<PutResult>(key, [&](PileusClient& client) {
    return client.Put(session, key, value);
  });
}

Result<PutResult> ShardedClient::Delete(Session& session,
                                        std::string_view key) {
  return RouteOp<PutResult>(
      key, [&](PileusClient& client) { return client.Delete(session, key); });
}

Result<RangeResult> ShardedClient::GetRange(Session& session,
                                            std::string_view begin,
                                            std::string_view end,
                                            uint32_t limit) {
  RangeResult combined;
  combined.outcome.messages_sent = 0;
  int total_messages = 0;
  bool first = true;
  for (OwnedShard& shard : shards_) {
    // Intersect [begin, end) with the shard's range.
    std::string piece_begin = std::max(std::string(begin), shard.range.begin);
    std::string piece_end = shard.range.end;
    if (!end.empty() && (piece_end.empty() || std::string(end) < piece_end)) {
      piece_end = std::string(end);
    }
    if (!piece_end.empty() && piece_begin >= piece_end) {
      continue;  // Empty intersection.
    }
    const uint32_t remaining =
        limit == 0 ? 0
                   : limit - static_cast<uint32_t>(combined.items.size());
    if (limit != 0 && remaining == 0) {
      combined.truncated = true;
      break;
    }
    Result<RangeResult> piece =
        shard.client->GetRange(session, piece_begin, piece_end, remaining);
    if (!piece.ok()) {
      return piece.status();
    }
    for (proto::ObjectVersion& item : piece->items) {
      combined.items.push_back(std::move(item));
    }
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
  }
  combined.outcome.messages_sent = total_messages;
  return combined;
}

}  // namespace pileus::core
