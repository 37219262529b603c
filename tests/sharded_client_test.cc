// Tests for ShardedClient: routing across range-partitioned tablets with
// independent primaries, validation, and cross-shard session guarantees.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/core/sharded_client.h"
#include "src/storage/storage_node.h"
#include "src/tablets/tablet_map.h"

namespace pileus::core {
namespace {

constexpr MicrosecondCount kMs = kMicrosecondsPerMillisecond;

// Direct call into a StorageNode, advancing a shared manual clock by the
// configured RTT.
class DirectConnection : public NodeConnection {
 public:
  DirectConnection(storage::StorageNode* node, ManualClock* clock,
                   MicrosecondCount rtt_us)
      : node_(node), clock_(clock), rtt_us_(rtt_us) {}

  TimedReply Call(const proto::Message& request,
                  MicrosecondCount /*timeout*/) override {
    clock_->AdvanceMicros(rtt_us_);
    return TimedReply(node_->Handle(request), rtt_us_);
  }

 private:
  storage::StorageNode* node_;
  ManualClock* clock_;
  MicrosecondCount rtt_us_;
};

class ShardedClientTest : public ::testing::Test {
 protected:
  ShardedClientTest() : clock_(SecondsToMicroseconds(1000)) {}

  // Two shards split at "m": the low shard's primary is node A, the high
  // shard's primary is node B (different primary sites per tablet, as the
  // paper allows).
  void Build(PileusClient::Options options = PileusClient::Options{}) {
    node_a_ = std::make_unique<storage::StorageNode>("A", "site-a", &clock_);
    node_b_ = std::make_unique<storage::StorageNode>("B", "site-b", &clock_);
    storage::Tablet::Options low;
    low.range = KeyRange{"", "m"};
    low.is_primary = true;
    ASSERT_TRUE(node_a_->AddTablet("t", low).ok());
    storage::Tablet::Options low_secondary;
    low_secondary.range = KeyRange{"", "m"};
    ASSERT_TRUE(node_b_->AddTablet("t", low_secondary).ok());

    storage::Tablet::Options high;
    high.range = KeyRange{"m", ""};
    high.is_primary = true;
    ASSERT_TRUE(node_b_->AddTablet("t2", high).ok());
    storage::Tablet::Options high_secondary;
    high_secondary.range = KeyRange{"m", ""};
    ASSERT_TRUE(node_a_->AddTablet("t2", high_secondary).ok());

    std::vector<ShardedClient::Shard> shards;
    shards.push_back(ShardedClient::Shard{
        KeyRange{"", "m"}, MakeView("t", node_a_.get(), node_b_.get())});
    shards.push_back(ShardedClient::Shard{
        KeyRange{"m", ""}, MakeView("t2", node_b_.get(), node_a_.get())});
    Result<std::unique_ptr<ShardedClient>> created =
        ShardedClient::Create(std::move(shards), &clock_, options);
    ASSERT_TRUE(created.ok()) << created.status();
    client_ = std::move(created).value();
  }

  TableView MakeView(const std::string& table, storage::StorageNode* primary,
                     storage::StorageNode* secondary) {
    TableView view;
    view.table_name = table;
    view.replicas = {
        Replica{primary->name(), true,
                std::make_shared<DirectConnection>(primary, &clock_,
                                                   5 * kMs)},
        Replica{secondary->name(), false,
                std::make_shared<DirectConnection>(secondary, &clock_,
                                                   1 * kMs)}};
    view.primary_index = 0;
    return view;
  }

  ManualClock clock_;
  std::unique_ptr<storage::StorageNode> node_a_;
  std::unique_ptr<storage::StorageNode> node_b_;
  std::unique_ptr<ShardedClient> client_;
};

TEST_F(ShardedClientTest, CreateRejectsGappyRanges) {
  Build();  // Just to have nodes for views.
  std::vector<ShardedClient::Shard> shards;
  shards.push_back(ShardedClient::Shard{
      KeyRange{"", "m"}, MakeView("t", node_a_.get(), node_b_.get())});
  shards.push_back(ShardedClient::Shard{
      KeyRange{"n", ""}, MakeView("t2", node_b_.get(), node_a_.get())});
  EXPECT_FALSE(
      ShardedClient::Create(std::move(shards), &clock_,
                            PileusClient::Options{})
          .ok());
}

TEST_F(ShardedClientTest, CreateRejectsOverlaps) {
  Build();
  std::vector<ShardedClient::Shard> shards;
  shards.push_back(ShardedClient::Shard{
      KeyRange{"", "n"}, MakeView("t", node_a_.get(), node_b_.get())});
  shards.push_back(ShardedClient::Shard{
      KeyRange{"m", ""}, MakeView("t2", node_b_.get(), node_a_.get())});
  EXPECT_FALSE(
      ShardedClient::Create(std::move(shards), &clock_,
                            PileusClient::Options{})
          .ok());
}

TEST_F(ShardedClientTest, CreateRejectsEmpty) {
  EXPECT_FALSE(ShardedClient::Create({}, &clock_, PileusClient::Options{})
                   .ok());
}

TEST_F(ShardedClientTest, RoutesByKeyRange) {
  Build();
  EXPECT_EQ(&client_->shard_client(0), client_->ShardFor("apple"));
  EXPECT_EQ(&client_->shard_client(0), client_->ShardFor(""));
  EXPECT_EQ(&client_->shard_client(1), client_->ShardFor("m"));
  EXPECT_EQ(&client_->shard_client(1), client_->ShardFor("zebra"));
}

TEST_F(ShardedClientTest, PutsLandAtTheRightPrimary) {
  Build();
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  ASSERT_TRUE(client_->Put(session, "apple", "low").ok());
  ASSERT_TRUE(client_->Put(session, "zebra", "high").ok());

  // Data lives on the shard's own primary, not the other one.
  EXPECT_TRUE(node_a_->FindTablet("t", "apple")->HandleGet("apple").found);
  EXPECT_FALSE(node_b_->FindTablet("t", "apple")->HandleGet("apple").found);
  EXPECT_TRUE(node_b_->FindTablet("t2", "zebra")->HandleGet("zebra").found);
  EXPECT_FALSE(node_a_->FindTablet("t2", "zebra")->HandleGet("zebra").found);
}

TEST_F(ShardedClientTest, GetsRouteAndHonorSession) {
  Build();
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  ASSERT_TRUE(client_->Put(session, "apple", "low").ok());
  ASSERT_TRUE(client_->Put(session, "zebra", "high").ok());

  Result<GetResult> low = client_->Get(session, "apple");
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low->value, "low");
  EXPECT_EQ(low->outcome.met_rank, 0);  // Read-my-writes across the shard.

  Result<GetResult> high = client_->Get(session, "zebra");
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(high->value, "high");
  EXPECT_EQ(high->outcome.met_rank, 0);
}

TEST_F(ShardedClientTest, SessionStateSpansShards) {
  Build();
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  ASSERT_TRUE(client_->Put(session, "apple", "low").ok());
  ASSERT_TRUE(client_->Put(session, "zebra", "high").ok());
  // One session accumulated puts from both shards.
  EXPECT_GT(session.LastPutTimestamp("apple"), Timestamp::Zero());
  EXPECT_GT(session.LastPutTimestamp("zebra"), Timestamp::Zero());
  EXPECT_EQ(session.tracked_put_keys(), 2u);
}

TEST_F(ShardedClientTest, PerShardMonitorsAreIndependent) {
  Build();
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  ASSERT_TRUE(client_->Put(session, "apple", "v").ok());
  // Shard 0's monitor knows its primary A; shard 1's knows nothing yet.
  EXPECT_GT(client_->shard_client(0).monitor().KnownHighTimestamp("A"),
            Timestamp::Zero());
  EXPECT_EQ(client_->shard_client(1).monitor().KnownHighTimestamp("B"),
            Timestamp::Zero());
}

TEST_F(ShardedClientTest, RangeScanSpansShards) {
  Build();
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  for (const char* key : {"apple", "kiwi", "mango", "zebra"}) {
    ASSERT_TRUE(client_->Put(session, key, std::string("v-") + key).ok());
  }
  Result<RangeResult> result = client_->GetRange(session, "", "", 0);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->items.size(), 4u);
  EXPECT_EQ(result->items[0].key, "apple");
  EXPECT_EQ(result->items[1].key, "kiwi");
  EXPECT_EQ(result->items[2].key, "mango");  // Crossed the "m" boundary.
  EXPECT_EQ(result->items[3].key, "zebra");
  EXPECT_EQ(result->outcome.met_rank, 0);  // RMW on both shards' primaries.
  EXPECT_GE(result->outcome.messages_sent, 2);
}

TEST_F(ShardedClientTest, RangeScanRespectsBoundsAndLimit) {
  Build();
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  for (const char* key : {"a", "b", "n", "p", "z"}) {
    ASSERT_TRUE(client_->Put(session, key, "v").ok());
  }
  Result<RangeResult> bounded = client_->GetRange(session, "b", "p", 0);
  ASSERT_TRUE(bounded.ok());
  ASSERT_EQ(bounded->items.size(), 2u);  // b, n.
  EXPECT_EQ(bounded->items[0].key, "b");
  EXPECT_EQ(bounded->items[1].key, "n");

  Result<RangeResult> limited = client_->GetRange(session, "", "", 3);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->items.size(), 3u);
  EXPECT_TRUE(limited->truncated);
}

TEST_F(ShardedClientTest, RangeScanWithinOneShard) {
  Build();
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  ASSERT_TRUE(client_->Put(session, "apple", "v").ok());
  ASSERT_TRUE(client_->Put(session, "zebra", "v").ok());
  Result<RangeResult> result = client_->GetRange(session, "a", "c", 0);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->items.size(), 1u);
  EXPECT_EQ(result->items[0].key, "apple");
  // Only the low shard was consulted.
  EXPECT_EQ(result->outcome.messages_sent, 1);
}

TEST_F(ShardedClientTest, ManyShards) {
  // 8-way split with a single node hosting all primaries.
  node_a_ = std::make_unique<storage::StorageNode>("A", "site-a", &clock_);
  std::vector<ShardedClient::Shard> shards;
  int table_index = 0;
  for (const KeyRange& range : SplitKeySpaceEvenly(8)) {
    const std::string table = "t" + std::to_string(table_index++);
    storage::Tablet::Options options;
    options.range = range;
    options.is_primary = true;
    ASSERT_TRUE(node_a_->AddTablet(table, options).ok());
    TableView view;
    view.table_name = table;
    view.replicas = {Replica{"A", true,
                             std::make_shared<DirectConnection>(
                                 node_a_.get(), &clock_, 1 * kMs)}};
    view.primary_index = 0;
    shards.push_back(ShardedClient::Shard{range, std::move(view)});
  }
  auto created = ShardedClient::Create(std::move(shards), &clock_,
                                       PileusClient::Options{});
  ASSERT_TRUE(created.ok()) << created.status();
  auto client = std::move(created).value();

  Session session = client->BeginSession(ShoppingCartSla()).value();
  for (int c = 0; c < 256; c += 5) {
    const std::string key(1, static_cast<char>(c));
    ASSERT_TRUE(client->Put(session, key, "v").ok()) << c;
    Result<GetResult> result = client->Get(session, key);
    ASSERT_TRUE(result.ok()) << c;
    EXPECT_EQ(result->value, "v");
  }
}

TEST_F(ShardedClientTest, OneCacheSpansAllShards) {
  // A single ClientCache handed to Create covers every per-range client:
  // entries are table-scoped and the ranges are disjoint, so both shards'
  // write-throughs land in (and serve from) the same cache.
  cache::ClientCache cache;
  PileusClient::Options options;
  options.cache = &cache;
  Build(options);
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  ASSERT_TRUE(client_->Put(session, "apple", "low").ok());
  ASSERT_TRUE(client_->Put(session, "zebra", "high").ok());

  Result<GetResult> low = client_->Get(session, "apple");
  ASSERT_TRUE(low.ok());
  EXPECT_TRUE(low->outcome.from_cache);
  EXPECT_EQ(low->value, "low");
  Result<GetResult> high = client_->Get(session, "zebra");
  ASSERT_TRUE(high.ok());
  EXPECT_TRUE(high->outcome.from_cache);
  EXPECT_EQ(high->value, "high");

  EXPECT_EQ(client_->cache_serves(), 2u);
  EXPECT_EQ(cache.Stats().entries, 2u);
}

// --- Dynamic mode: map-driven routing, fence-triggered refresh ---

class DynamicShardedClientTest : public ::testing::Test {
 protected:
  DynamicShardedClientTest() : clock_(SecondsToMicroseconds(1000)) {
    node_a_ = std::make_unique<storage::StorageNode>("A", "site-a", &clock_);
    node_b_ = std::make_unique<storage::StorageNode>("B", "site-b", &clock_);
  }

  void AddTablet(storage::StorageNode& node, const KeyRange& range,
                 bool is_primary) {
    storage::Tablet::Options options;
    options.range = range;
    options.is_primary = is_primary;
    ASSERT_TRUE(node.AddTablet("t", options).ok());
  }

  tablets::TabletInfo Entry(std::string begin, std::string end,
                            uint64_t epoch, std::string primary) {
    tablets::TabletInfo info;
    info.range.begin = std::move(begin);
    info.range.end = std::move(end);
    info.config.epoch = epoch;
    info.config.primary = primary;
    info.config.members = {std::move(primary)};
    return info;
  }

  void BuildDynamic(tablets::TabletMap initial) {
    ShardedClient::DynamicOptions dynamic;
    dynamic.connect =
        [this](const std::string& name) -> std::shared_ptr<NodeConnection> {
      storage::StorageNode* node =
          name == "A" ? node_a_.get() : (name == "B" ? node_b_.get() : nullptr);
      if (node == nullptr) {
        return nullptr;
      }
      return std::make_shared<DirectConnection>(node, &clock_, 1 * kMs);
    };
    Result<std::unique_ptr<ShardedClient>> created = ShardedClient::CreateDynamic(
        std::move(initial), &clock_, PileusClient::Options{},
        std::move(dynamic));
    ASSERT_TRUE(created.ok()) << created.status();
    client_ = std::move(created).value();
  }

  ManualClock clock_;
  std::unique_ptr<storage::StorageNode> node_a_;
  std::unique_ptr<storage::StorageNode> node_b_;
  std::unique_ptr<ShardedClient> client_;
};

TEST_F(DynamicShardedClientTest, WrongTabletFenceTriggersMapRefresh) {
  // A starts as primary for the whole keyspace (two tablets); B holds a
  // secondary of the upper range.
  AddTablet(*node_a_, KeyRange{"", "m"}, /*is_primary=*/true);
  AddTablet(*node_a_, KeyRange{"m", ""}, /*is_primary=*/true);
  AddTablet(*node_b_, KeyRange{"m", ""}, /*is_primary=*/false);

  tablets::TabletMap v1;
  v1.table = "t";
  v1.version = 1;
  v1.tablets.push_back(Entry("", "m", 1, "A"));
  v1.tablets.push_back(Entry("m", "", 1, "A"));
  BuildDynamic(v1);
  ASSERT_EQ(client_->map_version(), 1u);

  // The upper range migrates to B behind the client's back: the nodes adopt
  // map v2 (A demotes and fences, B promotes), the client still holds v1.
  tablets::TabletMap v2 = v1;
  v2.version = 2;
  v2.tablets[1] = Entry("m", "", 2, "B");
  ASSERT_TRUE(node_a_->InstallTabletMap(v2));
  ASSERT_TRUE(node_b_->InstallTabletMap(v2));

  // The client's first write to the moved range is fenced with kWrongTablet,
  // refreshes its map from the fencing node, and retries against B — the
  // caller sees one clean success, not an error.
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  ASSERT_TRUE(client_->Put(session, "zebra", "high").ok());
  EXPECT_EQ(client_->map_version(), 2u);
  EXPECT_EQ(client_->map_refreshes(), 1u);
  EXPECT_TRUE(node_b_->FindTablet("t", "zebra")->HandleGet("zebra").found);
  EXPECT_FALSE(node_a_->FindTablet("t", "zebra")->HandleGet("zebra").found);

  // Writes to the unmoved range still land on A with no further refresh.
  ASSERT_TRUE(client_->Put(session, "apple", "low").ok());
  EXPECT_EQ(client_->map_refreshes(), 1u);
  EXPECT_TRUE(node_a_->FindTablet("t", "apple")->HandleGet("apple").found);
}

TEST_F(DynamicShardedClientTest, DemotedPrimaryRedirectTriggersMapRefresh) {
  // A leads the upper range alone; B hosts a copy the client's map omits.
  AddTablet(*node_a_, KeyRange{"", "m"}, /*is_primary=*/true);
  AddTablet(*node_a_, KeyRange{"m", ""}, /*is_primary=*/true);
  AddTablet(*node_b_, KeyRange{"m", ""}, /*is_primary=*/false);

  tablets::TabletMap v1;
  v1.table = "t";
  v1.version = 1;
  v1.tablets.push_back(Entry("", "m", 1, "A"));
  v1.tablets.push_back(Entry("m", "", 1, "A"));
  BuildDynamic(v1);

  // A failover edit: B leads the upper range in epoch 2, and A stays on as
  // a member, so A answers the stale route with kNotPrimary (not
  // kWrongTablet). Its hint names B, whom the shard client cannot reach
  // from its v1 replica set.
  tablets::TabletMap v2 = v1;
  v2.version = 2;
  v2.tablets[1] = Entry("m", "", 2, "B");
  v2.tablets[1].config.members = {"A", "B"};
  ASSERT_TRUE(node_a_->InstallTabletMap(v2));
  ASSERT_TRUE(node_b_->InstallTabletMap(v2));

  // The unresolved redirect refreshes the map and the retry lands on B.
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  ASSERT_TRUE(client_->Put(session, "zebra", "high").ok());
  EXPECT_EQ(client_->map_version(), 2u);
  EXPECT_EQ(client_->map_refreshes(), 1u);
  EXPECT_TRUE(node_b_->FindTablet("t", "zebra")->HandleGet("zebra").found);
  EXPECT_FALSE(node_a_->FindTablet("t", "zebra")->HandleGet("zebra").found);
}

TEST_F(DynamicShardedClientTest, UnrouteableKeyReturnsUnavailable) {
  // The initial map covers only the lower half — dynamic mode tolerates the
  // gap, but keys inside it must fail honestly instead of misrouting.
  AddTablet(*node_a_, KeyRange{"", "m"}, /*is_primary=*/true);
  tablets::TabletMap partial;
  partial.table = "t";
  partial.version = 1;
  partial.tablets.push_back(Entry("", "m", 1, "A"));
  BuildDynamic(partial);

  Session session = client_->BeginSession(ShoppingCartSla()).value();
  ASSERT_TRUE(client_->Put(session, "apple", "low").ok());

  const Result<GetResult> gap = client_->Get(session, "zebra");
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.status().code(), StatusCode::kUnavailable);
  const Result<PutResult> gap_put = client_->Put(session, "zebra", "v");
  ASSERT_FALSE(gap_put.ok());
  EXPECT_EQ(gap_put.status().code(), StatusCode::kUnavailable);
}

TEST_F(DynamicShardedClientTest, UnrouteableKeyRecoversAfterMapFillsGap) {
  AddTablet(*node_a_, KeyRange{"", "m"}, /*is_primary=*/true);
  AddTablet(*node_a_, KeyRange{"m", ""}, /*is_primary=*/true);
  tablets::TabletMap partial;
  partial.table = "t";
  partial.version = 1;
  partial.tablets.push_back(Entry("", "m", 1, "A"));
  BuildDynamic(partial);

  // The full map lands on the node; the client learns it through the
  // unrouteable-key refresh path rather than a fence.
  tablets::TabletMap full = partial;
  full.version = 2;
  full.tablets.push_back(Entry("m", "", 1, "A"));
  ASSERT_TRUE(node_a_->InstallTabletMap(full));

  Session session = client_->BeginSession(ShoppingCartSla()).value();
  ASSERT_TRUE(client_->Put(session, "zebra", "high").ok());
  EXPECT_EQ(client_->map_version(), 2u);
  EXPECT_EQ(client_->map_refreshes(), 1u);
  EXPECT_EQ(client_->Get(session, "zebra")->value, "high");
}

// Passes requests straight through to the node but holds every tablet-map
// fetch at a gate until released, so concurrent refreshes demonstrably pile
// up behind one in-flight query.
class GatedMapConnection : public NodeConnection {
 public:
  explicit GatedMapConnection(storage::StorageNode* node) : node_(node) {}

  TimedReply Call(const proto::Message& request,
                  MicrosecondCount /*timeout*/) override {
    if (std::holds_alternative<proto::TabletMapRequest>(request)) {
      fetches_.fetch_add(1);
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return open_; });
    }
    return TimedReply(node_->Handle(request), 0);
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  int fetches() const { return fetches_.load(); }

 private:
  storage::StorageNode* node_;
  std::atomic<int> fetches_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST_F(DynamicShardedClientTest, ConcurrentRefreshesShareOneFetch) {
  AddTablet(*node_a_, KeyRange{"", "m"}, /*is_primary=*/true);
  AddTablet(*node_a_, KeyRange{"m", ""}, /*is_primary=*/true);
  tablets::TabletMap v1;
  v1.table = "t";
  v1.version = 1;
  v1.tablets.push_back(Entry("", "m", 1, "A"));
  v1.tablets.push_back(Entry("m", "", 1, "A"));

  auto gated = std::make_shared<GatedMapConnection>(node_a_.get());
  ShardedClient::DynamicOptions dynamic;
  dynamic.connect =
      [gated](const std::string& name) -> std::shared_ptr<NodeConnection> {
    return name == "A" ? gated : nullptr;
  };
  Result<std::unique_ptr<ShardedClient>> created =
      ShardedClient::CreateDynamic(v1, &clock_, PileusClient::Options{},
                                   std::move(dynamic));
  ASSERT_TRUE(created.ok()) << created.status();
  client_ = std::move(created).value();

  // A newer map waits on the node; every concurrent refresh wants it.
  tablets::TabletMap v2 = v1;
  v2.version = 2;
  ASSERT_TRUE(node_a_->InstallTabletMap(v2));

  constexpr int kCallers = 4;
  std::vector<Status> results(kCallers);
  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back(
        [this, &results, i] { results[i] = client_->RefreshTabletMap(); });
  }
  // Exactly one caller reaches the (gated) wire; the other three must
  // register as joiners on the same fetch before we let it finish.
  while (gated->fetches() < 1) {
    std::this_thread::yield();
  }
  while (client_->map_refreshes_coalesced() < kCallers - 1) {
    std::this_thread::yield();
  }
  gated->Open();
  for (std::thread& caller : callers) {
    caller.join();
  }

  for (int i = 0; i < kCallers; ++i) {
    EXPECT_TRUE(results[i].ok()) << "caller " << i << ": " << results[i];
  }
  EXPECT_EQ(gated->fetches(), 1);  // One wire query served all four callers.
  EXPECT_EQ(client_->map_version(), 2u);
  EXPECT_EQ(client_->map_refreshes(), 1u);
  EXPECT_EQ(client_->map_refreshes_coalesced(),
            static_cast<uint64_t>(kCallers - 1));
}

TEST_F(DynamicShardedClientTest, RoutingTableFuzz) {
  // Random gappy tilings: for every probe key, ShardFor must agree exactly
  // with the map's own OwnerOf — present iff some tablet covers the key,
  // and never a neighbouring shard (no misrouting off a gap edge).
  AddTablet(*node_a_, KeyRange::All(), /*is_primary=*/true);
  std::mt19937_64 rng(20260808);
  const auto random_key = [&] {
    std::string key(1 + rng() % 5, 'a');
    for (char& c : key) {
      c = static_cast<char>('a' + rng() % 26);
    }
    return key;
  };
  for (int trial = 0; trial < 40; ++trial) {
    std::set<std::string> boundaries;
    const size_t count = 2 + rng() % 6;
    while (boundaries.size() < count) {
      boundaries.insert(random_key());
    }
    std::vector<std::string> sorted(boundaries.begin(), boundaries.end());
    // Walk the gaps between consecutive boundaries (plus the unbounded
    // flanks) and keep each resulting range with probability 1/2.
    tablets::TabletMap map;
    map.table = "t";
    map.version = 1;
    std::string begin = "";
    for (size_t i = 0; i <= sorted.size(); ++i) {
      const std::string end = i < sorted.size() ? sorted[i] : "";
      if ((begin != end || end.empty()) && rng() % 2 == 0) {
        map.tablets.push_back(Entry(begin, end, 1, "A"));
      }
      begin = end;
    }
    if (map.tablets.empty()) {
      map.tablets.push_back(Entry("", "", 1, "A"));
    }
    BuildDynamic(map);
    ASSERT_EQ(client_->shard_count(),
              static_cast<size_t>(map.tablets.size()));
    for (int probe = 0; probe < 100; ++probe) {
      const std::string key = probe == 0 ? std::string() : random_key();
      const tablets::TabletInfo* owner = map.OwnerOf(key);
      PileusClient* shard = client_->ShardFor(key);
      if (owner == nullptr) {
        EXPECT_EQ(shard, nullptr) << "misroute of uncovered key '" << key
                                  << "' in trial " << trial;
      } else {
        ASSERT_NE(shard, nullptr) << "covered key '" << key
                                  << "' unrouteable in trial " << trial;
      }
    }
  }
}

}  // namespace
}  // namespace pileus::core
