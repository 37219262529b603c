// Tests for ShardedClient: routing across range-partitioned tablets with
// independent primaries, validation, and cross-shard session guarantees.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/core/sharded_client.h"
#include "src/storage/storage_node.h"
#include "src/tablets/tablet_map.h"

namespace pileus::core {
namespace {

constexpr MicrosecondCount kMs = kMicrosecondsPerMillisecond;

// Direct call into a StorageNode, advancing a shared manual clock by the
// configured RTT. Counts the tablet-map queries it carries in `map_queries`.
class DirectConnection : public NodeConnection {
 public:
  DirectConnection(storage::StorageNode* node, ManualClock* clock,
                   MicrosecondCount rtt_us, int* map_queries)
      : node_(node), clock_(clock), rtt_us_(rtt_us),
        map_queries_(map_queries) {}

  TimedReply Call(const proto::Message& request,
                  MicrosecondCount /*timeout*/) override {
    if (std::holds_alternative<proto::TabletMapRequest>(request)) {
      ++*map_queries_;
    }
    clock_->AdvanceMicros(rtt_us_);
    return TimedReply(node_->Handle(request), rtt_us_);
  }

 private:
  storage::StorageNode* node_;
  ManualClock* clock_;
  MicrosecondCount rtt_us_;
  int* map_queries_;
};

class ShardedClientTest : public ::testing::Test {
 protected:
  ShardedClientTest() : clock_(SecondsToMicroseconds(1000)) {
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

  // Connects nodes A and B at their own RTTs.
  ShardedClient::RoutingOptions Routing(MicrosecondCount rtt_a,
                                        MicrosecondCount rtt_b) {
    ShardedClient::RoutingOptions routing;
    routing.connect = [this, rtt_a, rtt_b](const std::string& name)
        -> std::shared_ptr<NodeConnection> {
      if (name == "A") {
        return std::make_shared<DirectConnection>(node_a_.get(), &clock_,
                                                  rtt_a, &map_queries_);
      }
      if (name == "B") {
        return std::make_shared<DirectConnection>(node_b_.get(), &clock_,
                                                  rtt_b, &map_queries_);
      }
      return nullptr;
    };
    return routing;
  }

  void Create(tablets::TabletMap map, PileusClient::Options options,
              ShardedClient::RoutingOptions routing) {
    Result<std::unique_ptr<ShardedClient>> created = ShardedClient::Create(
        std::move(map), &clock_, options, std::move(routing));
    ASSERT_TRUE(created.ok()) << created.status();
    client_ = std::move(created).value();
  }

  // One table split at "m": the low tablet's primary is node A, the high
  // tablet's primary is node B (different primary sites per tablet, as the
  // paper allows), and each node holds a secondary of the other tablet.
  tablets::TabletMap TwoTablets() {
    tablets::TabletMap map;
    map.table = "t";
    map.version = 1;
    map.tablets.push_back(Entry("", "m", 1, "A"));
    map.tablets.push_back(Entry("m", "", 1, "B"));
    map.tablets[0].config.members = {"A", "B"};
    map.tablets[1].config.members = {"B", "A"};
    return map;
  }

  // The two-tablet table as a fixed map the nodes never install. Node A
  // answers in 5 ms, node B in 1 ms.
  void Build(PileusClient::Options options = PileusClient::Options{}) {
    AddTablet(*node_a_, KeyRange{"", "m"}, /*is_primary=*/true);
    AddTablet(*node_b_, KeyRange{"", "m"}, /*is_primary=*/false);
    AddTablet(*node_b_, KeyRange{"m", ""}, /*is_primary=*/true);
    AddTablet(*node_a_, KeyRange{"m", ""}, /*is_primary=*/false);
    Create(TwoTablets(), options, Routing(5 * kMs, 1 * kMs));
  }

  ManualClock clock_;
  std::unique_ptr<storage::StorageNode> node_a_;
  std::unique_ptr<storage::StorageNode> node_b_;
  std::unique_ptr<ShardedClient> client_;
  int map_queries_ = 0;  // Tablet-map queries sent to A or B.
};

TEST_F(ShardedClientTest, CreateRejectsOverlaps) {
  tablets::TabletMap overlapping = TwoTablets();
  overlapping.tablets[0].range.end = "n";
  EXPECT_FALSE(ShardedClient::Create(std::move(overlapping), &clock_,
                                     PileusClient::Options{},
                                     Routing(1 * kMs, 1 * kMs))
                   .ok());
  // Routing binary-searches the ranges, so an unsorted map is refused too.
  tablets::TabletMap unsorted = TwoTablets();
  std::swap(unsorted.tablets[0], unsorted.tablets[1]);
  EXPECT_FALSE(ShardedClient::Create(std::move(unsorted), &clock_,
                                     PileusClient::Options{},
                                     Routing(1 * kMs, 1 * kMs))
                   .ok());
}

TEST_F(ShardedClientTest, CreateRejectsEmpty) {
  tablets::TabletMap map;
  map.table = "t";
  EXPECT_FALSE(ShardedClient::Create(std::move(map), &clock_,
                                     PileusClient::Options{},
                                     Routing(1 * kMs, 1 * kMs))
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
  EXPECT_TRUE(node_b_->FindTablet("t", "zebra")->HandleGet("zebra").found);
  EXPECT_FALSE(node_a_->FindTablet("t", "zebra")->HandleGet("zebra").found);
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
  EXPECT_EQ(result->items[0]->key, "apple");
  EXPECT_EQ(result->items[1]->key, "kiwi");
  EXPECT_EQ(result->items[2]->key, "mango");  // Crossed the "m" boundary.
  EXPECT_EQ(result->items[3]->key, "zebra");
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
  EXPECT_EQ(bounded->items[0]->key, "b");
  EXPECT_EQ(bounded->items[1]->key, "n");

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
  EXPECT_EQ(result->items[0]->key, "apple");
  // Only the low shard was consulted.
  EXPECT_EQ(result->outcome.messages_sent, 1);
}

TEST_F(ShardedClientTest, ManyShards) {
  // 8-way split of one table with a single node hosting all primaries.
  tablets::TabletMap map;
  map.table = "t";
  map.version = 1;
  for (const KeyRange& range : SplitKeySpaceEvenly(8)) {
    AddTablet(*node_a_, range, /*is_primary=*/true);
    map.tablets.push_back(Entry(range.begin, range.end, 1, "A"));
  }
  Create(std::move(map), PileusClient::Options{},
         Routing(1 * kMs, 1 * kMs));
  ASSERT_EQ(client_->shard_count(), 8u);

  Session session = client_->BeginSession(ShoppingCartSla()).value();
  for (int c = 0; c < 256; c += 5) {
    const std::string key(1, static_cast<char>(c));
    ASSERT_TRUE(client_->Put(session, key, "v").ok()) << c;
    Result<GetResult> result = client_->Get(session, key);
    ASSERT_TRUE(result.ok()) << c;
    EXPECT_EQ(result->value, "v");
  }
}

TEST_F(ShardedClientTest, FixedMapNeverQueriesTheMap) {
  // A fixed map covering only the lower range: neither an unrouteable key
  // nor a fenced operation may send a tablet-map query.
  AddTablet(*node_a_, KeyRange{"", "m"}, /*is_primary=*/true);
  AddTablet(*node_b_, KeyRange{"", "m"}, /*is_primary=*/false);
  tablets::TabletMap v1;
  v1.table = "t";
  v1.version = 1;
  v1.tablets.push_back(Entry("", "m", 1, "A"));
  Create(v1, PileusClient::Options{}, Routing(1 * kMs, 1 * kMs));
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  ASSERT_TRUE(client_->Put(session, "apple", "low").ok());

  EXPECT_EQ(client_->Get(session, "zebra").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(client_->GetRange(session, "", "", 0).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(map_queries_, 0);

  // The range moves to B behind the client's back, so A fences it.
  tablets::TabletMap v2 = v1;
  v2.version = 2;
  v2.tablets[0] = Entry("", "m", 2, "B");
  v2.tablets.push_back(Entry("m", "", 1, "B"));
  ASSERT_TRUE(node_a_->InstallTabletMap(v2));
  ASSERT_TRUE(node_b_->InstallTabletMap(v2));
  const Result<GetResult> fenced = client_->Get(session, "apple");
  ASSERT_FALSE(fenced.ok());
  EXPECT_EQ(fenced.status().code(), StatusCode::kUnavailable)
      << fenced.status();
  // A write's fence goes back to the caller as it stands.
  EXPECT_EQ(client_->Put(session, "apple", "moved").status().code(),
            StatusCode::kWrongTablet);
  EXPECT_EQ(map_queries_, 0);
  EXPECT_EQ(client_->map_version(), 1u);
}

// --- Maps with gaps, and arbitrary routing tables ---

class DynamicShardedClientTest : public ShardedClientTest {
 protected:
  void BuildDynamic(tablets::TabletMap initial) {
    Create(std::move(initial), PileusClient::Options{},
           Routing(1 * kMs, 1 * kMs));
  }
};

TEST_F(DynamicShardedClientTest, UnrouteableKeyReturnsUnavailable) {
  // The initial map covers only the lower half — a map may have gaps, but
  // keys inside one must fail honestly instead of misrouting.
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

TEST_F(DynamicShardedClientTest, ScanAcrossGapIsUnavailable) {
  // A stores keys on both sides of "m", but the client's map covers only
  // the lower range: a scan must not skip the gap and claim completeness.
  AddTablet(*node_a_, KeyRange{"", "m"}, /*is_primary=*/true);
  AddTablet(*node_a_, KeyRange{"m", ""}, /*is_primary=*/true);
  tablets::TabletMap full;
  full.table = "t";
  full.version = 1;
  full.tablets.push_back(Entry("", "m", 1, "A"));
  full.tablets.push_back(Entry("m", "", 1, "A"));
  BuildDynamic(full);
  Session writer = client_->BeginSession(ShoppingCartSla()).value();
  ASSERT_TRUE(client_->Put(writer, "apple", "low").ok());
  ASSERT_TRUE(client_->Put(writer, "zebra", "high").ok());

  tablets::TabletMap partial = full;
  partial.tablets.pop_back();
  BuildDynamic(partial);
  Session session = client_->BeginSession(ShoppingCartSla()).value();
  const Result<RangeResult> scan = client_->GetRange(session, "", "", 0);
  ASSERT_FALSE(scan.ok()) << scan->items.size() << " items returned";
  EXPECT_EQ(scan.status().code(), StatusCode::kUnavailable);

  // The covered part of the keyspace still scans.
  const Result<RangeResult> covered = client_->GetRange(session, "", "m", 0);
  ASSERT_TRUE(covered.ok()) << covered.status();
  ASSERT_EQ(covered->items.size(), 1u);
  EXPECT_EQ(covered->items[0]->key, "apple");
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
