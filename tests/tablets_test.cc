// Tests for the dynamic-tablet subsystem (DESIGN.md Sections 14 and 15):
// the versioned TabletMap and its codec, per-node load sampling, the
// rebalance planner, map installation and kWrongTablet fencing on storage
// nodes, the coordinator's split and live-migration protocols including
// rollback, the durable intent log, coordinator crash recovery (a
// crash-point torture matrix over every phase boundary, with in-memory and
// with durable nodes), the directory lifecycle of durable nodes' tablets,
// and lease-based coordinator failover.

#include <fcntl.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/proto/messages.h"
#include "src/server/node_host.h"
#include "src/sim/fault_injector.h"
#include "src/storage/storage_node.h"
#include "src/tablets/coordinator.h"
#include "src/tablets/intent_log.h"
#include "src/tablets/manager.h"
#include "src/tablets/rebalancer.h"
#include "src/tablets/tablet_map.h"
#include "src/util/codec.h"

namespace pileus::tablets {
namespace {

constexpr const char* kTable = "accounts";

TabletInfo MakeInfo(std::string begin, std::string end, uint64_t epoch,
                    std::string primary,
                    std::vector<std::string> members = {}) {
  TabletInfo info;
  info.range.begin = std::move(begin);
  info.range.end = std::move(end);
  info.config.epoch = epoch;
  if (members.empty()) {
    members = {primary};
  }
  info.config.primary = std::move(primary);
  info.config.members = std::move(members);
  return info;
}

bool Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::vector<KeyRange> HostedRanges(const storage::StorageNode& node) {
  std::vector<KeyRange> ranges;
  for (const auto& stat : node.LocalTabletStats(kTable)) {
    ranges.push_back(stat.range);
  }
  return ranges;
}

TabletMap TwoTabletMap() {
  TabletMap map;
  map.table = kTable;
  map.version = 3;
  map.tablets.push_back(MakeInfo("", "m", 1, "alpha"));
  map.tablets.push_back(MakeInfo("m", "", 2, "beta", {"beta", "gamma"}));
  return map;
}

// --- TabletMap: validation, ownership, codec ---

TEST(TabletMapTest, ValidMapValidates) {
  EXPECT_TRUE(TwoTabletMap().Validate().ok());
}

TEST(TabletMapTest, EmptyMapIsInvalid) {
  TabletMap map;
  map.table = kTable;
  map.version = 1;
  EXPECT_FALSE(map.Validate().ok());
}

TEST(TabletMapTest, GapBetweenRangesIsInvalid) {
  TabletMap map = TwoTabletMap();
  map.tablets[1].range.begin = "n";  // [ "", "m") then ["n", "") — gap at "m".
  EXPECT_FALSE(map.Validate().ok());
}

TEST(TabletMapTest, OverlapIsInvalid) {
  TabletMap map = TwoTabletMap();
  map.tablets[1].range.begin = "l";  // Overlaps ["", "m").
  EXPECT_FALSE(map.Validate().ok());
}

TEST(TabletMapTest, MustStartAtLowestKeyAndEndUnbounded) {
  TabletMap starts_late = TwoTabletMap();
  starts_late.tablets[0].range.begin = "a";
  EXPECT_FALSE(starts_late.Validate().ok());

  TabletMap ends_early = TwoTabletMap();
  ends_early.tablets[1].range.end = "z";
  EXPECT_FALSE(ends_early.Validate().ok());
}

TEST(TabletMapTest, PrimaryMustBeMember) {
  TabletMap map = TwoTabletMap();
  map.tablets[0].config.primary = "stranger";
  EXPECT_FALSE(map.Validate().ok());
}

TEST(TabletMapTest, OwnerOfRespectsHalfOpenBounds) {
  const TabletMap map = TwoTabletMap();
  ASSERT_NE(map.OwnerOf(""), nullptr);
  EXPECT_EQ(map.OwnerOf("")->config.primary, "alpha");
  EXPECT_EQ(map.OwnerOf("lzz")->config.primary, "alpha");
  // The split key itself belongs to the upper sibling (begin inclusive).
  EXPECT_EQ(map.OwnerOf("m")->config.primary, "beta");
  EXPECT_EQ(map.OwnerOf("zzz")->config.primary, "beta");
}

TEST(TabletMapTest, OwnerOfEmptyMapIsNull) {
  TabletMap map;
  map.table = kTable;
  EXPECT_EQ(map.OwnerOf("k"), nullptr);
}

TEST(TabletMapTest, CodecRoundTripPreservesEverything) {
  TabletMap map = TwoTabletMap();
  map.coordinator_epoch = 9;
  map.tablets[0].size_bytes = 123456;
  map.tablets[0].ops_per_sec = 789;
  map.tablets[1].config.sync_members = {"gamma"};

  Encoder enc;
  EncodeTabletMap(enc, map);
  Decoder dec(enc.buffer());
  TabletMap decoded;
  ASSERT_TRUE(DecodeTabletMap(dec, &decoded).ok());
  EXPECT_EQ(decoded, map);
}

// --- TabletManager: load sampling ---

class ManagerTest : public ::testing::Test {
 protected:
  ManagerTest() : clock_(1'000'000), node_("alpha", "dc1", &clock_) {
    storage::Tablet::Options options;
    options.range = KeyRange::All();
    options.is_primary = true;
    EXPECT_TRUE(node_.AddTablet(kTable, options).ok());
  }

  void PutKeys(int count, int offset = 0) {
    for (int i = 0; i < count; ++i) {
      proto::PutRequest put;
      put.table = kTable;
      put.key = "key" + std::to_string(offset + i);
      put.value = "value";
      ASSERT_TRUE(std::holds_alternative<proto::PutReply>(node_.Handle(put)));
      clock_.AdvanceMicros(10);
    }
  }

  ManualClock clock_;
  storage::StorageNode node_;
};

TEST_F(ManagerTest, FirstSampleHasNoRateBaseline) {
  TabletManager manager(&node_, &clock_);
  PutKeys(100);
  const std::vector<TabletManager::TabletStat> stats = manager.Sample(kTable);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].ops_per_sec, 0u) << "no previous sample to diff against";
  EXPECT_EQ(stats[0].ops_total, 100u);
  EXPECT_TRUE(stats[0].is_primary);
}

TEST_F(ManagerTest, SecondSampleDerivesRateFromCounterDelta) {
  TabletManager manager(&node_, &clock_);
  (void)manager.Sample(kTable);  // Establish the baseline.
  PutKeys(100);
  clock_.AdvanceMicros(1'000'000 - 100 * 10);  // Exactly 1s since baseline.
  const std::vector<TabletManager::TabletStat> stats = manager.Sample(kTable);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].ops_per_sec, 100u);
}

TEST_F(ManagerTest, BackToBackSampleReusesPreviousRate) {
  TabletManager manager(&node_, &clock_);
  (void)manager.Sample(kTable);
  PutKeys(50);
  clock_.AdvanceMicros(1'000'000 - 50 * 10);
  const uint64_t rate = manager.Sample(kTable)[0].ops_per_sec;
  EXPECT_EQ(rate, 50u);
  // A re-sample < 1ms later must not divide the tiny delta by ~0.
  const std::vector<TabletManager::TabletStat> again = manager.Sample(kTable);
  EXPECT_EQ(again[0].ops_per_sec, rate);
}

// --- Rebalancer: pure planning policy ---

TabletLoad MakeLoad(std::string begin, std::string end, std::string primary,
                    uint64_t ops, std::string split_key = "") {
  TabletLoad load;
  load.range.begin = std::move(begin);
  load.range.end = std::move(end);
  load.primary = std::move(primary);
  load.ops_per_sec = ops;
  load.split_key = std::move(split_key);
  return load;
}

TEST(RebalancerTest, SplitsPlannedBeforeMoves) {
  Rebalancer::Options options;
  options.split_threshold_bytes = 0;
  options.split_threshold_ops_per_sec = 100;
  options.imbalance_ratio = 1.2;
  const Rebalancer rebalancer(options);

  // n1 is both over the split threshold and the hottest node.
  const std::vector<TabletLoad> loads = {
      MakeLoad("", "m", "n1", 500, "g"),
      MakeLoad("m", "", "n2", 10),
  };
  const std::vector<RebalanceAction> actions =
      rebalancer.Plan(loads, {"n1", "n2"});
  ASSERT_FALSE(actions.empty());
  EXPECT_EQ(actions[0].kind, RebalanceAction::Kind::kSplit);
  EXPECT_EQ(actions[0].split_key, "g");
  // The tablet being split must not also be planned as a move this round.
  for (const RebalanceAction& action : actions) {
    if (action.kind == RebalanceAction::Kind::kMove) {
      EXPECT_NE(action.range.begin, "");
    }
  }
}

TEST(RebalancerTest, HotTabletWithoutPivotCannotSplit) {
  Rebalancer::Options options;
  options.split_threshold_bytes = 0;
  options.split_threshold_ops_per_sec = 100;
  const Rebalancer rebalancer(options);
  const std::vector<TabletLoad> loads = {MakeLoad("", "", "n1", 500)};
  for (const RebalanceAction& action : rebalancer.Plan(loads, {"n1", "n2"})) {
    EXPECT_NE(action.kind, RebalanceAction::Kind::kSplit);
  }
}

TEST(RebalancerTest, BalancedLoadPlansNothing) {
  Rebalancer::Options options;
  options.split_threshold_bytes = 0;
  options.split_threshold_ops_per_sec = 0;  // Splitting disabled.
  options.imbalance_ratio = 1.5;
  const Rebalancer rebalancer(options);
  const std::vector<TabletLoad> loads = {
      MakeLoad("", "m", "n1", 100),
      MakeLoad("m", "", "n2", 110),
  };
  EXPECT_TRUE(rebalancer.Plan(loads, {"n1", "n2"}).empty())
      << "spread below imbalance_ratio must not trigger migration";
}

TEST(RebalancerTest, ImbalanceMovesHottestMovableTabletToCoolestNode) {
  Rebalancer::Options options;
  options.split_threshold_bytes = 0;
  options.split_threshold_ops_per_sec = 0;
  options.imbalance_ratio = 1.5;
  const Rebalancer rebalancer(options);
  const std::vector<TabletLoad> loads = {
      MakeLoad("", "f", "n1", 300),
      MakeLoad("f", "m", "n1", 200),
      MakeLoad("m", "", "n2", 10),
  };
  // n3 holds nothing and is the coolest — this is how an empty node fills.
  const std::vector<RebalanceAction> actions =
      rebalancer.Plan(loads, {"n1", "n2", "n3"});
  ASSERT_FALSE(actions.empty());
  EXPECT_EQ(actions[0].kind, RebalanceAction::Kind::kMove);
  EXPECT_EQ(actions[0].from, "n1");
  EXPECT_EQ(actions[0].to, "n3");
  EXPECT_EQ(actions[0].range.begin, "");  // The 300 ops/s tablet.
}

TEST(RebalancerTest, MoveThatWouldSwapTheHotspotIsRejected) {
  Rebalancer::Options options;
  options.split_threshold_bytes = 0;
  options.split_threshold_ops_per_sec = 0;
  options.imbalance_ratio = 1.2;
  const Rebalancer rebalancer(options);
  // One giant tablet: moving it would just relocate the problem.
  const std::vector<TabletLoad> loads = {
      MakeLoad("", "m", "n1", 1000),
      MakeLoad("m", "", "n2", 10),
  };
  EXPECT_TRUE(rebalancer.Plan(loads, {"n1", "n2"}).empty());
}

TEST(RebalancerTest, ActionBudgetCapsTheRound) {
  Rebalancer::Options options;
  options.split_threshold_bytes = 0;
  options.split_threshold_ops_per_sec = 10;
  const Rebalancer rebalancer(options);
  // Three split candidates, but a round plans kMaxActionsPerRound (2).
  const std::vector<TabletLoad> loads = {
      MakeLoad("", "f", "n1", 500, "c"),
      MakeLoad("f", "m", "n1", 400, "h"),
      MakeLoad("m", "", "n2", 300, "r"),
  };
  const std::vector<RebalanceAction> actions =
      rebalancer.Plan(loads, {"n1", "n2"});
  ASSERT_EQ(actions.size(),
            static_cast<size_t>(Rebalancer::kMaxActionsPerRound));
  // The hottest candidates go first.
  EXPECT_EQ(actions[0].split_key, "c");
  EXPECT_EQ(actions[1].split_key, "h");
}

// --- StorageNode: map installation and kWrongTablet fencing ---

class NodeMapTest : public ::testing::Test {
 protected:
  NodeMapTest() : clock_(1'000'000), node_("alpha", "dc1", &clock_) {
    storage::Tablet::Options options;
    options.range = KeyRange::All();
    options.is_primary = true;
    EXPECT_TRUE(node_.AddTablet(kTable, options).ok());
  }

  ManualClock clock_;
  storage::StorageNode node_;
};

TEST_F(NodeMapTest, InstallIsVersionMonotonic) {
  TabletMap map = TwoTabletMap();
  map.tablets[0].config.primary = "alpha";
  map.tablets[0].config.members = {"alpha"};
  EXPECT_TRUE(node_.InstallTabletMap(map));

  TabletMap stale = map;
  stale.version = map.version - 1;
  EXPECT_FALSE(node_.InstallTabletMap(stale));
  EXPECT_EQ(node_.InstalledTabletMap(kTable)->version, map.version);

  // Same-version re-install is idempotent (the cutover relies on it).
  EXPECT_TRUE(node_.InstallTabletMap(map));

  TabletMap newer = map;
  newer.version = map.version + 5;
  EXPECT_TRUE(node_.InstallTabletMap(newer));
  EXPECT_EQ(node_.InstalledTabletMap(kTable)->version, newer.version);
}

TEST_F(NodeMapTest, VersionZeroAndInvalidMapsAreRejected) {
  TabletMap zero = TwoTabletMap();
  zero.version = 0;
  EXPECT_FALSE(node_.InstallTabletMap(zero));

  TabletMap invalid = TwoTabletMap();
  invalid.tablets.pop_back();  // No longer tiles the keyspace.
  EXPECT_FALSE(node_.InstallTabletMap(invalid));
  EXPECT_FALSE(node_.InstalledTabletMap(kTable).has_value());
}

TEST_F(NodeMapTest, OlderCoordinatorEpochRejectedEvenWithNewerVersion) {
  TabletMap map = TwoTabletMap();
  map.tablets[0].config.primary = "alpha";
  map.tablets[0].config.members = {"alpha"};
  map.coordinator_epoch = 5;
  ASSERT_TRUE(node_.InstallTabletMap(map));

  // A deposed coordinator may have a higher map version (it was mid-flight
  // when it lost the lease); the epoch fence must still reject it.
  TabletMap deposed = map;
  deposed.version = map.version + 1;
  deposed.coordinator_epoch = 4;
  EXPECT_FALSE(node_.InstallTabletMap(deposed));
  EXPECT_EQ(node_.InstalledTabletMap(kTable)->version, map.version);

  // Epoch 0 marks a legacy (pre-Section-15) coordinator: never fenced.
  TabletMap legacy = map;
  legacy.version = map.version + 1;
  legacy.coordinator_epoch = 0;
  EXPECT_TRUE(node_.InstallTabletMap(legacy));

  // A successor's higher epoch installs fine at any version.
  TabletMap successor = legacy;
  successor.version = legacy.version + 1;
  successor.coordinator_epoch = 6;
  EXPECT_TRUE(node_.InstallTabletMap(successor));
}

TEST_F(NodeMapTest, MisroutedRequestFencedWithOwnerHint) {
  // The map assigns ["m", "") to beta; alpha must fence requests for it.
  TabletMap map = TwoTabletMap();
  map.tablets[0].config.primary = "alpha";
  map.tablets[0].config.members = {"alpha"};
  ASSERT_TRUE(node_.InstallTabletMap(map));

  proto::PutRequest put;
  put.table = kTable;
  put.key = "zebra";
  put.value = "v";
  const proto::Message reply = node_.Handle(put);
  const auto* error = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, StatusCode::kWrongTablet);
  EXPECT_EQ(error->primary_hint, "beta");
  EXPECT_EQ(error->map_version, map.version);

  // Keys the map assigns here still serve normally.
  put.key = "apple";
  EXPECT_TRUE(std::holds_alternative<proto::PutReply>(node_.Handle(put)));
}

// --- TabletCoordinator: split, migration, rollback ---

class CoordinatorTest : public ::testing::Test {
 protected:
  CoordinatorTest() : clock_(1'000'000) {
    TabletMap initial;
    initial.table = kTable;
    initial.version = 1;
    TabletInfo info = MakeInfo("", "", 1, "alpha");
    initial.tablets.push_back(info);

    alpha_ = std::make_unique<storage::StorageNode>("alpha", "dc1", &clock_);
    beta_ = std::make_unique<storage::StorageNode>("beta", "dc1", &clock_);
    storage::Tablet::Options options;
    options.range = KeyRange::All();
    options.is_primary = true;
    EXPECT_TRUE(alpha_->AddTablet(kTable, options).ok());

    TabletCoordinator::Options coordinator_options;
    coordinator_options.reachable = [this](const std::string& node) {
      return unreachable_.count(node) == 0;
    };
    coordinator_ = std::make_unique<TabletCoordinator>(
        std::move(initial), &clock_, std::move(coordinator_options));
    coordinator_->RegisterNode(alpha_.get());
    coordinator_->RegisterNode(beta_.get());
    EXPECT_TRUE(coordinator_->PublishMap().ok());
  }

  void PutKey(storage::StorageNode& node, const std::string& key) {
    proto::PutRequest put;
    put.table = kTable;
    put.key = key;
    put.value = "v:" + key;
    ASSERT_TRUE(std::holds_alternative<proto::PutReply>(node.Handle(put)))
        << key;
    clock_.AdvanceMicros(10);
  }

  std::optional<std::string> GetValue(storage::StorageNode& node,
                                      const std::string& key) {
    proto::GetRequest get;
    get.table = kTable;
    get.key = key;
    const proto::Message reply = node.Handle(get);
    const auto* got = std::get_if<proto::GetReply>(&reply);
    if (got == nullptr || !got->found) {
      return std::nullopt;
    }
    return got->value;
  }

  ManualClock clock_;
  std::set<std::string> unreachable_;
  std::unique_ptr<storage::StorageNode> alpha_;
  std::unique_ptr<storage::StorageNode> beta_;
  std::unique_ptr<TabletCoordinator> coordinator_;
};

TEST_F(CoordinatorTest, ExecuteSplitRetilesAndPublishes) {
  PutKey(*alpha_, "apple");
  PutKey(*alpha_, "zebra");
  ASSERT_TRUE(coordinator_->ExecuteSplit("m").ok());

  const TabletMap& map = coordinator_->map();
  EXPECT_EQ(map.version, 2u);
  ASSERT_EQ(map.tablets.size(), 2u);
  EXPECT_EQ(map.tablets[0].range.end, "m");
  EXPECT_EQ(map.tablets[1].range.begin, "m");
  EXPECT_TRUE(map.Validate().ok());
  EXPECT_EQ(coordinator_->splits(), 1u);

  // The node adopted the published map and still serves both halves.
  EXPECT_EQ(alpha_->InstalledTabletMap(kTable)->version, 2u);
  EXPECT_EQ(alpha_->LocalTabletStats(kTable).size(), 2u);
  EXPECT_EQ(GetValue(*alpha_, "apple"), "v:apple");
  EXPECT_EQ(GetValue(*alpha_, "zebra"), "v:zebra");
}

TEST_F(CoordinatorTest, SplitAtRangeBoundaryRejected) {
  const Status status = coordinator_->ExecuteSplit("");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(coordinator_->map().version, 1u);
}

TEST_F(CoordinatorTest, MigrationMovesDataAndFencesTheSource) {
  for (int i = 0; i < 20; ++i) {
    PutKey(*alpha_, "key" + std::to_string(i));
  }
  ASSERT_TRUE(coordinator_->ExecuteMigration("", "beta").ok());
  EXPECT_EQ(coordinator_->migrations(), 1u);

  const TabletMap& map = coordinator_->map();
  ASSERT_EQ(map.tablets.size(), 1u);
  EXPECT_EQ(map.tablets[0].config.primary, "beta");
  EXPECT_EQ(map.tablets[0].config.epoch, 2u);

  // Every acked write survived the move and the new primary serves it.
  for (int i = 0; i < 20; ++i) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_EQ(GetValue(*beta_, key), "v:" + key) << key;
  }
  // New writes land on beta; alpha (which dropped the tablet) fences.
  PutKey(*beta_, "after-move");
  proto::PutRequest put;
  put.table = kTable;
  put.key = "rejected";
  put.value = "v";
  const proto::Message reply = alpha_->Handle(put);
  const auto* error = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, StatusCode::kWrongTablet);
  EXPECT_EQ(error->primary_hint, "beta");
}

TEST_F(CoordinatorTest, MigrationToUnreachableTargetFailsCleanly) {
  PutKey(*alpha_, "kept");
  unreachable_.insert("beta");
  const Status status = coordinator_->ExecuteMigration("", "beta");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(coordinator_->migration_failures(), 0u)
      << "rejected before any phase ran";
  EXPECT_EQ(coordinator_->migrations(), 0u);
  // Nothing changed: alpha still primary, still serving.
  EXPECT_EQ(coordinator_->map().tablets[0].config.primary, "alpha");
  EXPECT_EQ(GetValue(*alpha_, "kept"), "v:kept");
}

TEST_F(CoordinatorTest, MigrationToSelfRejected) {
  EXPECT_EQ(coordinator_->ExecuteMigration("", "alpha").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CoordinatorTest, MigrationOfUnknownRangeRejected) {
  EXPECT_EQ(coordinator_->ExecuteMigration("nope", "beta").code(),
            StatusCode::kNotFound);
}

TEST_F(CoordinatorTest, RebalanceRoundSplitsThenMovesUnderHotspot) {
  // Prime the rate baselines, then drive traffic so alpha's single tablet
  // is far over a tiny threshold.
  (void)coordinator_->SampleLoads();
  for (int i = 0; i < 60; ++i) {
    PutKey(*alpha_, "key" + std::to_string(i));
  }
  clock_.AdvanceMicros(1'000'000);

  Rebalancer::Options policy;
  policy.split_threshold_bytes = 0;
  policy.split_threshold_ops_per_sec = 5;
  policy.imbalance_ratio = 1.2;
  const Rebalancer rebalancer(policy);

  // Round 1 must split the only (hot) tablet; later rounds can move pieces.
  const std::vector<RebalanceAction> first =
      coordinator_->RunRebalanceRound(rebalancer);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first[0].kind, RebalanceAction::Kind::kSplit);
  EXPECT_GE(coordinator_->splits(), 1u);
  EXPECT_EQ(coordinator_->map().tablets.size(), 2u);
  EXPECT_TRUE(coordinator_->map().Validate().ok());

  // All data is still served by the current map's owners.
  for (int i = 0; i < 60; ++i) {
    const std::string key = "key" + std::to_string(i);
    const TabletInfo* owner = coordinator_->map().OwnerOf(key);
    ASSERT_NE(owner, nullptr);
    storage::StorageNode& node =
        owner->config.primary == "alpha" ? *alpha_ : *beta_;
    EXPECT_EQ(GetValue(node, key), "v:" + key) << key;
  }
}

TEST_F(CoordinatorTest, RebalanceRoundLeavesAColdTabletWhole) {
  (void)coordinator_->SampleLoads();
  for (int i = 0; i < 20; ++i) {
    PutKey(*alpha_, "key" + std::to_string(i));
  }
  clock_.AdvanceMicros(1'000'000);

  // About 20 ops/s against a threshold of a million: no split, and moving
  // the only tablet would just relocate the load.
  Rebalancer::Options policy;
  policy.split_threshold_bytes = 0;
  policy.split_threshold_ops_per_sec = 1'000'000;
  EXPECT_TRUE(coordinator_->RunRebalanceRound(Rebalancer(policy)).empty());
  EXPECT_EQ(coordinator_->splits(), 0u);
  EXPECT_EQ(coordinator_->map().tablets.size(), 1u);
}

TEST_F(CoordinatorTest, RebalanceRoundSplitsATabletOverTheSizeThreshold) {
  // The tablet fleet's policy: split by size alone (no rate threshold).
  Rebalancer::Options policy;
  policy.split_threshold_bytes = 1024;
  policy.split_threshold_ops_per_sec = 0;
  const Rebalancer rebalancer(policy);

  PutKey(*alpha_, "apple");
  PutKey(*alpha_, "zebra");
  ASSERT_LE(alpha_->LocalTabletStats(kTable)[0].size_bytes, 1024u);
  EXPECT_TRUE(coordinator_->RunRebalanceRound(rebalancer).empty())
      << "a tablet under the size threshold stays whole";

  for (int i = 0; i < 120; ++i) {
    PutKey(*alpha_, "key" + std::to_string(i));
  }
  ASSERT_GT(alpha_->LocalTabletStats(kTable)[0].size_bytes, 1024u);
  const std::vector<RebalanceAction> actions =
      coordinator_->RunRebalanceRound(rebalancer);
  ASSERT_FALSE(actions.empty());
  EXPECT_EQ(actions[0].kind, RebalanceAction::Kind::kSplit);
  EXPECT_EQ(coordinator_->splits(), 1u);
  ASSERT_EQ(coordinator_->map().tablets.size(), 2u);
  EXPECT_EQ(coordinator_->map().tablets[0].range.end, actions[0].split_key);
  EXPECT_TRUE(coordinator_->map().Validate().ok());
}

// --- IntentLog: codec, replay, torn tails (DESIGN.md Section 15) ---

TabletIntent SampleIntent() {
  TabletIntent intent;
  intent.intent_id = 7;
  intent.phase = IntentPhase::kMigrationCutover;
  intent.table = kTable;
  intent.range.begin = "g";
  intent.range.end = "t";
  intent.split_key = "m";
  intent.from = "alpha";
  intent.to = "beta";
  intent.next_version = 4;
  intent.next_epoch = 3;
  intent.target_hosted = true;
  intent.coordinator_epoch = 2;
  intent.started_us = 1'234'567;
  return intent;
}

class IntentLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/pileus_intent_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    (void)::system(cmd.c_str());
  }

  std::string LogPath() const { return dir_ + "/intents.log"; }

  off_t FileSize(const std::string& path) {
    struct stat st;
    EXPECT_EQ(::stat(path.c_str(), &st), 0);
    return st.st_size;
  }

  // Flips one byte at `offset` (simulating on-disk corruption).
  void CorruptByte(const std::string& path, off_t offset) {
    const int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    char b;
    ASSERT_EQ(::pread(fd, &b, 1, offset), 1);
    b = static_cast<char>(b ^ 0xff);
    ASSERT_EQ(::pwrite(fd, &b, 1, offset), 1);
    ::close(fd);
  }

  std::string dir_;
};

TEST_F(IntentLogTest, IntentCodecRoundTripPreservesEverything) {
  const TabletIntent intent = SampleIntent();
  Encoder enc;
  EncodeTabletIntent(enc, intent);
  Decoder dec(enc.buffer());
  TabletIntent decoded;
  ASSERT_TRUE(DecodeTabletIntent(dec, &decoded).ok());
  EXPECT_EQ(decoded, intent);
  EXPECT_TRUE(dec.AtEnd());
}

TEST_F(IntentLogTest, IntentCodecRejectsUnknownPhase) {
  Encoder enc;
  EncodeTabletIntent(enc, SampleIntent());
  std::string bytes(enc.buffer());
  bytes[1] = 99;  // The phase byte follows the one-byte intent id varint.
  Decoder dec(bytes);
  TabletIntent decoded;
  EXPECT_EQ(DecodeTabletIntent(dec, &decoded).code(), StatusCode::kCorruption);
}

TEST_F(IntentLogTest, LeaseCodecRoundTrip) {
  CoordinatorLease lease;
  lease.epoch = 11;
  lease.holder = "coord-b";
  lease.expiry_us = 99'000'000;
  Encoder enc;
  EncodeCoordinatorLease(enc, lease);
  Decoder dec(enc.buffer());
  CoordinatorLease decoded;
  ASSERT_TRUE(DecodeCoordinatorLease(dec, &decoded).ok());
  EXPECT_EQ(decoded, lease);
}

TEST_F(IntentLogTest, RecoverReplaysLeaseIntentAndCommit) {
  CoordinatorLease lease;
  lease.epoch = 3;
  lease.holder = "coord-a";
  lease.expiry_us = 5'000'000;
  const TabletIntent intent = SampleIntent();
  {
    Result<IntentLog> log = IntentLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->WriteLease(lease).ok());
    ASSERT_TRUE(log->WriteIntent(intent).ok());
  }
  Result<IntentLog::RecoveredState> state = IntentLog::Recover(LogPath());
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->lease, lease);
  ASSERT_TRUE(state->intent.has_value());
  EXPECT_EQ(*state->intent, intent);
  EXPECT_EQ(state->next_intent_id, intent.intent_id + 1);
  EXPECT_EQ(state->map.version, 0u) << "no map was ever committed";
  EXPECT_FALSE(state->tail_torn);

  // A committed map supersedes (clears) the live intent.
  TabletMap map = TwoTabletMap();
  {
    Result<IntentLog> log = IntentLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->CommitMap(map).ok());
  }
  state = IntentLog::Recover(LogPath());
  ASSERT_TRUE(state.ok());
  EXPECT_FALSE(state->intent.has_value());
  EXPECT_EQ(state->map, map);
  EXPECT_EQ(state->next_intent_id, intent.intent_id + 1)
      << "intent ids never regress, even across commits";
}

TEST_F(IntentLogTest, TornTailDiscardsOnlyTheLastRecord) {
  CoordinatorLease lease;
  lease.epoch = 1;
  lease.holder = "coord-a";
  {
    Result<IntentLog> log = IntentLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->WriteLease(lease).ok());
    ASSERT_TRUE(log->WriteIntent(SampleIntent()).ok());
  }
  // Chop one byte off the tail: a crash mid-append of the intent record.
  ASSERT_EQ(::truncate(LogPath().c_str(), FileSize(LogPath()) - 1), 0);
  Result<IntentLog::RecoveredState> state = IntentLog::Recover(LogPath());
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state->tail_torn);
  EXPECT_FALSE(state->intent.has_value()) << "the torn intent never happened";
  EXPECT_EQ(state->lease, lease) << "records before the tear are kept";
}

TEST_F(IntentLogTest, CorruptionBeforeTheTailIsLoud) {
  {
    Result<IntentLog> log = IntentLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    CoordinatorLease lease;
    lease.epoch = 1;
    lease.holder = "coord-a";
    ASSERT_TRUE(log->WriteLease(lease).ok());
    ASSERT_TRUE(log->WriteIntent(SampleIntent()).ok());
    ASSERT_TRUE(log->CommitMap(TwoTabletMap()).ok());
  }
  // Flip a payload byte of the FIRST record (header is 9 bytes). With
  // records after it this cannot be a torn tail: recovery must refuse to
  // silently skip it.
  CorruptByte(LogPath(), 10);
  EXPECT_EQ(IntentLog::Recover(LogPath()).status().code(),
            StatusCode::kCorruption);
}

// --- Durable coordinator: crash-point torture matrix, rollback
// idempotency, lease failover (DESIGN.md Section 15) ---

class DurableCoordinatorTest : public ::testing::Test {
 protected:
  DurableCoordinatorTest() : clock_(1'000'000) {}

  void SetUp() override {
    char tmpl[] = "/tmp/pileus_durable_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    (void)::system(cmd.c_str());
  }

  TabletMap SeedMap() {
    TabletMap map;
    map.table = kTable;
    map.version = 1;
    map.tablets.push_back(MakeInfo("", "", 1, "alpha"));
    return map;
  }

  // Fresh fleet: alpha hosts the whole keyspace as primary, beta is empty.
  // With durable_nodes_, each node keeps its tablets under its own root.
  void FreshNodes() {
    alpha_ = std::make_unique<storage::StorageNode>("alpha", "dc1", &clock_);
    beta_ = std::make_unique<storage::StorageNode>("beta", "dc1", &clock_);
    if (durable_nodes_) {
      ++fleet_;
      for (const std::string name : {"alpha", "beta"}) {
        ASSERT_TRUE(server::OpenDurableNode(&NodeNamed(name), kTable,
                                            Root(name), std::nullopt, &clock_)
                        .ok());
      }
    }
    storage::Tablet::Options options;
    options.range = KeyRange::All();
    options.is_primary = true;
    ASSERT_TRUE(alpha_->AddTablet(kTable, options).ok());
  }

  // The current fleet's data root of `node`.
  std::string Root(const std::string& node) const {
    return dir_ + "/fleet" + std::to_string(fleet_) + "/" + node;
  }

  // The ranges a restart of durable `node` would host again.
  std::vector<KeyRange> ReopenedRanges(const std::string& node) {
    storage::StorageNode reopened(node, "dc1", &clock_);
    const auto recovered = server::OpenDurableNode(
        &reopened, kTable, Root(node), std::nullopt, &clock_);
    EXPECT_TRUE(recovered.ok()) << recovered.status();
    return HostedRanges(reopened);
  }

  TabletCoordinator::Options DurableOptions(const std::string& log_path) {
    TabletCoordinator::Options options;
    options.intent_log_path = log_path;
    options.fault_injector = &injector_;
    return options;
  }

  // One coordinator (re)start: replay the log, take the lease, register the
  // fleet. CompleteRecovery is left to the caller so tests can crash it.
  std::unique_ptr<TabletCoordinator> RecoverCoordinator(
      const std::string& log_path, bool register_beta = true) {
    Result<std::unique_ptr<TabletCoordinator>> recovered =
        TabletCoordinator::Recover(SeedMap(), &clock_,
                                   DurableOptions(log_path));
    if (!recovered.ok()) {
      ADD_FAILURE() << "Recover failed: " << recovered.status().message();
      return nullptr;
    }
    std::unique_ptr<TabletCoordinator> coordinator = std::move(*recovered);
    coordinator->RegisterNode(alpha_.get());
    if (register_beta) {
      coordinator->RegisterNode(beta_.get());
    }
    return coordinator;
  }

  storage::StorageNode& NodeNamed(const std::string& name) {
    return name == "alpha" ? *alpha_ : *beta_;
  }

  void PutKey(storage::StorageNode& node, const std::string& key) {
    proto::PutRequest put;
    put.table = kTable;
    put.key = key;
    put.value = "v:" + key;
    ASSERT_TRUE(std::holds_alternative<proto::PutReply>(node.Handle(put)))
        << key;
    clock_.AdvanceMicros(10);
  }

  std::optional<std::string> GetValue(storage::StorageNode& node,
                                      const std::string& key) {
    proto::GetRequest get;
    get.table = kTable;
    get.key = key;
    const proto::Message reply = node.Handle(get);
    const auto* got = std::get_if<proto::GetReply>(&reply);
    if (got == nullptr || !got->found) {
      return std::nullopt;
    }
    return got->value;
  }

  // The ISSUE's convergence bar, asserted after every recovery: a valid
  // tiling, zero lost acked writes, and no range left fenced (each range
  // accepts a probe write on its current primary).
  void ExpectConverged(TabletCoordinator& coordinator,
                       const std::vector<std::string>& keys) {
    const TabletMap& map = coordinator.map();
    ASSERT_TRUE(map.Validate().ok());
    for (const std::string& key : keys) {
      const TabletInfo* owner = map.OwnerOf(key);
      ASSERT_NE(owner, nullptr) << key;
      EXPECT_EQ(GetValue(NodeNamed(owner->config.primary), key), "v:" + key)
          << key;
    }
    for (const TabletInfo& info : map.tablets) {
      proto::PutRequest probe;
      probe.table = kTable;
      probe.key = info.range.begin;  // begin is inclusive: always in range.
      probe.value = "probe";
      const proto::Message reply =
          NodeNamed(info.config.primary).Handle(probe);
      EXPECT_TRUE(std::holds_alternative<proto::PutReply>(reply))
          << "range " << info.range.ToString() << " is still fenced on "
          << info.config.primary;
    }
    if (!durable_nodes_) {
      return;
    }
    // Each node's directories follow its tablets: a restart would host
    // exactly what the node hosts now.
    for (const std::string name : {"alpha", "beta"}) {
      EXPECT_EQ(ReopenedRanges(name), HostedRanges(NodeNamed(name))) << name;
    }
  }

  void RunSplitCrashMatrix();
  void RunMigrationCrashMatrix();

  ManualClock clock_;
  sim::FaultInjector injector_;
  std::string dir_;
  bool durable_nodes_ = false;
  int fleet_ = 0;  // FreshNodes calls so far, with durable_nodes_.
  std::unique_ptr<storage::StorageNode> alpha_;
  std::unique_ptr<storage::StorageNode> beta_;
};

// The same protocols with durable nodes: each tablet lives in a directory
// under its node's data root, which migrations create and retire.
class DurableNodeCoordinatorTest : public DurableCoordinatorTest {
 protected:
  DurableNodeCoordinatorTest() { durable_nodes_ = true; }
};

void DurableCoordinatorTest::RunSplitCrashMatrix() {
  int index = 0;
  for (const std::string& point : TabletCoordinator::SplitCrashPoints()) {
    SCOPED_TRACE(point);
    FreshNodes();
    const std::string log_path =
        dir_ + "/split" + std::to_string(index++) + ".log";
    std::unique_ptr<TabletCoordinator> coordinator =
        RecoverCoordinator(log_path);
    ASSERT_NE(coordinator, nullptr);
    ASSERT_TRUE(coordinator->CompleteRecovery().ok());
    const uint64_t epoch_before = coordinator->coordinator_epoch();

    std::vector<std::string> keys = {"apple", "zebra"};
    for (int i = 0; i < 6; ++i) {
      keys.push_back("key" + std::to_string(i));
    }
    for (const std::string& key : keys) {
      PutKey(*alpha_, key);
    }

    injector_.ArmCrashPoint(point);
    const Status crashed = coordinator->ExecuteSplit("m");
    ASSERT_EQ(crashed.code(), StatusCode::kCancelled) << crashed.message();
    coordinator.reset();  // The process dies; only the intent log survives.

    coordinator = RecoverCoordinator(log_path);
    ASSERT_NE(coordinator, nullptr);
    ASSERT_TRUE(coordinator->CompleteRecovery().ok());
    EXPECT_GT(coordinator->coordinator_epoch(), epoch_before);
    ExpectConverged(*coordinator, keys);
  }
}

TEST_F(DurableCoordinatorTest, SplitCrashMatrixRecoversEverywhere) {
  RunSplitCrashMatrix();
}

TEST_F(DurableNodeCoordinatorTest, SplitCrashMatrixRecoversEverywhere) {
  RunSplitCrashMatrix();
}

// Recovery while the split's primary is partitioned away: the standby must
// come up healthy (a split fences nothing — the intent is abandoned, not
// replayed forever), and a later coordinator can retry the split once the
// partition heals.
TEST_F(DurableCoordinatorTest, SplitIntentWithPartitionedPrimaryIsAbandoned) {
  FreshNodes();
  const std::string log_path = dir_ + "/split_partitioned.log";
  std::unique_ptr<TabletCoordinator> coordinator =
      RecoverCoordinator(log_path);
  ASSERT_NE(coordinator, nullptr);
  ASSERT_TRUE(coordinator->CompleteRecovery().ok());

  std::vector<std::string> keys = {"apple", "mango", "zebra"};
  for (const std::string& key : keys) {
    PutKey(*alpha_, key);
  }

  // Die with the intent journaled but the split not yet executed.
  injector_.ArmCrashPoint("tablets.split.after_intent");
  ASSERT_EQ(coordinator->ExecuteSplit("m").code(), StatusCode::kCancelled);
  coordinator.reset();

  // The standby recovers while alpha (the range's primary) is unreachable.
  TabletCoordinator::Options partitioned = DurableOptions(log_path);
  partitioned.reachable = [](const std::string& name) {
    return name != "alpha";
  };
  Result<std::unique_ptr<TabletCoordinator>> standby =
      TabletCoordinator::Recover(SeedMap(), &clock_, partitioned);
  ASSERT_TRUE(standby.ok()) << standby.status().message();
  coordinator = std::move(*standby);
  coordinator->RegisterNode(alpha_.get());
  coordinator->RegisterNode(beta_.get());
  const Status recovered = coordinator->CompleteRecovery();
  ASSERT_TRUE(recovered.ok()) << recovered.message();
  EXPECT_FALSE(coordinator->pending_intent().has_value());
  EXPECT_EQ(coordinator->map().tablets.size(), 1u);  // Abandoned, not run.
  coordinator.reset();

  // After the partition heals, a fresh coordinator sees no stuck intent and
  // can run the split to completion.
  coordinator = RecoverCoordinator(log_path);
  ASSERT_NE(coordinator, nullptr);
  ASSERT_TRUE(coordinator->CompleteRecovery().ok());
  EXPECT_FALSE(coordinator->pending_intent().has_value());
  ASSERT_TRUE(coordinator->ExecuteSplit("m").ok());
  EXPECT_EQ(coordinator->map().tablets.size(), 2u);
  ExpectConverged(*coordinator, keys);
}

void DurableCoordinatorTest::RunMigrationCrashMatrix() {
  int index = 0;
  for (const std::string& point : TabletCoordinator::MigrationCrashPoints()) {
    SCOPED_TRACE(point);
    FreshNodes();
    const std::string log_path =
        dir_ + "/migration" + std::to_string(index++) + ".log";
    std::unique_ptr<TabletCoordinator> coordinator =
        RecoverCoordinator(log_path);
    ASSERT_NE(coordinator, nullptr);
    ASSERT_TRUE(coordinator->CompleteRecovery().ok());

    std::vector<std::string> keys;
    for (int i = 0; i < 12; ++i) {
      keys.push_back("key" + std::to_string(i));
    }
    for (const std::string& key : keys) {
      PutKey(*alpha_, key);
    }

    const bool rollback_point = point.rfind("tablets.rollback.", 0) == 0;
    if (rollback_point) {
      // The rollback arms only run when a migration cannot go forward.
      // Manufacture that: crash at the fence, then recover WITHOUT the
      // target registered — recovery must roll back, and the armed
      // rollback point kills the coordinator a second time mid-rollback.
      injector_.ArmCrashPoint("tablets.migration.after_fence");
      ASSERT_EQ(coordinator->ExecuteMigration("", "beta").code(),
                StatusCode::kCancelled);
      coordinator.reset();
      injector_.ArmCrashPoint(point);
      coordinator = RecoverCoordinator(log_path, /*register_beta=*/false);
      ASSERT_NE(coordinator, nullptr);
      ASSERT_EQ(coordinator->CompleteRecovery().code(),
                StatusCode::kCancelled);
      coordinator.reset();
    } else {
      injector_.ArmCrashPoint(point);
      const Status crashed = coordinator->ExecuteMigration("", "beta");
      ASSERT_EQ(crashed.code(), StatusCode::kCancelled) << crashed.message();
      coordinator.reset();
    }

    coordinator = RecoverCoordinator(log_path);
    ASSERT_NE(coordinator, nullptr);
    ASSERT_TRUE(coordinator->CompleteRecovery().ok());
    EXPECT_FALSE(coordinator->pending_intent().has_value());
    ExpectConverged(*coordinator, keys);

    if (rollback_point) {
      // The re-run rollback must land on the intent's PRE-ASSIGNED
      // version/epoch (next+1) — replaying it never burns extra epochs.
      ASSERT_EQ(coordinator->map().tablets.size(), 1u);
      EXPECT_EQ(coordinator->map().tablets[0].config.primary, "alpha");
      EXPECT_EQ(coordinator->map().tablets[0].config.epoch, 3u);
      EXPECT_EQ(coordinator->map().version, 3u);
    }
  }
}

TEST_F(DurableCoordinatorTest, MigrationCrashMatrixRecoversEverywhere) {
  RunMigrationCrashMatrix();
}

TEST_F(DurableNodeCoordinatorTest, MigrationCrashMatrixRecoversEverywhere) {
  RunMigrationCrashMatrix();
}

TEST_F(DurableNodeCoordinatorTest, CommittedMigrationRetiresTheSource) {
  FreshNodes();
  std::unique_ptr<TabletCoordinator> coordinator =
      RecoverCoordinator(dir_ + "/commit.log");
  ASSERT_NE(coordinator, nullptr);
  ASSERT_TRUE(coordinator->CompleteRecovery().ok());
  PutKey(*alpha_, "apple");

  ASSERT_TRUE(coordinator->ExecuteMigration("", "beta").ok());
  // The source's directory stays, with its log, but a restart skips it.
  EXPECT_TRUE(Exists(Root("alpha") + "/retired"));
  EXPECT_TRUE(Exists(Root("alpha") + "/wal.log"));
  EXPECT_TRUE(ReopenedRanges("alpha").empty());
  EXPECT_FALSE(Exists(Root("beta") + "/retired"));
  EXPECT_EQ(ReopenedRanges("beta"), std::vector<KeyRange>{KeyRange::All()});
}

// A migration that cannot go forward rolls back: the target's copy is
// retired, the source's directory is not.
TEST_F(DurableNodeCoordinatorTest, RollbackRetiresTheTarget) {
  FreshNodes();
  const std::string log_path = dir_ + "/rollback.log";
  std::unique_ptr<TabletCoordinator> coordinator =
      RecoverCoordinator(log_path);
  ASSERT_NE(coordinator, nullptr);
  ASSERT_TRUE(coordinator->CompleteRecovery().ok());
  PutKey(*alpha_, "apple");
  injector_.ArmCrashPoint("tablets.migration.after_fence");
  ASSERT_EQ(coordinator->ExecuteMigration("", "beta").code(),
            StatusCode::kCancelled);
  coordinator.reset();
  ASSERT_TRUE(Exists(Root("beta") + "/wal.log"));

  // The standby finds the target unreachable and rolls the cutover back.
  TabletCoordinator::Options options = DurableOptions(log_path);
  options.reachable = [](const std::string& name) { return name != "beta"; };
  Result<std::unique_ptr<TabletCoordinator>> standby =
      TabletCoordinator::Recover(SeedMap(), &clock_, options);
  ASSERT_TRUE(standby.ok()) << standby.status().message();
  (*standby)->RegisterNode(alpha_.get());
  (*standby)->RegisterNode(beta_.get());
  ASSERT_TRUE((*standby)->CompleteRecovery().ok());
  EXPECT_EQ((*standby)->map().tablets[0].config.primary, "alpha");

  EXPECT_TRUE(Exists(Root("beta") + "/retired"));
  EXPECT_TRUE(ReopenedRanges("beta").empty());
  EXPECT_FALSE(Exists(Root("alpha") + "/retired"));
  EXPECT_EQ(ReopenedRanges("alpha"), std::vector<KeyRange>{KeyRange::All()});
}

TEST_F(DurableNodeCoordinatorTest, AbortedPrepareRetiresTheTarget) {
  FreshNodes();
  const std::string log_path = dir_ + "/abort.log";
  std::unique_ptr<TabletCoordinator> coordinator =
      RecoverCoordinator(log_path);
  ASSERT_NE(coordinator, nullptr);
  ASSERT_TRUE(coordinator->CompleteRecovery().ok());
  PutKey(*alpha_, "apple");
  injector_.ArmCrashPoint("tablets.migration.after_catchup");
  ASSERT_EQ(coordinator->ExecuteMigration("", "beta").code(),
            StatusCode::kCancelled);
  coordinator.reset();
  ASSERT_EQ(HostedRanges(*beta_), std::vector<KeyRange>{KeyRange::All()});

  coordinator = RecoverCoordinator(log_path);  // AbortMigrationPrepare.
  ASSERT_NE(coordinator, nullptr);
  ASSERT_TRUE(coordinator->CompleteRecovery().ok());
  EXPECT_TRUE(HostedRanges(*beta_).empty());
  EXPECT_TRUE(Exists(Root("beta") + "/retired"));
  EXPECT_TRUE(ReopenedRanges("beta").empty());
  EXPECT_EQ(ReopenedRanges("alpha"), std::vector<KeyRange>{KeyRange::All()});
}

TEST_F(DurableNodeCoordinatorTest, SplitChildThatMigratedAwayIsNotReopened) {
  FreshNodes();
  std::unique_ptr<TabletCoordinator> coordinator =
      RecoverCoordinator(dir_ + "/split_move.log");
  ASSERT_NE(coordinator, nullptr);
  ASSERT_TRUE(coordinator->CompleteRecovery().ok());
  for (const std::string key : {"apple", "zebra"}) {
    PutKey(*alpha_, key);
  }
  ASSERT_TRUE(coordinator->ExecuteSplit("m").ok());
  ASSERT_TRUE(coordinator->ExecuteMigration("m", "beta").ok());

  const std::string child = Root("alpha") + "/child-0";
  EXPECT_TRUE(Exists(child + "/retired"));
  EXPECT_TRUE(Exists(child + "/wal.log"));
  const KeyRange lower{"", "m"};
  const KeyRange upper{"m", ""};
  EXPECT_EQ(ReopenedRanges("alpha"), std::vector<KeyRange>{lower});
  EXPECT_EQ(ReopenedRanges("beta"), std::vector<KeyRange>{upper});
}

TEST_F(DurableCoordinatorTest, ReplayedCompletedRollbackIsANoOp) {
  FreshNodes();
  const std::string log_path = dir_ + "/idempotent.log";

  // State on disk: the committed map already shows the rollback (primary
  // back on alpha, version/epoch at the rollback's pre-assigned next+1)
  // but the rollback intent is still live in the log.
  TabletMap rolled = SeedMap();
  rolled.version = 3;
  rolled.tablets[0].config.epoch = 3;
  TabletIntent intent;
  intent.intent_id = 1;
  intent.phase = IntentPhase::kMigrationRollback;
  intent.table = kTable;
  intent.range = KeyRange::All();
  intent.from = "alpha";
  intent.to = "beta";
  intent.next_version = 2;
  intent.next_epoch = 2;
  {
    Result<IntentLog> log = IntentLog::Open(log_path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->CommitMap(rolled).ok());
    ASSERT_TRUE(log->WriteIntent(intent).ok());
  }

  std::unique_ptr<TabletCoordinator> coordinator =
      RecoverCoordinator(log_path);
  ASSERT_NE(coordinator, nullptr);
  ASSERT_TRUE(coordinator->CompleteRecovery().ok());
  // The regression: a replayed no-op rollback must not burn another map
  // version or tablet epoch (and counts no new failure).
  EXPECT_EQ(coordinator->map().version, 3u);
  EXPECT_EQ(coordinator->map().tablets[0].config.epoch, 3u);
  EXPECT_EQ(coordinator->map().tablets[0].config.primary, "alpha");
  EXPECT_EQ(coordinator->migration_failures(), 0u);
}

TEST_F(DurableCoordinatorTest, StandbyWaitsOutTheLeaseThenFencesTheDeposed) {
  FreshNodes();
  const std::string log_path = dir_ + "/lease.log";

  TabletCoordinator::Options options_a = DurableOptions(log_path);
  options_a.coordinator_name = "coord-a";
  options_a.lease_duration_us = SecondsToMicroseconds(10);
  Result<std::unique_ptr<TabletCoordinator>> recovered_a =
      TabletCoordinator::Recover(SeedMap(), &clock_, options_a);
  ASSERT_TRUE(recovered_a.ok());
  std::unique_ptr<TabletCoordinator> a = std::move(*recovered_a);
  a->RegisterNode(alpha_.get());
  a->RegisterNode(beta_.get());
  ASSERT_TRUE(a->CompleteRecovery().ok());
  EXPECT_TRUE(a->IsLeader());
  PutKey(*alpha_, "kept");

  // While coord-a's lease is live, a standby under another name must wait.
  TabletCoordinator::Options options_b = DurableOptions(log_path);
  options_b.coordinator_name = "coord-b";
  options_b.lease_duration_us = SecondsToMicroseconds(10);
  EXPECT_EQ(
      TabletCoordinator::Recover(SeedMap(), &clock_, options_b).status().code(),
      StatusCode::kUnavailable);

  // After expiry the standby takes over under the next coordinator epoch.
  clock_.AdvanceMicros(SecondsToMicroseconds(11));
  Result<std::unique_ptr<TabletCoordinator>> recovered_b =
      TabletCoordinator::Recover(SeedMap(), &clock_, options_b);
  ASSERT_TRUE(recovered_b.ok());
  std::unique_ptr<TabletCoordinator> b = std::move(*recovered_b);
  b->RegisterNode(alpha_.get());
  b->RegisterNode(beta_.get());
  ASSERT_TRUE(b->CompleteRecovery().ok());
  EXPECT_EQ(b->coordinator_epoch(), a->coordinator_epoch() + 1);
  EXPECT_TRUE(b->IsLeader());

  // The deposed coordinator refuses mutations locally...
  EXPECT_FALSE(a->IsLeader());
  EXPECT_EQ(a->ExecuteSplit("m").code(), StatusCode::kNotPrimary);
  EXPECT_EQ(a->ExecuteMigration("", "beta").code(), StatusCode::kNotPrimary);
  EXPECT_TRUE(a->RunRebalanceRound(Rebalancer(Rebalancer::Options{})).empty());
  // ...and even if it tried to republish, the nodes fence its stale epoch.
  EXPECT_FALSE(a->PublishMap().ok());
  // The takeover lost nothing and the new leader can still mutate.
  EXPECT_EQ(GetValue(*alpha_, "kept"), "v:kept");
  EXPECT_TRUE(b->ExecuteSplit("m").ok());
}

TEST_F(DurableCoordinatorTest, SameNameRetakesItsOwnLeaseImmediately) {
  FreshNodes();
  const std::string log_path = dir_ + "/restart.log";
  TabletCoordinator::Options options = DurableOptions(log_path);
  options.lease_duration_us = SecondsToMicroseconds(10);

  Result<std::unique_ptr<TabletCoordinator>> first =
      TabletCoordinator::Recover(SeedMap(), &clock_, options);
  ASSERT_TRUE(first.ok());
  const uint64_t first_epoch = (*first)->coordinator_epoch();
  first->reset();  // kill -9; no clock advance — the lease is still live.

  Result<std::unique_ptr<TabletCoordinator>> second =
      TabletCoordinator::Recover(SeedMap(), &clock_, options);
  ASSERT_TRUE(second.ok()) << "a restart must not wait out its own lease";
  EXPECT_EQ((*second)->coordinator_epoch(), first_epoch + 1);
}

TEST_F(DurableCoordinatorTest, ExpiredLeaseBlocksMutationsUntilRenewed) {
  FreshNodes();
  const std::string log_path = dir_ + "/renew.log";
  TabletCoordinator::Options options = DurableOptions(log_path);
  options.lease_duration_us = SecondsToMicroseconds(5);
  Result<std::unique_ptr<TabletCoordinator>> recovered =
      TabletCoordinator::Recover(SeedMap(), &clock_, options);
  ASSERT_TRUE(recovered.ok());
  std::unique_ptr<TabletCoordinator> coordinator = std::move(*recovered);
  coordinator->RegisterNode(alpha_.get());
  coordinator->RegisterNode(beta_.get());
  ASSERT_TRUE(coordinator->CompleteRecovery().ok());

  clock_.AdvanceMicros(SecondsToMicroseconds(6));
  EXPECT_FALSE(coordinator->IsLeader());
  EXPECT_EQ(coordinator->ExecuteSplit("m").code(), StatusCode::kNotPrimary);
  EXPECT_EQ(coordinator->map().version, 1u) << "no mutation happened";

  ASSERT_TRUE(coordinator->RenewLease().ok());
  EXPECT_TRUE(coordinator->IsLeader());
  EXPECT_TRUE(coordinator->ExecuteSplit("m").ok());
}

}  // namespace
}  // namespace pileus::tablets
