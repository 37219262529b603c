// Tests for the reconfiguration subsystem (paper Section 6.2): config
// epochs and their codec, the lease-based failover coordinator's detection
// and promotion logic, and the SLA-driven placement policy built on top.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/core/monitor.h"
#include "src/core/sla.h"
#include "src/experiments/placement.h"
#include "src/reconfig/config_epoch.h"
#include "src/reconfig/coordinator.h"
#include "src/util/codec.h"

namespace pileus::reconfig {
namespace {

ConfigEpoch MakeConfig() {
  ConfigEpoch config;
  config.epoch = 3;
  config.primary = "England";
  config.members = {"England", "US", "India"};
  config.sync_members = {"US"};
  return config;
}

TEST(ConfigEpochTest, Membership) {
  const ConfigEpoch config = MakeConfig();
  EXPECT_TRUE(config.IsMember("England"));
  EXPECT_TRUE(config.IsMember("India"));
  EXPECT_FALSE(config.IsMember("China"));
  EXPECT_TRUE(config.IsSyncMember("US"));
  EXPECT_FALSE(config.IsSyncMember("England"));
}

TEST(ConfigEpochTest, CodecRoundtrip) {
  const ConfigEpoch config = MakeConfig();
  Encoder enc;
  EncodeConfigEpoch(enc, config);

  Decoder dec(enc.buffer());
  ConfigEpoch decoded;
  ASSERT_TRUE(DecodeConfigEpoch(dec, &decoded).ok());
  EXPECT_EQ(decoded, config);
}

TEST(ConfigEpochTest, CodecRoundtripEmpty) {
  Encoder enc;
  EncodeConfigEpoch(enc, ConfigEpoch{});

  Decoder dec(enc.buffer());
  ConfigEpoch decoded;
  ASSERT_TRUE(DecodeConfigEpoch(dec, &decoded).ok());
  EXPECT_EQ(decoded, ConfigEpoch{});
}

TEST(ConfigEpochTest, DecodeTruncatedFails) {
  Encoder enc;
  EncodeConfigEpoch(enc, MakeConfig());
  const std::string& full = enc.buffer();

  Decoder dec(std::string_view(full).substr(0, full.size() / 2));
  ConfigEpoch decoded;
  EXPECT_FALSE(DecodeConfigEpoch(dec, &decoded).ok());
}

TEST(ConfigEpochTest, NextEpochBackfillsDemotedPrimaryFirst) {
  const ConfigEpoch config = MakeConfig();
  auto all = [](const std::string&) { return true; };
  // US leaves the sync set for the primary role; the demoted England, which
  // holds the complete prefix, takes its slot ahead of India.
  const ConfigEpoch next = NextEpoch(config, "US", 1, all);
  EXPECT_EQ(next.epoch, config.epoch + 1);
  EXPECT_EQ(next.primary, "US");
  EXPECT_EQ(next.members, config.members);
  EXPECT_EQ(next.sync_members, std::vector<std::string>{"England"});

  // Unreachable members never qualify; surviving sync members stay put.
  auto not_england = [](const std::string& node) { return node != "England"; };
  EXPECT_EQ(NextEpoch(config, "US", 1, not_england).sync_members,
            std::vector<std::string>{"India"});
  EXPECT_EQ(NextEpoch(config, "India", 1, all).sync_members,
            std::vector<std::string>{"US"});
  EXPECT_TRUE(NextEpoch(config, "US", 0, all).sync_members.empty());
}

// A two-tablet map: England leads ["", "m") and follows on ["m", ""), which
// US leads. India serves only the first tablet.
tablets::TabletMap MakeMap() {
  tablets::TabletMap map;
  map.table = "ycsb";
  map.version = 10;
  tablets::TabletInfo low;
  low.range = KeyRange{"", "m"};
  low.config = MakeConfig();
  tablets::TabletInfo high;
  high.range = KeyRange{"m", ""};
  high.config.epoch = 5;
  high.config.primary = "US";
  high.config.members = {"US", "England"};
  high.config.sync_members = {"England"};
  map.tablets = {low, high};
  return map;
}

class CoordinatorTest : public ::testing::Test {
 protected:
  CoordinatorTest() : map_(MakeMap()), coordinator_(MakeOptions()) {}

  static FailoverCoordinator::Options MakeOptions() {
    FailoverCoordinator::Options options;
    options.sync_member_target = 1;
    return options;
  }

  // One heartbeat round at time `now`: England acks unless listed dead,
  // the others ack with the given durable timestamps.
  void Round(MicrosecondCount now, bool primary_alive,
             const Timestamp& us_durable, const Timestamp& india_durable) {
    if (primary_alive) {
      coordinator_.OnHeartbeatAck("England", now, Timestamp{900, 0});
    } else {
      coordinator_.OnHeartbeatMiss("England", now);
    }
    coordinator_.OnHeartbeatAck("US", now, us_durable);
    coordinator_.OnHeartbeatAck("India", now, india_durable);
  }

  const tablets::TabletMap map_;
  FailoverCoordinator coordinator_;
};

TEST_F(CoordinatorTest, LeaseDurationIsDetectionThreshold) {
  EXPECT_EQ(FailoverCoordinator::kLeaseDurationUs,
            FailoverCoordinator::kMissedHeartbeatsToFail *
                FailoverCoordinator::kHeartbeatPeriodUs);
}

TEST_F(CoordinatorTest, HealthyPrimaryProducesNoPlan) {
  for (int i = 0; i < 10; ++i) {
    Round(i * 500000, /*primary_alive=*/true, Timestamp{500, 0},
          Timestamp{400, 0});
    EXPECT_FALSE(coordinator_.MaybePlanFailover(map_).has_value());
  }
}

TEST_F(CoordinatorTest, NoPlanBelowMissThreshold) {
  Round(0, true, Timestamp{500, 0}, Timestamp{400, 0});
  Round(500000, false, Timestamp{500, 0}, Timestamp{400, 0});
  Round(1000000, false, Timestamp{500, 0}, Timestamp{400, 0});
  EXPECT_FALSE(coordinator_.MaybePlanFailover(map_).has_value());
}

TEST_F(CoordinatorTest, PromotesHighestDurableMember) {
  Round(0, true, Timestamp{500, 0}, Timestamp{700, 0});
  for (int i = 1; i <= 3; ++i) {
    Round(i * 500000, /*primary_alive=*/false, Timestamp{500, 0},
          Timestamp{700, 0});
  }
  auto plan = coordinator_.MaybePlanFailover(map_);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->version, map_.version + 1);
  const ConfigEpoch& next = plan->tablets[0].config;
  EXPECT_EQ(next.primary, "India");  // Highest durable timestamp wins.
  EXPECT_EQ(next.epoch, MakeConfig().epoch + 1);
  EXPECT_TRUE(next.IsMember("England"));  // Membership survives.
  EXPECT_EQ(next.sync_members, std::vector<std::string>{"US"});
}

TEST_F(CoordinatorTest, FailoverMovesOnlyTabletsTheDeadPrimaryLed) {
  for (int i = 1; i <= 3; ++i) {
    Round(i * 500000, /*primary_alive=*/false, Timestamp{800, 0},
          Timestamp{700, 0});
  }
  auto plan = coordinator_.MaybePlanFailover(map_);
  ASSERT_TRUE(plan.has_value());
  // England loses the tablet it led...
  EXPECT_EQ(plan->tablets[0].config.primary, "US");
  EXPECT_EQ(plan->tablets[0].config.epoch, map_.tablets[0].config.epoch + 1);
  // ...and nothing else: the tablet it follows on keeps its epoch and roles.
  EXPECT_EQ(plan->tablets[1], map_.tablets[1]);
}

TEST_F(CoordinatorTest, PromotionAckResetsDetection) {
  // India misses three rounds while England stays healthy: nothing to do,
  // since India leads nothing.
  for (int i = 1; i <= 3; ++i) {
    coordinator_.OnHeartbeatAck("England", i * 500000, Timestamp{900, 0});
    coordinator_.OnHeartbeatMiss("India", i * 500000);
  }
  EXPECT_FALSE(coordinator_.MaybePlanFailover(map_).has_value());

  // A deliberate move to India, which the driver knows is live again.
  auto all = [](const std::string&) { return true; };
  auto moved = coordinator_.PlanMove(map_, "India", all);
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(moved->tablets[0].config.primary, "India");
  // Its stale misses would fail it over at once...
  EXPECT_TRUE(coordinator_.MaybePlanFailover(*moved).has_value());
  // ...until the driver reports the promoting install as a contact:
  // detection starts fresh in the new epoch.
  coordinator_.OnHeartbeatAck("India", 2000000, Timestamp{700, 0});
  EXPECT_FALSE(coordinator_.MaybePlanFailover(*moved).has_value());
}

TEST_F(CoordinatorTest, PlanMoveValidatesTarget) {
  auto all = [](const std::string&) { return true; };
  EXPECT_FALSE(coordinator_.PlanMove(map_, "China", all).has_value());

  auto plan = coordinator_.PlanMove(map_, "US", all);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->version, map_.version + 1);
  EXPECT_EQ(plan->tablets[0].config.primary, "US");
  EXPECT_EQ(plan->tablets[0].config.epoch, MakeConfig().epoch + 1);
  EXPECT_EQ(plan->tablets[0].config.sync_members,
            std::vector<std::string>{"England"});
  EXPECT_EQ(plan->tablets[1], map_.tablets[1]);  // US already leads it.
  // Already leading everything it serves: nothing left to move.
  EXPECT_FALSE(coordinator_.PlanMove(*plan, "US", all).has_value());
}

}  // namespace
}  // namespace pileus::reconfig

namespace pileus::experiments {
namespace {

using core::Guarantee;
using core::Monitor;
using core::Sla;

// Strong nearby is worth 1.0; the eventual fallback anywhere fast is 0.5.
Sla PlacementSla() {
  return Sla()
      .Add(Guarantee::Strong(), MillisecondsToMicroseconds(50), 1.0)
      .Add(Guarantee::Eventual(), MillisecondsToMicroseconds(50), 0.5);
}

class PlacementTest : public ::testing::Test {
 protected:
  PlacementTest()
      : clock_(SecondsToMicroseconds(1000)),
        near_a_(&clock_),
        near_b_(&clock_) {
    // near_a_ measures A as local and B as far; near_b_ the reverse. Both
    // see every replica fully caught up (high timestamps are irrelevant to
    // the fresh-session floors but recorded for realism).
    for (int i = 0; i < 8; ++i) {
      near_a_.RecordLatency("A", MillisecondsToMicroseconds(5));
      near_a_.RecordLatency("B", MillisecondsToMicroseconds(200));
      near_b_.RecordLatency("A", MillisecondsToMicroseconds(200));
      near_b_.RecordLatency("B", MillisecondsToMicroseconds(5));
    }
  }

  ManualClock clock_;
  Monitor near_a_;
  Monitor near_b_;
};

TEST_F(PlacementTest, PrimaryFollowsTheOnlyClient) {
  const std::vector<std::string> sites = {"A", "B"};
  const std::vector<PlacementClient> clients = {
      {.monitor = &near_a_, .sla = PlacementSla()}};

  const auto ranked = RankPrimaryPlacements(sites, sites, clients);
  ASSERT_EQ(ranked.size(), 2u);
  // Primary at A: strong served locally, utility 1.0. Primary at B: strong
  // is 200 ms away, so the client falls back to eventual at A, utility 0.5.
  EXPECT_EQ(ranked[0].site, "A");
  EXPECT_DOUBLE_EQ(ranked[0].utility, 1.0);
  EXPECT_EQ(ranked[1].site, "B");
  EXPECT_DOUBLE_EQ(ranked[1].utility, 0.5);
  EXPECT_EQ(RecommendPrimaryPlacement(sites, sites, clients), "A");
}

TEST_F(PlacementTest, WeightedPopulationDecides) {
  const std::vector<std::string> sites = {"A", "B"};
  const std::vector<PlacementClient> heavier_b = {
      {.monitor = &near_a_, .sla = PlacementSla(), .weight = 1.0},
      {.monitor = &near_b_, .sla = PlacementSla(), .weight = 3.0}};

  const auto ranked = RankPrimaryPlacements(sites, sites, heavier_b);
  ASSERT_EQ(ranked.size(), 2u);
  // Placement at B: (1*0.5 + 3*1.0) / 4 = 0.875 beats A's 0.625.
  EXPECT_EQ(ranked[0].site, "B");
  EXPECT_DOUBLE_EQ(ranked[0].utility, 0.875);
  EXPECT_DOUBLE_EQ(ranked[1].utility, 0.625);
  EXPECT_EQ(RecommendPrimaryPlacement(sites, sites, heavier_b), "B");
}

TEST_F(PlacementTest, BalancedPopulationTiesKeepCandidateOrder) {
  const std::vector<std::string> sites = {"B", "A"};
  const std::vector<PlacementClient> balanced = {
      {.monitor = &near_a_, .sla = PlacementSla()},
      {.monitor = &near_b_, .sla = PlacementSla()}};

  const auto ranked = RankPrimaryPlacements(sites, sites, balanced);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_DOUBLE_EQ(ranked[0].utility, ranked[1].utility);
  // Stable sort: the incumbent-first candidate order survives a tie.
  EXPECT_EQ(ranked[0].site, "B");
}

TEST_F(PlacementTest, EmptyInputs) {
  EXPECT_TRUE(RankPrimaryPlacements({}, {"A"}, {}).empty());
  EXPECT_EQ(RecommendPrimaryPlacement({}, {"A"}, {}), "");
  // Clients with no monitor or zero weight are skipped, not crashed on.
  const std::vector<PlacementClient> degenerate = {
      {.monitor = nullptr, .sla = PlacementSla()},
      {.monitor = &near_a_, .sla = PlacementSla(), .weight = 0.0}};
  const auto ranked = RankPrimaryPlacements({"A"}, {"A"}, degenerate);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_DOUBLE_EQ(ranked[0].utility, 0.0);
}

}  // namespace
}  // namespace pileus::experiments
