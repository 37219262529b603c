// Tests for tablet maps (paper Section 4.2, DESIGN.md Section 10): the
// versioned TabletMap and its codec, and map installation and kWrongTablet
// fencing on storage nodes.

#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/proto/messages.h"
#include "src/storage/storage_node.h"
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
  // A boundary key belongs to the upper neighbour (begin inclusive).
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
  map.tablets[0].size_bytes = 123456;
  map.tablets[1].config.sync_members = {"gamma"};

  Encoder enc;
  EncodeTabletMap(enc, map);
  Decoder dec(enc.buffer());
  TabletMap decoded;
  ASSERT_TRUE(DecodeTabletMap(dec, &decoded).ok());
  EXPECT_EQ(decoded, map);
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

  // Same-version re-install is idempotent (a lease renewal relies on it).
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

}  // namespace
}  // namespace pileus::tablets
