// Tests for StorageNode: tablet registration, request dispatch, and the
// errors a node returns for misrouted or malformed requests.

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/storage/storage_node.h"

namespace pileus::storage {
namespace {

class StorageNodeTest : public ::testing::Test {
 protected:
  StorageNodeTest() : clock_(1000), node_("node-1", "US", &clock_) {
    Tablet::Options options;
    options.is_primary = true;
    EXPECT_TRUE(node_.AddTablet("t", options).ok());
  }

  ManualClock clock_;
  StorageNode node_;
};

TEST_F(StorageNodeTest, NameAndSite) {
  EXPECT_EQ(node_.name(), "node-1");
  EXPECT_EQ(node_.site(), "US");
}

TEST_F(StorageNodeTest, PutThenGet) {
  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  put.value = "v";
  proto::Message put_reply = node_.Handle(put);
  ASSERT_TRUE(std::holds_alternative<proto::PutReply>(put_reply));

  proto::GetRequest get;
  get.table = "t";
  get.key = "k";
  proto::Message get_reply = node_.Handle(get);
  const auto* reply = std::get_if<proto::GetReply>(&get_reply);
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->found);
  EXPECT_EQ(reply->value, "v");
  EXPECT_EQ(node_.requests_served(), 2u);
}

TEST_F(StorageNodeTest, GetUnknownTableIsWrongNode) {
  proto::GetRequest get;
  get.table = "nope";
  get.key = "k";
  proto::Message reply = node_.Handle(get);
  const auto* err = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, StatusCode::kWrongNode);
}

TEST_F(StorageNodeTest, KeyOutsideTabletRangeIsWrongNode) {
  ManualClock clock(1);
  StorageNode node("n", "s", &clock);
  Tablet::Options options;
  options.range = KeyRange{"a", "m"};
  options.is_primary = true;
  ASSERT_TRUE(node.AddTablet("t", options).ok());

  proto::GetRequest get;
  get.table = "t";
  get.key = "zzz";
  proto::Message reply = node.Handle(get);
  EXPECT_TRUE(std::holds_alternative<proto::ErrorReply>(reply));
}

TEST_F(StorageNodeTest, MultipleTabletsRouteByRange) {
  ManualClock clock(1);
  StorageNode node("n", "s", &clock);
  for (const auto& range : SplitKeySpaceEvenly(4)) {
    Tablet::Options options;
    options.range = range;
    options.is_primary = true;
    ASSERT_TRUE(node.AddTablet("t", options).ok());
  }
  // Keys across the spectrum all land somewhere.
  for (const char* key : {"", "Alpha", "m-middle", "zz-top"}) {
    proto::PutRequest put;
    put.table = "t";
    put.key = key;
    put.value = "v";
    EXPECT_TRUE(std::holds_alternative<proto::PutReply>(node.Handle(put)))
        << key;
  }
  EXPECT_EQ(node.TabletsForTable("t").size(), 4u);
}

// --- Configuration epochs (Section 6.2), installed as tablet maps ---

reconfig::ConfigEpoch EpochWithPrimary(uint64_t epoch,
                                       const std::string& primary) {
  reconfig::ConfigEpoch config;
  config.epoch = epoch;
  config.primary = primary;
  config.members = {"node-1", "node-2"};
  return config;
}

// A one-tablet map of table "t" whose version tracks the tablet's epoch.
tablets::TabletMap MapWithPrimary(uint64_t epoch, const std::string& primary) {
  tablets::TabletMap map;
  map.table = "t";
  map.version = epoch;
  tablets::TabletInfo tablet;
  tablet.range = KeyRange::All();
  tablet.config = EpochWithPrimary(epoch, primary);
  map.tablets.push_back(std::move(tablet));
  return map;
}

proto::TabletMapRequest InstallRequest(const tablets::TabletMap& map,
                                       MicrosecondCount lease_duration_us = 0) {
  proto::TabletMapRequest install;
  install.table = map.table;
  install.install = true;
  install.map = map;
  install.lease_duration_us = lease_duration_us;
  return install;
}

TEST_F(StorageNodeTest, InstallConfigAdoptsAndStampsReplies) {
  proto::Message reply =
      node_.Handle(InstallRequest(MapWithPrimary(1, "node-1")));
  const auto* map_reply = std::get_if<proto::TabletMapReply>(&reply);
  ASSERT_NE(map_reply, nullptr);
  EXPECT_TRUE(map_reply->accepted);
  ASSERT_TRUE(node_.InstalledTabletMap("t").has_value());
  EXPECT_EQ(node_.InstalledTabletMap("t")->tablets.front().config.epoch, 1u);

  // Every data reply now carries the owning tablet's epoch piggyback.
  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  put.value = "v";
  proto::Message put_msg = node_.Handle(put);
  const auto* put_reply = std::get_if<proto::PutReply>(&put_msg);
  ASSERT_NE(put_reply, nullptr);
  EXPECT_EQ(put_reply->config_epoch, 1u);
  EXPECT_EQ(put_reply->primary_hint, "node-1");
}

TEST_F(StorageNodeTest, StaleEpochInstallRejected) {
  ASSERT_TRUE(node_.InstallTabletMap(MapWithPrimary(3, "node-1")));

  proto::Message reply =
      node_.Handle(InstallRequest(MapWithPrimary(2, "node-2")));
  const auto* map_reply = std::get_if<proto::TabletMapReply>(&reply);
  ASSERT_NE(map_reply, nullptr);
  EXPECT_FALSE(map_reply->accepted);
  ASSERT_TRUE(map_reply->has_map);
  EXPECT_EQ(map_reply->map.version, 3u);
  EXPECT_EQ(node_.InstalledTabletMap("t")->tablets.front().config.primary,
            "node-1");
}

TEST_F(StorageNodeTest, NonPrimaryEpochRejectsPutsWithHint) {
  ASSERT_TRUE(node_.InstallTabletMap(MapWithPrimary(2, "node-2")));
  EXPECT_FALSE(node_.FindTablet("t", "k")->is_primary());  // Demoted.

  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  put.value = "v";
  proto::Message reply = node_.Handle(put);
  const auto* err = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(err, nullptr);
  // A member that does not lead the key's tablet redirects; only a
  // non-member answers kWrongTablet.
  EXPECT_EQ(err->code, StatusCode::kNotPrimary);
  // The redirect payload: enough for the client to retry at the primary.
  EXPECT_EQ(err->config_epoch, 2u);
  EXPECT_EQ(err->primary_hint, "node-2");
}

TEST_F(StorageNodeTest, ExpiredLeaseFencesThenRenewalUnfences) {
  const proto::TabletMapRequest install =
      InstallRequest(MapWithPrimary(1, "node-1"), /*lease_duration_us=*/1000);
  proto::Message installed = node_.Handle(install);
  ASSERT_TRUE(std::get_if<proto::TabletMapReply>(&installed)->accepted);

  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  put.value = "v";
  EXPECT_TRUE(std::holds_alternative<proto::PutReply>(node_.Handle(put)));

  // Past the lease the node self-fences even though it still holds the role.
  clock_.AdvanceMicros(2000);
  proto::Message fenced = node_.Handle(put);
  const auto* err = std::get_if<proto::ErrorReply>(&fenced);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, StatusCode::kNotPrimary);
  EXPECT_EQ(err->config_epoch, 1u);
  EXPECT_EQ(err->primary_hint, "node-1");
  EXPECT_TRUE(node_.FindTablet("t", "k")->is_primary());

  // A same-version re-install is a lease renewal: writable again, roles
  // untouched.
  proto::Message renewed = node_.Handle(install);
  ASSERT_TRUE(std::get_if<proto::TabletMapReply>(&renewed)->accepted);
  EXPECT_TRUE(std::holds_alternative<proto::PutReply>(node_.Handle(put)));
  EXPECT_EQ(node_.InstalledTabletMap("t")->version, 1u);
}

TEST_F(StorageNodeTest, ConfigQueryReportsDurableTimestamp) {
  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  put.value = "v";
  proto::Message put_msg = node_.Handle(put);
  const auto* put_reply = std::get_if<proto::PutReply>(&put_msg);
  ASSERT_NE(put_reply, nullptr);

  proto::TabletMapRequest query;
  query.table = "t";
  proto::Message reply = node_.Handle(query);
  const auto* map_reply = std::get_if<proto::TabletMapReply>(&reply);
  ASSERT_NE(map_reply, nullptr);
  EXPECT_TRUE(map_reply->accepted);
  EXPECT_EQ(map_reply->map.version, 0u);  // Never installed one.
  EXPECT_EQ(map_reply->durable_timestamp, put_reply->timestamp);
}

TEST_F(StorageNodeTest, ProbeStampedOnlyFromOneTabletMap) {
  ASSERT_TRUE(node_.InstallTabletMap(MapWithPrimary(4, "node-1")));
  proto::ProbeRequest probe;
  probe.table = "t";
  proto::Message reply = node_.Handle(probe);
  ASSERT_TRUE(std::holds_alternative<proto::ProbeReply>(reply));
  EXPECT_EQ(std::get<proto::ProbeReply>(reply).config_epoch, 4u);

  // With two tablets no single entry speaks for a keyless probe.
  tablets::TabletMap split = MapWithPrimary(5, "node-1");
  split.tablets.front().range = KeyRange{"", "m"};
  tablets::TabletInfo upper = split.tablets.front();
  upper.range = KeyRange{"m", ""};
  split.tablets.push_back(upper);
  ASSERT_TRUE(node_.InstallTabletMap(split));
  reply = node_.Handle(probe);
  ASSERT_TRUE(std::holds_alternative<proto::ProbeReply>(reply));
  EXPECT_EQ(std::get<proto::ProbeReply>(reply).config_epoch, 0u);
}

TEST_F(StorageNodeTest, OverlappingTabletRejected) {
  Tablet::Options options;
  options.range = KeyRange{"a", "z"};
  const Status status = node_.AddTablet("t", options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(StorageNodeTest, PutToSecondaryReturnsNotPrimary) {
  ManualClock clock(1);
  StorageNode node("n", "s", &clock);
  ASSERT_TRUE(node.AddTablet("t", Tablet::Options{}).ok());
  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  proto::Message reply = node.Handle(put);
  const auto* err = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, StatusCode::kNotPrimary);
}

TEST_F(StorageNodeTest, ProbeReportsHighTimestampAndRole) {
  proto::ProbeRequest probe;
  probe.table = "t";
  proto::Message reply = node_.Handle(probe);
  const auto* probe_reply = std::get_if<proto::ProbeReply>(&reply);
  ASSERT_NE(probe_reply, nullptr);
  EXPECT_TRUE(probe_reply->is_primary);
  EXPECT_GT(probe_reply->high_timestamp, Timestamp::Zero());
}

TEST_F(StorageNodeTest, ProbeUnknownTableFails) {
  proto::ProbeRequest probe;
  probe.table = "nope";
  proto::Message reply = node_.Handle(probe);
  EXPECT_TRUE(std::holds_alternative<proto::ErrorReply>(reply));
}

TEST_F(StorageNodeTest, SyncDispatch) {
  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  put.value = "v";
  (void)node_.Handle(put);

  proto::SyncRequest sync;
  sync.table = "t";
  sync.after = Timestamp::Zero();
  proto::Message reply = node_.Handle(sync);
  const auto* sync_reply = std::get_if<proto::SyncReply>(&reply);
  ASSERT_NE(sync_reply, nullptr);
  EXPECT_EQ(sync_reply->versions.size(), 1u);
}

TEST_F(StorageNodeTest, GetAtDispatch) {
  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  put.value = "v";
  (void)node_.Handle(put);

  proto::GetAtRequest get_at;
  get_at.table = "t";
  get_at.key = "k";
  get_at.snapshot = Timestamp::Max();
  proto::Message reply = node_.Handle(get_at);
  const auto* at_reply = std::get_if<proto::GetAtReply>(&reply);
  ASSERT_NE(at_reply, nullptr);
  EXPECT_TRUE(at_reply->found);
}

TEST_F(StorageNodeTest, ReadOnlyCommitTriviallySucceeds) {
  proto::CommitRequest commit;
  commit.table = "t";
  proto::Message reply = node_.Handle(commit);
  const auto* commit_reply = std::get_if<proto::CommitReply>(&reply);
  ASSERT_NE(commit_reply, nullptr);
  EXPECT_TRUE(commit_reply->committed);
}

TEST_F(StorageNodeTest, CrossTabletCommitRejected) {
  ManualClock clock(1);
  StorageNode node("n", "s", &clock);
  for (const auto& range : SplitKeySpaceEvenly(2)) {
    Tablet::Options options;
    options.range = range;
    options.is_primary = true;
    ASSERT_TRUE(node.AddTablet("t", options).ok());
  }
  proto::CommitRequest commit;
  commit.table = "t";
  proto::ObjectVersion low;
  low.key = "A-low-half";  // Byte 0x41: below the 0x80 split.
  proto::ObjectVersion high;
  high.key = "\xF0-high-half";  // Byte 0xF0: above the split.
  commit.writes = {low, high};
  proto::Message reply = node.Handle(commit);
  const auto* err = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, StatusCode::kInvalidArgument);
}

TEST_F(StorageNodeTest, RangeScanAcrossMultipleTablets) {
  ManualClock clock(1);
  StorageNode node("n", "s", &clock);
  for (const auto& range : SplitKeySpaceEvenly(4)) {
    Tablet::Options options;
    options.range = range;
    options.is_primary = true;
    ASSERT_TRUE(node.AddTablet("t", options).ok());
  }
  // Keys spread across all four tablets.
  for (int c = 10; c < 250; c += 20) {
    proto::PutRequest put;
    put.table = "t";
    put.key = std::string(1, static_cast<char>(c));
    put.value = "v" + std::to_string(c);
    clock.AdvanceMicros(1);
    ASSERT_TRUE(std::holds_alternative<proto::PutReply>(node.Handle(put)));
  }

  proto::RangeRequest range;
  range.table = "t";
  proto::Message reply = node.Handle(range);
  const auto* rr = std::get_if<proto::RangeReply>(&reply);
  ASSERT_NE(rr, nullptr);
  EXPECT_EQ(rr->items.size(), 12u);
  for (size_t i = 1; i < rr->items.size(); ++i) {
    EXPECT_LT(rr->items[i - 1].key, rr->items[i].key);  // Global key order.
  }
  EXPECT_TRUE(rr->served_by_primary);
  EXPECT_GT(rr->high_timestamp, Timestamp::Zero());
}

TEST_F(StorageNodeTest, RangeScanLimitAcrossTablets) {
  ManualClock clock(1);
  StorageNode node("n", "s", &clock);
  for (const auto& range : SplitKeySpaceEvenly(2)) {
    Tablet::Options options;
    options.range = range;
    options.is_primary = true;
    ASSERT_TRUE(node.AddTablet("t", options).ok());
  }
  for (int c = 10; c < 250; c += 10) {
    proto::PutRequest put;
    put.table = "t";
    put.key = std::string(1, static_cast<char>(c));
    put.value = "v";
    clock.AdvanceMicros(1);
    (void)node.Handle(put);
  }
  proto::RangeRequest range;
  range.table = "t";
  range.limit = 5;
  proto::Message reply = node.Handle(range);
  const auto* rr = std::get_if<proto::RangeReply>(&reply);
  ASSERT_NE(rr, nullptr);
  EXPECT_EQ(rr->items.size(), 5u);
  EXPECT_TRUE(rr->truncated);
}

TEST_F(StorageNodeTest, RangeScanUnknownTable) {
  proto::RangeRequest range;
  range.table = "nope";
  proto::Message reply = node_.Handle(range);
  EXPECT_TRUE(std::holds_alternative<proto::ErrorReply>(reply));
}

TEST_F(StorageNodeTest, ReplyMessageAsRequestIsRejected) {
  proto::Message reply = node_.Handle(proto::Message(proto::GetReply{}));
  const auto* err = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, StatusCode::kInvalidArgument);
}

TEST_F(StorageNodeTest, RoleFlipsForWholeTable) {
  ASSERT_TRUE(node_.InstallTabletMap(MapWithPrimary(1, "node-2")));
  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  EXPECT_TRUE(std::holds_alternative<proto::ErrorReply>(node_.Handle(put)));
  ASSERT_TRUE(node_.InstallTabletMap(MapWithPrimary(2, "node-1")));
  EXPECT_TRUE(std::holds_alternative<proto::PutReply>(node_.Handle(put)));
}

TEST_F(StorageNodeTest, SyncReplicaFlagAffectsAuthoritativeness) {
  ManualClock clock(1);
  StorageNode node("n", "s", &clock);
  ASSERT_TRUE(node.AddTablet("t", Tablet::Options{}).ok());
  EXPECT_FALSE(node.FindTablet("t", "k")->authoritative());
  tablets::TabletMap map = MapWithPrimary(1, "node-1");
  map.tablets.front().config.members = {"node-1", "n"};
  map.tablets.front().config.sync_members = {"n"};
  ASSERT_TRUE(node.InstallTabletMap(map));
  EXPECT_TRUE(node.FindTablet("t", "k")->authoritative());
  // Still not a primary: Puts are rejected.
  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  EXPECT_TRUE(std::holds_alternative<proto::ErrorReply>(node.Handle(put)));
}

TEST_F(StorageNodeTest, HighTimestampAccessor) {
  EXPECT_EQ(node_.HighTimestamp("missing", "k"), Timestamp::Zero());
  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  put.value = "v";
  (void)node_.Handle(put);
  EXPECT_GT(node_.HighTimestamp("t", "k"), Timestamp::Zero());
}

}  // namespace
}  // namespace pileus::storage
