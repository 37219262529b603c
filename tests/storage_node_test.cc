// Tests for StorageNode: tablet registration, request dispatch, and the
// errors a node returns for misrouted or malformed requests. Every case runs
// twice: over in-memory tablets and over durable (journaled) ones, which
// the node must serve identically.

#include <gtest/gtest.h>
#include <stdlib.h>
#include <sys/stat.h>

#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/persist/durable_tablet.h"
#include "src/storage/storage_node.h"
#include "tests/numbered_key.h"

namespace pileus::storage {
namespace {

enum class Backend { kInMemory, kDurable };

class StorageNodeTest : public ::testing::TestWithParam<Backend> {
 protected:
  StorageNodeTest() : clock_(1000), node_("node-1", "US", &clock_) {}

  void SetUp() override {
    if (GetParam() == Backend::kDurable) {
      char tmpl[] = "/tmp/pileus_node_XXXXXX";
      ASSERT_NE(::mkdtemp(tmpl), nullptr);
      dir_ = tmpl;
    }
    Tablet::Options options;
    options.is_primary = true;
    ASSERT_TRUE(AddTablet(node_, &clock_, "t", options).ok());
  }

  void TearDown() override {
    if (!dir_.empty()) {
      (void)::system(("rm -rf '" + dir_ + "'").c_str());
    }
  }

  // Adds a tablet to `node` in this test's backend; a durable one gets a
  // fresh directory of its own.
  Status AddTablet(StorageNode& node, Clock* clock, std::string_view table,
                   Tablet::Options options) {
    if (GetParam() == Backend::kInMemory) {
      return node.AddTablet(table, std::move(options));
    }
    persist::DurableTablet::Options durable;
    durable.directory = dir_ + "/" + std::to_string(tablets_opened_++);
    ::mkdir(durable.directory.c_str(), 0755);
    durable.tablet = std::move(options);
    Result<std::unique_ptr<persist::DurableTablet>> opened =
        persist::DurableTablet::Open(durable, clock);
    if (!opened.ok()) {
      return opened.status();
    }
    return node.AddTablet(table, (*opened)->shared_tablet());
  }

  // Hosts `table` on node_ as two primary tablets, ["", "m") and ["m", "").
  void AddTwoPrimaryTablets(std::string_view table) {
    for (KeyRange range : {KeyRange{"", "m"}, KeyRange{"m", ""}}) {
      Tablet::Options options;
      options.range = std::move(range);
      options.is_primary = true;
      ASSERT_TRUE(AddTablet(node_, &clock_, table, options).ok());
    }
  }

  ManualClock clock_;
  StorageNode node_;
  std::string dir_;
  int tablets_opened_ = 0;
};

INSTANTIATE_TEST_SUITE_P(
    Backends, StorageNodeTest,
    ::testing::Values(Backend::kInMemory, Backend::kDurable),
    [](const ::testing::TestParamInfo<Backend>& param_info) {
      return param_info.param == Backend::kInMemory ? "InMemory" : "Durable";
    });

TEST_P(StorageNodeTest, NameAndSite) {
  EXPECT_EQ(node_.name(), "node-1");
  EXPECT_EQ(node_.site(), "US");
}

TEST_P(StorageNodeTest, PutThenGet) {
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

TEST_P(StorageNodeTest, GetUnknownTableIsWrongNode) {
  proto::GetRequest get;
  get.table = "nope";
  get.key = "k";
  proto::Message reply = node_.Handle(get);
  const auto* err = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, StatusCode::kWrongNode);
}

TEST_P(StorageNodeTest, KeyOutsideTabletRangeIsWrongNode) {
  ManualClock clock(1);
  StorageNode node("n", "s", &clock);
  Tablet::Options options;
  options.range = KeyRange{"a", "m"};
  options.is_primary = true;
  ASSERT_TRUE(AddTablet(node, &clock, "t", options).ok());

  proto::GetRequest get;
  get.table = "t";
  get.key = "zzz";
  proto::Message reply = node.Handle(get);
  EXPECT_TRUE(std::holds_alternative<proto::ErrorReply>(reply));
}

TEST_P(StorageNodeTest, MultipleTabletsRouteByRange) {
  ManualClock clock(1);
  StorageNode node("n", "s", &clock);
  for (const auto& range : SplitKeySpaceEvenly(4)) {
    Tablet::Options options;
    options.range = range;
    options.is_primary = true;
    ASSERT_TRUE(AddTablet(node, &clock, "t", options).ok());
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

TEST_P(StorageNodeTest, InstallConfigAdoptsAndStampsReplies) {
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

TEST_P(StorageNodeTest, StaleEpochInstallRejected) {
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

TEST_P(StorageNodeTest, NonPrimaryEpochRejectsPutsWithHint) {
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

TEST_P(StorageNodeTest, ExpiredLeaseFencesThenRenewalUnfences) {
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

TEST_P(StorageNodeTest, ConfigQueryReportsDurableTimestamp) {
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

// A checkpoint compacts the tablet's whole update log; the durable timestamp
// that ranks promotion candidates must not fall to Zero with it.
TEST_P(StorageNodeTest, DurableTimestampSurvivesLogCompaction) {
  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  put.value = "v";
  ASSERT_TRUE(std::holds_alternative<proto::PutReply>(node_.Handle(put)));
  const auto durable_timestamp = [this] {
    proto::TabletMapRequest query;
    query.table = "t";
    proto::Message reply = node_.Handle(query);
    const auto* map_reply = std::get_if<proto::TabletMapReply>(&reply);
    return map_reply != nullptr ? map_reply->durable_timestamp
                                : Timestamp::Zero();
  };
  const Timestamp before = durable_timestamp();
  ASSERT_NE(before, Timestamp::Zero());
  Tablet* tablet = node_.FindTablet("t", "k");
  tablet->CompactLog(tablet->high_timestamp());
  ASSERT_TRUE(tablet->update_log().empty());
  EXPECT_EQ(durable_timestamp(), before);
}

TEST_P(StorageNodeTest, ProbeStampedOnlyFromOneTabletMap) {
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

TEST_P(StorageNodeTest, OverlappingTabletRejected) {
  Tablet::Options options;
  options.range = KeyRange{"a", "z"};
  const Status status = AddTablet(node_, &clock_, "t", options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_P(StorageNodeTest, PutToSecondaryReturnsNotPrimary) {
  ManualClock clock(1);
  StorageNode node("n", "s", &clock);
  ASSERT_TRUE(AddTablet(node, &clock, "t", Tablet::Options{}).ok());
  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  proto::Message reply = node.Handle(put);
  const auto* err = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, StatusCode::kNotPrimary);
}

TEST_P(StorageNodeTest, ProbeReportsHighTimestampAndRole) {
  proto::ProbeRequest probe;
  probe.table = "t";
  proto::Message reply = node_.Handle(probe);
  const auto* probe_reply = std::get_if<proto::ProbeReply>(&reply);
  ASSERT_NE(probe_reply, nullptr);
  EXPECT_TRUE(probe_reply->is_primary);
  EXPECT_GT(probe_reply->high_timestamp, Timestamp::Zero());
}

TEST_P(StorageNodeTest, ProbeUnknownTableFails) {
  proto::ProbeRequest probe;
  probe.table = "nope";
  proto::Message reply = node_.Handle(probe);
  EXPECT_TRUE(std::holds_alternative<proto::ErrorReply>(reply));
}

TEST_P(StorageNodeTest, SyncDispatch) {
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

TEST_P(StorageNodeTest, RangeScanAcrossMultipleTablets) {
  ManualClock clock(1);
  StorageNode node("n", "s", &clock);
  for (const auto& range : SplitKeySpaceEvenly(4)) {
    Tablet::Options options;
    options.range = range;
    options.is_primary = true;
    ASSERT_TRUE(AddTablet(node, &clock, "t", options).ok());
  }
  // Keys spread across all four tablets.
  for (int c = 10; c < 250; c += 20) {
    proto::PutRequest put;
    put.table = "t";
    put.key = std::string(1, static_cast<char>(c));
    put.value = NumberedKey("v", c);
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
    EXPECT_LT(rr->items[i - 1]->key, rr->items[i]->key);  // Global key order.
  }
  EXPECT_TRUE(rr->served_by_primary);
  EXPECT_GT(rr->high_timestamp, Timestamp::Zero());
}

TEST_P(StorageNodeTest, RangeScanLimitAcrossTablets) {
  ManualClock clock(1);
  StorageNode node("n", "s", &clock);
  for (const auto& range : SplitKeySpaceEvenly(2)) {
    Tablet::Options options;
    options.range = range;
    options.is_primary = true;
    ASSERT_TRUE(AddTablet(node, &clock, "t", options).ok());
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

TEST_P(StorageNodeTest, RangeReplySharesTheStoresVersions) {
  for (int i = 0; i < 60; ++i) {
    proto::PutRequest put;
    put.table = "t";
    put.key = NumberedKey("user", 100000 + i);
    put.value.assign(100, static_cast<char>('a' + i % 26));
    clock_.AdvanceMicros(1);
    ASSERT_TRUE(std::holds_alternative<proto::PutReply>(node_.Handle(put)));
  }
  proto::RangeRequest range;
  range.table = "t";
  range.limit = 50;
  const proto::Message reply = node_.Handle(range);
  const auto* rr = std::get_if<proto::RangeReply>(&reply);
  ASSERT_NE(rr, nullptr);
  ASSERT_EQ(rr->items.size(), 50u);
  // Each item is the store's chain head itself, not a copy of it.
  const VersionedStore& store = node_.FindTablet("t", "")->store();
  for (const proto::VersionPtr& item : rr->items) {
    EXPECT_EQ(item.get(), store.GetLatest(item->key).get()) << item->key;
  }

  // Later writes make new versions and leave the shared ones alone: enough
  // of them that the first item's version leaves the store's history, and
  // the reply built before them still encodes to the same bytes.
  const std::string before = proto::EncodeMessage(reply);
  const proto::VersionPtr first = rr->items.front();
  for (int i = 0; i < 10; ++i) {
    proto::PutRequest put;
    put.table = "t";
    put.key = first->key;
    put.value = NumberedKey("rewritten ", i);
    clock_.AdvanceMicros(1);
    ASSERT_TRUE(std::holds_alternative<proto::PutReply>(node_.Handle(put)));
  }
  EXPECT_NE(store.GetLatest(first->key).get(), first.get());
  EXPECT_EQ(first->value, std::string(100, 'a'));
  EXPECT_EQ(proto::EncodeMessage(reply), before);
}

TEST_P(StorageNodeTest, RangeScanUnknownTable) {
  proto::RangeRequest range;
  range.table = "nope";
  proto::Message reply = node_.Handle(range);
  EXPECT_TRUE(std::holds_alternative<proto::ErrorReply>(reply));
}

TEST_P(StorageNodeTest, ReplyMessageAsRequestIsRejected) {
  proto::Message reply = node_.Handle(proto::Message(proto::GetReply{}));
  const auto* err = std::get_if<proto::ErrorReply>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, StatusCode::kInvalidArgument);
}

TEST_P(StorageNodeTest, RoleFlipsForWholeTable) {
  ASSERT_TRUE(node_.InstallTabletMap(MapWithPrimary(1, "node-2")));
  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  EXPECT_TRUE(std::holds_alternative<proto::ErrorReply>(node_.Handle(put)));
  ASSERT_TRUE(node_.InstallTabletMap(MapWithPrimary(2, "node-1")));
  EXPECT_TRUE(std::holds_alternative<proto::PutReply>(node_.Handle(put)));
}

TEST_P(StorageNodeTest, SyncReplicaFlagAffectsAuthoritativeness) {
  ManualClock clock(1);
  StorageNode node("n", "s", &clock);
  ASSERT_TRUE(AddTablet(node, &clock, "t", Tablet::Options{}).ok());
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

TEST_P(StorageNodeTest, HighTimestampAccessor) {
  EXPECT_EQ(node_.HighTimestamp("missing", "k"), Timestamp::Zero());
  proto::PutRequest put;
  put.table = "t";
  put.key = "k";
  put.value = "v";
  (void)node_.Handle(put);
  EXPECT_GT(node_.HighTimestamp("t", "k"), Timestamp::Zero());
}

// A node hosting two ranges of one table, as examples/sharded_regions does:
// a keyless pull must still cover the whole table, or a secondary that
// advances to the reply's heartbeat would skip the other tablet's writes
// for good.
TEST_P(StorageNodeTest, WholeTablePullCoversEveryTablet) {
  AddTwoPrimaryTablets("two");
  Timestamp written[2];
  const char* keys[2] = {"a", "x"};
  for (int i = 0; i < 2; ++i) {
    clock_.AdvanceMicros(1);
    proto::PutRequest put;
    put.table = "two";
    put.key = keys[i];
    put.value = "v";
    proto::Message reply = node_.Handle(put);
    ASSERT_TRUE(std::holds_alternative<proto::PutReply>(reply));
    written[i] = std::get<proto::PutReply>(reply).timestamp;
  }
  clock_.AdvanceMicros(10);

  proto::SyncRequest pull;
  pull.table = "two";
  proto::Message reply = node_.Handle(pull);
  const auto* whole = std::get_if<proto::SyncReply>(&reply);
  ASSERT_NE(whole, nullptr);
  ASSERT_EQ(whole->versions.size(), 2u);
  EXPECT_EQ(whole->versions[0].key, "a");
  EXPECT_EQ(whole->versions[1].key, "x");
  EXPECT_GE(whole->heartbeat, written[1]);

  // A batched pull claims completeness only up to the one version it sent.
  pull.max_versions = 1;
  reply = node_.Handle(pull);
  const auto* batch = std::get_if<proto::SyncReply>(&reply);
  ASSERT_NE(batch, nullptr);
  ASSERT_EQ(batch->versions.size(), 1u);
  EXPECT_EQ(batch->versions[0].key, "a");
  EXPECT_EQ(batch->heartbeat, written[0]);
  EXPECT_TRUE(batch->has_more);
}

// Two tablets on one node can assign one timestamp twice. A batched pull
// that ends inside such a run must take the whole run: the receiver pulls
// after the reply's heartbeat next, so a cut run would lose its rest.
TEST_P(StorageNodeTest, BatchedPullNeverCutsASameTimestampRun) {
  AddTwoPrimaryTablets("two");
  Timestamp written[2];
  const char* keys[2] = {"a", "x"};
  for (int i = 0; i < 2; ++i) {
    proto::PutRequest put;
    put.table = "two";
    put.key = keys[i];
    put.value = "v";
    proto::Message reply = node_.Handle(put);
    ASSERT_TRUE(std::holds_alternative<proto::PutReply>(reply));
    written[i] = std::get<proto::PutReply>(reply).timestamp;
  }
  ASSERT_EQ(written[0], written[1]);
  clock_.AdvanceMicros(10);

  proto::SyncRequest pull;
  pull.table = "two";
  pull.max_versions = 1;
  std::vector<std::string> received;
  for (int round = 0; round < 4; ++round) {
    proto::Message reply = node_.Handle(pull);
    const auto* batch = std::get_if<proto::SyncReply>(&reply);
    ASSERT_NE(batch, nullptr);
    for (const proto::ObjectVersion& version : batch->versions) {
      received.push_back(version.key);
    }
    if (!batch->has_more) {
      break;
    }
    pull.after = batch->heartbeat;
  }
  EXPECT_EQ(received, (std::vector<std::string>{"a", "x"}));
}

}  // namespace
}  // namespace pileus::storage
