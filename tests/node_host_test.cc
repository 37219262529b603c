// The node host: recovery re-installs a durable node's journaled placement
// fenced, Stop leaves every tablet checkpointed, and a secondary host has
// caught up before it serves its first read.

#include "src/server/node_host.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <string>
#include <vector>

#include "src/net/tcp.h"
#include "src/persist/durable_tablet.h"
#include "src/storage/storage_node.h"
#include "src/tablets/tablet_map.h"

namespace pileus::server {
namespace {

class NodeHostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/pileus_node_host_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    (void)::system(("rm -rf '" + dir_ + "'").c_str());
  }

  std::string dir_;
};

proto::PutRequest PutOf(const std::string& key) {
  proto::PutRequest put;
  put.table = "t";
  put.key = key;
  put.value = "v-" + key;
  return put;
}

proto::GetRequest GetOf(const std::string& key) {
  proto::GetRequest get;
  get.table = "t";
  get.key = key;
  return get;
}

tablets::TabletInfo Led(KeyRange range, uint64_t epoch) {
  tablets::TabletInfo tablet;
  tablet.range = std::move(range);
  tablet.config.epoch = epoch;
  tablet.config.primary = "alpha";
  tablet.config.members = {"alpha"};
  return tablet;
}

TEST_F(NodeHostTest, SplitAfterMapInstallRecoversTwoEntryFencedMap) {
  persist::DurableTablet::Options options;
  options.directory = dir_;
  options.tablet.is_primary = true;
  tablets::TabletMap split;
  {
    storage::StorageNode node("alpha", "local", RealClock::Instance());
    auto opened = RecoverTablets(&node, "t", options, RealClock::Instance());
    ASSERT_TRUE(opened.ok()) << opened.status();
    ASSERT_FALSE(node.InstalledTabletMap("t").has_value());
    tablets::TabletMap whole;
    whole.table = "t";
    whole.version = 1;
    whole.tablets = {Led(KeyRange::All(), 1)};
    ASSERT_TRUE(node.InstallTabletMap(whole));
    ASSERT_TRUE(node.SplitTablet("t", "m").ok());
    split.table = "t";
    split.version = 2;
    split.tablets = {Led(KeyRange{"", "m"}, 1), Led(KeyRange{"m", ""}, 2)};
    ASSERT_TRUE(node.InstallTabletMap(split));
    ASSERT_TRUE(std::holds_alternative<proto::PutReply>(
        node.Handle(PutOf("z"))));
  }

  storage::StorageNode node("alpha", "local", RealClock::Instance());
  auto opened = RecoverTablets(&node, "t", options, RealClock::Instance());
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened->size(), 2u);
  std::optional<tablets::TabletMap> recovered = node.InstalledTabletMap("t");
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->version, 2u);  // The highest journaled epoch.
  EXPECT_EQ(recovered->tablets, split.tablets);
  // Fenced on both halves until a map install re-leases it.
  for (const std::string key : {"a", "z"}) {
    const proto::Message reply = node.Handle(PutOf(key));
    const auto* err = std::get_if<proto::ErrorReply>(&reply);
    ASSERT_NE(err, nullptr) << key;
    EXPECT_EQ(err->code, StatusCode::kNotPrimary) << key;
  }
  ASSERT_TRUE(node.InstallTabletMap(split));
  EXPECT_TRUE(std::holds_alternative<proto::PutReply>(node.Handle(PutOf("a"))));
  const proto::Message z = node.Handle(GetOf("z"));
  ASSERT_TRUE(std::holds_alternative<proto::GetReply>(z));
  EXPECT_TRUE(std::get<proto::GetReply>(z).found);
}

TEST_F(NodeHostTest, StopCheckpointsEveryTablet) {
  const std::vector<std::string> keys = {"a", "f", "m", "q", "z"};
  {
    NodeHost::Options options;
    options.table = "t";
    options.data_dir = dir_;
    NodeHost host(options);
    ASSERT_TRUE(host.Start().ok());
    ASSERT_TRUE(host.node()->SplitTablet("t", "m").ok());
    for (const std::string& key : keys) {
      ASSERT_TRUE(std::holds_alternative<proto::PutReply>(
          host.node()->Handle(PutOf(key))));
    }
    ASSERT_TRUE(host.Stop().ok());
  }

  persist::DurableTablet::Options options;
  options.directory = dir_;
  auto reopened =
      persist::DurableTablet::OpenAll(options, RealClock::Instance());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_EQ(reopened->size(), 2u);
  uint64_t checkpointed = 0;
  for (const auto& tablet : *reopened) {
    EXPECT_EQ(tablet->recovery_info().wal_versions, 0u);
    checkpointed += tablet->recovery_info().checkpoint_versions;
  }
  EXPECT_EQ(checkpointed, keys.size());
  for (const std::string& key : keys) {
    bool found = false;
    for (const auto& tablet : *reopened) {
      found = found || tablet->HandleGet(key).found;
    }
    EXPECT_TRUE(found) << key;
  }
}

TEST_F(NodeHostTest, SecondaryCatchesUpBeforeServing) {
  NodeHost::Options options;
  options.table = "t";
  NodeHost primary(options);
  ASSERT_TRUE(primary.Start().ok());
  net::TcpChannel to_primary(primary.port());
  Result<proto::Message> put =
      to_primary.Call(PutOf("k"), SecondsToMicroseconds(10));
  ASSERT_TRUE(put.ok()) << put.status();
  ASSERT_TRUE(std::holds_alternative<proto::PutReply>(put.value()));

  // A pull period far past the test: only the catch-up pull can deliver.
  options.is_primary = false;
  options.primary_port = primary.port();
  options.pull_period_us = SecondsToMicroseconds(3600);
  NodeHost secondary(options);
  ASSERT_TRUE(secondary.Start().ok());
  net::TcpChannel to_secondary(secondary.port());
  Result<proto::Message> get =
      to_secondary.Call(GetOf("k"), SecondsToMicroseconds(10));
  ASSERT_TRUE(get.ok()) << get.status();
  const auto* reply = std::get_if<proto::GetReply>(&get.value());
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->found);
  EXPECT_EQ(reply->value, "v-k");
  EXPECT_FALSE(reply->served_by_primary);
  EXPECT_TRUE(secondary.Stop().ok());
  EXPECT_TRUE(primary.Stop().ok());
}

}  // namespace
}  // namespace pileus::server
