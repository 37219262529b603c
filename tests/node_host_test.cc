// The node host: recovery refuses a journaled placement it cannot
// re-install, Stop leaves the tablet checkpointed, and a secondary host has
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

// A data root holds one tablet for the whole table, so a journaled
// placement covering part of the key space cannot be re-installed: recovery
// fails loudly instead of serving under the caller's role.
TEST_F(NodeHostTest, PartialJournaledPlacementFailsRecovery) {
  persist::DurableTablet::Options options;
  options.directory = dir_;
  options.tablet.is_primary = true;
  {
    persist::DurableTablet::Options partial = options;
    partial.tablet.range = KeyRange{"", "m"};
    auto opened =
        persist::DurableTablet::Open(partial, RealClock::Instance());
    ASSERT_TRUE(opened.ok()) << opened.status();
    ASSERT_TRUE((*opened)->tablet().HandlePut("a", "v").ok());
    ASSERT_TRUE((*opened)
                    ->tablet()
                    .journal()
                    ->RecordConfig(Led(KeyRange{"", "m"}, 1).config)
                    .ok());
    // The checkpoint records the tablet's range; the log keeps the config.
    ASSERT_TRUE((*opened)->Checkpoint().ok());
  }

  storage::StorageNode node("alpha", "local", RealClock::Instance());
  auto recovered = RecoverTablets(&node, "t", options, RealClock::Instance());
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption)
      << recovered.status();
  EXPECT_FALSE(node.InstalledTabletMap("t").has_value());
}

TEST_F(NodeHostTest, StopCheckpointsEveryTablet) {
  const std::vector<std::string> keys = {"a", "f", "m", "q", "z"};
  {
    NodeHost::Options options;
    options.table = "t";
    options.data_dir = dir_;
    NodeHost host(options);
    ASSERT_TRUE(host.Start().ok());
    for (const std::string& key : keys) {
      ASSERT_TRUE(std::holds_alternative<proto::PutReply>(
          host.node()->Handle(PutOf(key))));
    }
    ASSERT_TRUE(host.Stop().ok());
  }

  persist::DurableTablet::Options options;
  options.directory = dir_;
  auto reopened = persist::DurableTablet::Open(options, RealClock::Instance());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->recovery_info().wal_versions, 0u);
  EXPECT_EQ((*reopened)->recovery_info().checkpoint_versions, keys.size());
  for (const std::string& key : keys) {
    EXPECT_TRUE((*reopened)->HandleGet(key).found) << key;
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
