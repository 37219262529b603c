// Shared test harnesses: the fast simulated GeoTestbed configuration used by
// the integration tests, and the two-node real-transport InProcCluster from
// the end-to-end tests. Header-only so each test binary only pulls in (and
// links against) what it actually uses.

#ifndef PILEUS_TESTS_TESTBED_FIXTURE_H_
#define PILEUS_TESTS_TESTBED_FIXTURE_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "src/core/client.h"
#include "src/experiments/geo_testbed.h"
#include "src/experiments/runner.h"
#include "src/net/inproc.h"
#include "src/replication/replication_agent.h"
#include "src/storage/storage_node.h"

namespace pileus::testbed {

// The Figure-10 testbed, sped up for tests: deterministic seed and 10 s
// replication pulls instead of the paper's one minute.
inline experiments::GeoTestbedOptions FastGeoOptions(
    uint64_t seed = 7,
    MicrosecondCount replication_period_us = SecondsToMicroseconds(10)) {
  experiments::GeoTestbedOptions options;
  options.seed = seed;
  options.replication_period_us = replication_period_us;
  return options;
}

// The usual run-up: populate the store and start the replication pulls.
inline void PreloadAndReplicate(experiments::GeoTestbed& testbed,
                                int key_count) {
  experiments::PreloadKeys(testbed, key_count);
  testbed.StartReplication();
}

// A two-node deployment over the real in-process transport (threads and
// wall-clock time): "England" primary (20 ms away) and a "Local" secondary
// (1 ms away), replicating every 50 ms. The primary hosts `primary_tablet`
// (e.g. a durable one) when given, an in-memory primary tablet otherwise.
class InProcCluster {
 public:
  explicit InProcCluster(
      std::shared_ptr<storage::Tablet> primary_tablet = nullptr)
      : primary_("England", "England", RealClock::Instance()),
        local_("Local", "Local", RealClock::Instance()) {
    if (primary_tablet == nullptr) {
      storage::Tablet::Options primary_options;
      primary_options.is_primary = true;
      primary_tablet = std::make_shared<storage::Tablet>(
          primary_options, RealClock::Instance());
    }
    EXPECT_TRUE(primary_.AddTablet("t", std::move(primary_tablet)).ok());
    EXPECT_TRUE(local_.AddTablet("t", storage::Tablet::Options{}).ok());

    network_.RegisterEndpoint("England", [this](const proto::Message& m) {
      return primary_.Handle(m);
    });
    network_.RegisterEndpoint("Local", [this](const proto::Message& m) {
      return local_.Handle(m);
    });

    // The replication agent pulls over its own channel to the primary.
    agent_ = std::make_unique<replication::ReplicationAgent>(
        &local_, replication::ReplicationAgent::Options{.table = "t"});
    auto sync_channel = std::shared_ptr<net::Channel>(
        network_.Connect("England", 10 * kMicrosecondsPerMillisecond));
    puller_ = std::make_unique<replication::ThreadedPuller>(
        agent_.get(),
        [sync_channel](const proto::SyncRequest& request) {
          return replication::ToSyncReply(
              sync_channel->Call(request, SecondsToMicroseconds(5)));
        },
        50 * kMicrosecondsPerMillisecond);
  }

  std::unique_ptr<core::PileusClient> MakeClient(
      core::PileusClient::Options options) {
    core::TableView view;
    view.table_name = "t";
    view.replicas = {
        core::Replica{"England", true,
                      std::make_shared<core::ChannelConnection>(
                          network_.Connect("England",
                                           10 * kMicrosecondsPerMillisecond),
                          RealClock::Instance())},
        core::Replica{"Local", false,
                      std::make_shared<core::ChannelConnection>(
                          network_.Connect("Local", 500),
                          RealClock::Instance())}};
    view.primary_index = 0;
    return std::make_unique<core::PileusClient>(std::move(view),
                                                RealClock::Instance(), options,
                                                nullptr);
  }

  void PullNow() { puller_->PullNow(); }
  storage::StorageNode& local() { return local_; }
  storage::StorageNode& primary() { return primary_; }
  net::InProcNetwork& network() { return network_; }

  // Turns on per-tenant admission control on both nodes (DESIGN.md
  // Section 11) so overload tests shed through the real controller.
  void EnableAdmission(const storage::AdmissionOptions& options) {
    primary_.EnableAdmission(options);
    local_.EnableAdmission(options);
  }

 private:
  storage::StorageNode primary_;
  storage::StorageNode local_;
  net::InProcNetwork network_;
  std::unique_ptr<replication::ReplicationAgent> agent_;
  std::unique_ptr<replication::ThreadedPuller> puller_;
};

}  // namespace pileus::testbed

#endif  // PILEUS_TESTS_TESTBED_FIXTURE_H_
