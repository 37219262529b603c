// Property tests: every consistency guarantee's defining invariant (paper
// Section 3.2) is checked against the values actually returned by the full
// system - client library, storage nodes, and replication running on the
// simulated geo test bed. The generated op streams are recorded and routed
// through the offline ConsistencyChecker (src/audit), which recomputes each
// session's floors independently of the client and verifies every claim
// against the primary's complete commit order.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/audit/checker.h"
#include "src/audit/history.h"
#include "src/common/random.h"
#include "src/core/sla.h"
#include "src/experiments/geo_testbed.h"
#include "src/experiments/runner.h"
#include "src/workload/ycsb.h"
#include "tests/numbered_key.h"
#include "tests/testbed_fixture.h"

namespace pileus::experiments {
namespace {

using core::Consistency;
using core::Guarantee;

class GuaranteeProperty
    : public ::testing::TestWithParam<Consistency> {};

TEST_P(GuaranteeProperty, HoldsOverRandomWorkload) {
  const Consistency consistency = GetParam();
  const Guarantee guarantee =
      consistency == Consistency::kBounded
          ? Guarantee::BoundedSeconds(30)
          : Guarantee{consistency, 0};

  GeoTestbed testbed(pileus::testbed::FastGeoOptions(
      100 + static_cast<int>(consistency), SecondsToMicroseconds(20)));
  pileus::testbed::PreloadAndReplicate(testbed, 200);

  audit::HistoryRecorder recorder;
  core::PileusClient::Options client_options;
  client_options.op_observer = &recorder;
  auto client = testbed.MakeClient(kIndia, client_options);
  client->StartProbing();

  workload::WorkloadOptions workload_options;
  workload_options.key_count = 200;
  workload_options.ops_per_session = 100;
  workload_options.seed = 17 + static_cast<int>(consistency);
  workload::YcsbWorkload workload(workload_options);

  const core::Sla sla = SingleConsistencySla(guarantee);
  std::optional<core::Session> session;
  // Mixes Deletes and small Range scans into the stream so the checker's
  // tombstone and one-timestamp-bounds-the-scan rules get exercised too.
  Random mix(911 + static_cast<uint64_t>(consistency));

  int gets = 0;
  for (int op_index = 0; op_index < 3000; ++op_index) {
    const workload::Operation op = workload.Next();
    if (op.starts_new_session || !session.has_value()) {
      session.emplace(
          std::move(client->client().BeginSession(sla)).value());
    }
    if (op.is_get) {
      if (mix.NextBool(0.03)) {
        Result<core::RangeResult> range =
            client->client().GetRange(*session, op.key, "", 5);
        ASSERT_TRUE(range.ok()) << range.status();
      } else {
        Result<core::GetResult> result =
            client->client().Get(*session, op.key);
        ASSERT_TRUE(result.ok()) << result.status();
        ++gets;
      }
    } else if (mix.NextBool(0.05)) {
      Result<core::PutResult> del =
          client->client().Delete(*session, op.key);
      ASSERT_TRUE(del.ok()) << del.status();
    } else {
      Result<core::PutResult> put =
          client->client().Put(*session, op.key, op.value);
      ASSERT_TRUE(put.ok()) << put.status();
    }
    testbed.env().RunFor(MillisecondsToMicroseconds(5));
  }
  EXPECT_GT(gets, 500);

  // The primary's update log is the ground truth: this single-client setup
  // has no writer the export could miss.
  bool contiguous = true;
  recorder.SetGroundTruth(
      testbed.primary_node()->ExportTableLog(kTableName, &contiguous),
      contiguous);
  ASSERT_TRUE(contiguous);

  const audit::AuditReport report =
      audit::ConsistencyChecker().Check(recorder.Snapshot());
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.reads_checked, 500u);
  EXPECT_GT(report.writes_checked, 500u);
  // Every read under a single-subSLA session claims that one guarantee
  // whenever it is met; the checker must have re-verified a healthy share.
  EXPECT_GT(report.claims_checked, 500u);
}

INSTANTIATE_TEST_SUITE_P(
    AllGuarantees, GuaranteeProperty,
    ::testing::Values(Consistency::kStrong, Consistency::kCausal,
                      Consistency::kBounded, Consistency::kReadMyWrites,
                      Consistency::kMonotonic, Consistency::kEventual),
    [](const ::testing::TestParamInfo<Consistency>& param_info) {
      return std::string(core::ConsistencyName(param_info.param)) ==
                     "read-my-writes"
                 ? "read_my_writes"
                 : std::string(core::ConsistencyName(param_info.param));
    });

// Session guarantees across configuration epochs (Section 6.2): the primary
// crashes mid-workload, the lease-based coordinator promotes the sync
// member, and every claim the client made - before, during, and after the
// epoch change - must still verify against the recomputed floors and the
// *new* primary's commit order. Writes are allowed to fail inside the
// unavailability window; everything that was acked must survive.
TEST(FailoverProperty, SessionGuaranteesHoldAcrossEpochs) {
  GeoTestbedOptions options =
      pileus::testbed::FastGeoOptions(321, SecondsToMicroseconds(20));
  options.sync_replica_count = 2;  // England primary + US sync member.
  options.enable_failover = true;
  GeoTestbed testbed(options);
  testbed.StartReconfiguration();

  audit::HistoryRecorder recorder;
  core::PileusClient::Options client_options;
  client_options.op_observer = &recorder;
  // Tight write deadlines with retries: failed attempts burn virtual time,
  // which is exactly when the coordinator's heartbeats detect the crash.
  client_options.put_timeout_us = SecondsToMicroseconds(1);
  client_options.put_max_attempts = 5;
  client_options.monitor.probe_interval_us = SecondsToMicroseconds(1);
  auto client = testbed.MakeClient(kUs, client_options);

  // Preload through the client, not PreloadKeys: the sync fan-out is what
  // lands the baseline on the sync member, and the promoted primary's log
  // must contain these versions for the post-failover ground truth.
  {
    core::Session preload =
        client->client().BeginSession(core::ShoppingCartSla()).value();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(client->client()
                      .Put(preload, workload::YcsbWorkload::KeyForIndex(i),
                           "preload")
                      .ok());
    }
  }
  testbed.StartReplication();
  client->StartProbing();

  workload::WorkloadOptions workload_options;
  workload_options.key_count = 200;
  workload_options.ops_per_session = 80;
  workload_options.seed = 29;
  workload::YcsbWorkload workload(workload_options);

  const core::Sla sla = core::ShoppingCartSla();  // Read-my-writes first.
  std::optional<core::Session> session;
  int failed_writes = 0;
  for (int op_index = 0; op_index < 2000; ++op_index) {
    if (op_index == 700) {
      testbed.CrashNode(testbed.primary_site());
    }
    const workload::Operation op = workload.Next();
    if (op.starts_new_session || !session.has_value()) {
      session.emplace(std::move(client->client().BeginSession(sla)).value());
    }
    if (op.is_get) {
      Result<core::GetResult> result = client->client().Get(*session, op.key);
      ASSERT_TRUE(result.ok()) << op_index << ": " << result.status();
    } else if (!client->client().Put(*session, op.key, op.value).ok()) {
      ++failed_writes;  // Tolerated only inside the unavailability window.
    }
    testbed.env().RunFor(MillisecondsToMicroseconds(5));
  }

  // The coordinator must have promoted the sync member.
  EXPECT_GE(testbed.failovers(), 1u);
  EXPECT_GE(testbed.current_config().epoch, 2u);
  EXPECT_NE(testbed.primary_site(), kEngland);
  // The window is bounded: a handful of Puts at most, not the whole tail.
  EXPECT_LT(failed_writes, 20);

  // Ground truth comes from the *promoted* primary: its log must contain
  // every acked write of both epochs, in a continuous commit order.
  bool contiguous = true;
  recorder.SetGroundTruth(
      testbed.primary_node()->ExportTableLog(kTableName, &contiguous),
      contiguous);
  ASSERT_TRUE(contiguous);

  const audit::AuditReport report =
      audit::ConsistencyChecker().Check(recorder.Snapshot());
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.reads_checked, 500u);
  EXPECT_GT(report.writes_checked, 500u);
  EXPECT_GT(report.claims_checked, 500u);
}

// The prefix-consistency property (Section 4.2): any node's store is always
// a prefix of the primary's update sequence. Checked by sampling secondaries
// mid-replication.
TEST(PrefixConsistencyProperty, SecondariesAlwaysHoldAPrefix) {
  GeoTestbedOptions options;
  options.seed = 33;
  options.replication_period_us = SecondsToMicroseconds(5);
  GeoTestbed testbed(options);
  testbed.StartReplication();

  auto* primary = testbed.node(kEngland)->FindTablet(kTableName, "");
  std::vector<std::pair<std::string, Timestamp>> put_order;
  Random rng(1);

  for (int round = 0; round < 50; ++round) {
    // A burst of writes...
    for (int i = 0; i < 20; ++i) {
      const std::string key =
          NumberedKey("k", static_cast<int64_t>(rng.NextUint64(30)));
      auto reply = primary->HandlePut(key, NumberedKey("v", round));
      ASSERT_TRUE(reply.ok());
      put_order.emplace_back(key, reply->timestamp);
    }
    // ...then time passes (replication fires at some rounds).
    testbed.env().RunFor(SecondsToMicroseconds(2));

    for (const char* site : {kUs, kIndia}) {
      auto* secondary = testbed.node(site)->FindTablet(kTableName, "");
      const Timestamp high = secondary->high_timestamp();
      // Prefix property: every key whose latest-put-at-or-below-high exists
      // must be present with exactly that version or newer-but-<=high.
      std::map<std::string, Timestamp> expected;
      for (const auto& [key, ts] : put_order) {
        if (ts <= high) {
          expected[key] = MaxTimestamp(expected[key], ts);
        }
      }
      for (const auto& [key, ts] : expected) {
        const auto reply = secondary->HandleGet(key);
        ASSERT_TRUE(reply.found) << site << " missing " << key;
        EXPECT_GE(reply.value_timestamp, ts)
            << site << " violates prefix consistency for " << key;
        EXPECT_LE(reply.value_timestamp, high);
      }
    }
  }
}

}  // namespace
}  // namespace pileus::experiments
