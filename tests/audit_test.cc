// Acceptance tests for the consistency-audit harness (DESIGN.md "Consistency
// auditing"): seeded scenario runs come back clean, the offline checker's
// verdicts agree with the client's claimed subSLA telemetry (the PR-2
// TraceEvent stream), and sessions keep their audit identity across
// serialized hand-off between frontends.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/audit/checker.h"
#include "src/audit/history.h"
#include "src/core/client.h"
#include "src/core/sla.h"
#include "src/experiments/geo_testbed.h"
#include "src/experiments/runner.h"
#include "src/experiments/scenario.h"
#include "src/telemetry/trace.h"
#include "src/workload/ycsb.h"
#include "tests/scoped_temp_dir.h"
#include "tests/testbed_fixture.h"

namespace pileus::experiments {

// Prints a DeploymentScenarioTest parameter as "<deployment>/<scenario>".
// Without it gtest prints the options' raw bytes, which hold a string's
// pointer, so two listings of one binary could name a case differently.
void PrintTo(const ScenarioOptions& options, std::ostream* os) {
  constexpr const char* kDeploymentNames[] = {"sim", "tcp"};
  *os << kDeploymentNames[static_cast<int>(options.deployment)] << "/"
      << FaultScenarioName(options.scenario);
}

namespace {

constexpr std::string_view kTempPrefix = "pileus_audit_test.";

TEST(FaultScenarioTest, NamesRoundTrip) {
  for (const FaultScenario scenario : AllFaultScenarios()) {
    const std::optional<FaultScenario> parsed =
        ParseFaultScenario(FaultScenarioName(scenario));
    ASSERT_TRUE(parsed.has_value()) << FaultScenarioName(scenario);
    EXPECT_EQ(*parsed, scenario);
  }
  EXPECT_FALSE(ParseFaultScenario("no-such-scenario").has_value());
}

TEST(AuditScenarioTest, CleanRunsAcrossSeedsAndScenarios) {
  for (const FaultScenario scenario :
       {FaultScenario::kNone, FaultScenario::kPartition,
        FaultScenario::kDrops, FaultScenario::kHandoff}) {
    for (const uint64_t seed : {1u, 2u}) {
      ScenarioOptions options;
      options.seed = seed;
      options.scenario = scenario;
      options.total_ops = 300;
      options.key_count = 50;
      const ScopedTempDir dir(kTempPrefix);
      options.durable_root = dir.path();
      const ScenarioResult result = RunAuditScenario(options);
      EXPECT_TRUE(result.ok())
          << result.Summary() << "\n" << result.report.ToString();
      EXPECT_EQ(result.ops_attempted, 300u) << result.Summary();
      EXPECT_GT(result.sessions, 1u) << result.Summary();
      EXPECT_GT(result.report.reads_checked, 0u) << result.Summary();
      EXPECT_GT(result.report.claims_checked, 0u) << result.Summary();
      if (scenario == FaultScenario::kHandoff) {
        EXPECT_GT(result.handoffs, 0u) << result.Summary();
      }
    }
  }
}

TEST(AuditScenarioTest, CrashRestartRecoversFromWalAndStaysClean) {
  ScenarioOptions options;
  options.seed = 5;
  options.scenario = FaultScenario::kCrashRestart;
  options.total_ops = 400;
  const ScopedTempDir dir(kTempPrefix);
  options.durable_root = dir.path();
  const ScenarioResult result = RunAuditScenario(options);
  EXPECT_TRUE(result.ok())
      << result.Summary() << "\n" << result.report.ToString();
  // The crashed secondary makes some ops fail or reroute, but the run must
  // still produce a substantial audited history.
  EXPECT_GT(result.report.reads_checked, 50u) << result.Summary();
  EXPECT_GT(result.report.writes_checked, 50u) << result.Summary();
}

TEST(AuditScenarioTest, FailoverSweepPromotesAndStaysClean) {
  for (const uint64_t seed : {3u, 11u}) {
    ScenarioOptions options;
    options.seed = seed;
    options.scenario = FaultScenario::kFailover;
    options.total_ops = 400;
    options.key_count = 50;
    const ScopedTempDir dir(kTempPrefix);
    options.durable_root = dir.path();
    const ScenarioResult result = RunAuditScenario(options);
    EXPECT_TRUE(result.ok())
        << result.Summary() << "\n" << result.report.ToString();
    // The schedule crashes the primary mid-run, so the lease-based
    // coordinator must have promoted at least once...
    EXPECT_GE(result.failovers, 1u) << result.Summary();
    // ...and the audited history (including the commit-order continuity
    // check across the epochs) must stay spotless.
    EXPECT_GT(result.report.reads_checked, 50u) << result.Summary();
    EXPECT_GT(result.report.writes_checked, 50u) << result.Summary();
  }
}

TEST(AuditScenarioTest, SameSeedIsReproducible) {
  // On the simulator; TCP runs on wall-clock time.
  ScenarioOptions options;
  options.seed = 9;
  options.scenario = FaultScenario::kPartition;
  options.total_ops = 200;
  const ScopedTempDir first_dir(kTempPrefix);
  const ScopedTempDir second_dir(kTempPrefix);
  options.durable_root = first_dir.path();
  const ScenarioResult first = RunAuditScenario(options);
  options.durable_root = second_dir.path();
  const ScenarioResult second = RunAuditScenario(options);
  ASSERT_TRUE(first.setup.ok()) << first.Summary();
  EXPECT_EQ(first.Summary(), second.Summary());
  ASSERT_EQ(first.history.ops.size(), second.history.ops.size());
  // Session ids come from a process-global counter, so two runs in one
  // process assign different raw ids; compare them up to renumbering by
  // first appearance.
  std::map<uint64_t, uint64_t> renumber_first;
  std::map<uint64_t, uint64_t> renumber_second;
  const auto canonical = [](const core::OpRecord& op,
                            std::map<uint64_t, uint64_t>& renumber) {
    core::OpRecord copy = op;
    copy.session_id =
        renumber.emplace(op.session_id, renumber.size() + 1).first->second;
    return audit::DescribeOp(copy);
  };
  for (size_t i = 0; i < first.history.ops.size(); ++i) {
    EXPECT_EQ(canonical(first.history.ops[i], renumber_first),
              canonical(second.history.ops[i], renumber_second))
        << first.Summary() << " op #" << i;
  }
}

TEST(AuditScenarioTest, SummaryCitesTheSeedOnFailure) {
  // A summary for a failing report must contain the repro handle. Forge a
  // failing result rather than hunting for a real violation.
  ScenarioResult result;
  result.options.seed = 42;
  result.options.scenario = FaultScenario::kGray;
  result.report.violations.push_back(audit::Violation{
      audit::ViolationType::kStaleStrongRead, 0, audit::kNoRelatedOp, "x"});
  const std::string summary = result.Summary();
  EXPECT_NE(summary.find("FAIL"), std::string::npos) << summary;
  EXPECT_NE(summary.find("--seed 42"), std::string::npos) << summary;
  EXPECT_NE(summary.find("gray"), std::string::npos) << summary;
}

constexpr DeploymentKind kDeployments[] = {DeploymentKind::kSim,
                                           DeploymentKind::kTcp};

TEST(AuditScenarioTest, InvalidSlaOrUnsupportedOptionsFailSetup) {
  // An invalid SLA on every deployment, then a combination a deployment
  // cannot express. Each must fail setup and run nothing.
  std::vector<ScenarioOptions> bad(3);
  for (size_t i = 0; i < 2; ++i) {
    bad[i].deployment = kDeployments[i];
    bad[i].sla = core::Sla();  // No subSLAs: BeginSession rejects it.
  }
  bad[2].deployment = DeploymentKind::kTcp;
  bad[2].scenario = FaultScenario::kPartition;
  for (size_t i = 0; i < bad.size(); ++i) {
    const ScopedTempDir dir(kTempPrefix);
    bad[i].durable_root = dir.path();
    EXPECT_EQ(Supports(bad[i]).ok(), i < 2) << i;
    const ScenarioResult result = RunAuditScenario(bad[i]);
    EXPECT_FALSE(result.setup.ok()) << result.Summary();
    EXPECT_EQ(result.ops_attempted, 0u) << result.Summary();
    EXPECT_NE(result.Summary().find("FAIL"), std::string::npos);
    EXPECT_NE(result.Summary().find("setup failed"), std::string::npos);
  }
}

// Every deployment x every scenario it supports, at small op counts.
std::vector<ScenarioOptions> SupportedCases() {
  std::vector<ScenarioOptions> cases;
  for (const DeploymentKind deployment : kDeployments) {
    for (const FaultScenario scenario : AllFaultScenarios()) {
      ScenarioOptions options;
      options.deployment = deployment;
      options.scenario = scenario;
      if (Supports(options).ok()) {
        cases.push_back(options);
      }
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<ScenarioOptions>& info) {
  std::string name = ::testing::PrintToString(info.param);
  std::replace(name.begin(), name.end(), '/', '_');
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

class DeploymentScenarioTest
    : public ::testing::TestWithParam<ScenarioOptions> {};

TEST_P(DeploymentScenarioTest, AuditsClean) {
  ScenarioOptions options = GetParam();
  options.seed = 7;
  options.total_ops = 200;
  options.key_count = 40;
  const ScopedTempDir dir(kTempPrefix);
  options.durable_root = dir.path();
  const ScenarioResult result = RunAuditScenario(options);
  // TCP runs on wall-clock time, so only the verdict is stable there.
  EXPECT_TRUE(result.ok())
      << result.Summary() << "\n" << result.report.ToString();
  if (options.deployment == DeploymentKind::kTcp) {
    return;
  }
  EXPECT_EQ(result.ops_attempted, 200u) << result.Summary();
  EXPECT_GT(result.acked_writes, 0u) << result.Summary();
  EXPECT_GT(result.report.claims_checked, 0u) << result.Summary();
}

INSTANTIATE_TEST_SUITE_P(AllSupported, DeploymentScenarioTest,
                         ::testing::ValuesIn(SupportedCases()), CaseName);

// The checker's input (OpRecord claims) and the PR-2 telemetry stream
// (TraceEvent met_rank/consistency) are emitted by the same client code path;
// this acceptance test pins them together so neither can drift silently, and
// then has the checker re-verify every claim it just cross-validated.
TEST(AuditTelemetryTest, CheckerInputMatchesClaimedSubSlaTelemetry) {
  GeoTestbed testbed(pileus::testbed::FastGeoOptions(11));
  pileus::testbed::PreloadAndReplicate(testbed, 50);

  telemetry::TraceBuffer trace;
  audit::HistoryRecorder recorder;
  core::PileusClient::Options options;
  options.trace_sink = &trace;
  options.op_observer = &recorder;
  auto client = testbed.MakeClient(kUs, options);
  client->StartProbing();
  testbed.env().RunFor(SecondsToMicroseconds(2));

  core::Session session =
      client->client().BeginSession(core::ShoppingCartSla()).value();
  for (int i = 0; i < 200; ++i) {
    const std::string key = workload::YcsbWorkload::KeyForIndex(i % 50);
    if (i % 3 == 0) {
      ASSERT_TRUE(client->client().Put(session, key, "v").ok());
    } else {
      ASSERT_TRUE(client->client().Get(session, key).ok());
    }
    testbed.env().RunFor(MillisecondsToMicroseconds(5));
  }

  // Pair the Get traces with the Get records, in emission order.
  std::vector<telemetry::TraceEvent> get_events;
  for (const telemetry::TraceEvent& event : trace.Snapshot()) {
    if (event.op == telemetry::TraceOp::kGet) {
      get_events.push_back(event);
    }
  }
  std::vector<core::OpRecord> get_records;
  for (const core::OpRecord& record : recorder.Snapshot().ops) {
    if (record.op == core::AuditOp::kGet) {
      get_records.push_back(record);
    }
  }
  ASSERT_EQ(get_events.size(), get_records.size());
  ASSERT_GT(get_events.size(), 100u);
  int met_claims = 0;
  for (size_t i = 0; i < get_events.size(); ++i) {
    const telemetry::TraceEvent& event = get_events[i];
    const core::OpRecord& record = get_records[i];
    EXPECT_EQ(event.key, record.key) << "op " << i;
    EXPECT_EQ(event.node, record.node) << "op " << i;
    EXPECT_EQ(event.met_rank, record.claimed_met_rank) << "op " << i;
    EXPECT_EQ(event.from_primary, record.from_primary) << "op " << i;
    EXPECT_EQ(event.read_timestamp, record.high_timestamp) << "op " << i;
    if (record.claimed_met_rank >= 0) {
      ++met_claims;
      EXPECT_EQ(event.consistency, record.claimed_guarantee.ToString())
          << "op " << i;
    }
  }
  EXPECT_GT(met_claims, 100);

  // And the claims both streams agree on must actually be true.
  bool contiguous = true;
  recorder.SetGroundTruth(
      testbed.primary_node()->ExportTableLog(kTableName, &contiguous),
      contiguous);
  const audit::AuditReport report =
      audit::ConsistencyChecker().Check(recorder.Snapshot());
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.claims_checked, 100u);
}

TEST(AuditHandoffTest, SerializedHandoffKeepsOneSessionIdentity) {
  GeoTestbed testbed(pileus::testbed::FastGeoOptions(12));
  pileus::testbed::PreloadAndReplicate(testbed, 20);

  audit::HistoryRecorder recorder;
  core::PileusClient::Options options;
  options.op_observer = &recorder;
  auto us = testbed.MakeClient(kUs, options);
  auto india = testbed.MakeClient(kIndia, options);
  testbed.env().RunFor(SecondsToMicroseconds(2));

  core::Session session =
      us->client().BeginSession(AuditSla()).value();
  ASSERT_TRUE(us->client().Put(session, "h", "before").ok());
  ASSERT_TRUE(us->client().Get(session, "h").ok());

  // Move the session to the other frontend, as scenario kHandoff does.
  Result<core::Session> resumed =
      core::Session::Deserialize(session.Serialize());
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE(india->client().Put(*resumed, "h", "after").ok());
  ASSERT_TRUE(india->client().Get(*resumed, "h").ok());

  const audit::History history = recorder.Snapshot();
  ASSERT_EQ(history.ops.size(), 4u);
  for (const core::OpRecord& record : history.ops) {
    EXPECT_EQ(record.session_id, history.ops[0].session_id)
        << audit::DescribeOp(record);
  }
  // The moved session still carries read-my-writes state: the checker must
  // see one continuous session, not two.
  bool contiguous = true;
  recorder.SetGroundTruth(
      testbed.primary_node()->ExportTableLog(kTableName, &contiguous),
      contiguous);
  const audit::AuditReport report =
      audit::ConsistencyChecker().Check(recorder.Snapshot());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace pileus::experiments
