// Overload control (DESIGN.md Section 11): per-tenant admission with
// utility-weighted shedding, the client's retry budget, overload evidence in
// the monitor, the fault injector's overload mode, and end-to-end
// multi-tenant isolation over the real in-process transport, with an
// in-memory and with a durable primary.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/core/client.h"
#include "src/core/monitor.h"
#include "src/core/retry_budget.h"
#include "src/core/sla.h"
#include "src/persist/durable_tablet.h"
#include "src/sim/fault_injector.h"
#include "src/storage/admission.h"
#include "tests/numbered_key.h"
#include "tests/testbed_fixture.h"

namespace pileus {
namespace {

using storage::AdmissionController;
using storage::AdmissionOptions;
using storage::AdmitClass;
using storage::AdmitDecision;

AdmissionOptions SmallBucket() {
  AdmissionOptions options;
  options.tenant_ops_per_sec = 10;
  options.tenant_burst_ops = 4;
  options.tenant_max_queue_ops = 20;
  return options;
}

// Drains the burst and drives the bucket to `backlog` ops of debt using
// writes (which shed only at a full queue).
void DriveBacklog(AdmissionController& controller, const std::string& tenant,
                  double backlog, MicrosecondCount now_us) {
  const int ops = static_cast<int>(
      controller.options().tenant_burst_ops + backlog);
  for (int i = 0; i < ops; ++i) {
    const AdmitDecision decision =
        controller.Admit(tenant, AdmitClass::kWrite, 1.0, 0, now_us);
    ASSERT_TRUE(decision.admitted) << "write " << i << " shed early";
  }
}

TEST(AdmissionControllerTest, BurstAdmitsAtZeroDelayThenQueues) {
  AdmissionController controller(SmallBucket());
  const MicrosecondCount now = 1'000'000;
  for (int i = 0; i < 4; ++i) {
    const AdmitDecision decision =
        controller.Admit("t", AdmitClass::kRead, 1.0, 0, now);
    EXPECT_TRUE(decision.admitted);
    EXPECT_EQ(decision.queue_delay_us, 0) << "burst op " << i;
  }
  // The burst is gone: further admissions run a backlog, and the reported
  // queue delay is backlog / rate.
  const AdmitDecision queued =
      controller.Admit("t", AdmitClass::kRead, 1.0, 0, now);
  EXPECT_TRUE(queued.admitted);
  EXPECT_EQ(queued.queue_delay_us, 100'000);  // 1 op / (10 ops/s) = 100 ms.
}

TEST(AdmissionControllerTest, TokensRefillWithTime) {
  AdmissionController controller(SmallBucket());
  MicrosecondCount now = 1'000'000;
  DriveBacklog(controller, "t", 5, now);
  EXPECT_GT(controller.CurrentQueueDelay("t", now), 0);
  // 5 ops of debt at 10 ops/s drain in 500 ms.
  now += 600'000;
  EXPECT_EQ(controller.CurrentQueueDelay("t", now), 0);
}

TEST(AdmissionControllerTest, UtilityWeightedSheddingOrder) {
  AdmissionController controller(SmallBucket());
  const MicrosecondCount now = 1'000'000;
  // Pressure 0.6: past the u=0.1 read threshold (0.54), below the u=1.0
  // one (0.9).
  DriveBacklog(controller, "t", 12, now);

  const AdmitDecision low =
      controller.Admit("t", AdmitClass::kRead, 0.1, 0, now);
  EXPECT_FALSE(low.admitted);
  EXPECT_GT(low.retry_after_ms, 0u);
  EXPECT_FALSE(low.deadline_exceeded);

  const AdmitDecision high =
      controller.Admit("t", AdmitClass::kRead, 1.0, 0, now);
  EXPECT_TRUE(high.admitted);

  const AdmitDecision strong =
      controller.Admit("t", AdmitClass::kStrongRead, 1.0, 0, now);
  EXPECT_TRUE(strong.admitted);

  const AdmitDecision write =
      controller.Admit("t", AdmitClass::kWrite, 1.0, 0, now);
  EXPECT_TRUE(write.admitted);

  const AdmissionController::Counters counters = controller.counters();
  EXPECT_EQ(counters.shed_reads, 1u);
  EXPECT_EQ(counters.shed_strong_reads, 0u);
  EXPECT_EQ(counters.shed_writes, 0u);
}

TEST(AdmissionControllerTest, StrongReadsShedOnlyNearFull) {
  AdmissionController controller(SmallBucket());
  const MicrosecondCount now = 1'000'000;
  // Pressure ~0.95: above kShedStrongReadsAt (0.9).
  DriveBacklog(controller, "t", 19, now);
  const AdmitDecision strong =
      controller.Admit("t", AdmitClass::kStrongRead, 1.0, 0, now);
  EXPECT_FALSE(strong.admitted);
  EXPECT_GT(strong.retry_after_ms, 0u);
  EXPECT_EQ(controller.counters().shed_strong_reads, 1u);
}

TEST(AdmissionControllerTest, WritesShedOnlyAtFullQueue) {
  AdmissionController controller(SmallBucket());
  const MicrosecondCount now = 1'000'000;
  DriveBacklog(controller, "t", 20, now);  // Queue full.
  const AdmitDecision write =
      controller.Admit("t", AdmitClass::kWrite, 1.0, 0, now);
  EXPECT_FALSE(write.admitted);
  EXPECT_GT(write.retry_after_ms, 0u);
  EXPECT_EQ(controller.counters().shed_writes, 1u);
}

TEST(AdmissionControllerTest, DeadlineTighterThanQueueDelayRejected) {
  AdmissionController controller(SmallBucket());
  const MicrosecondCount now = 1'000'000;
  DriveBacklog(controller, "t", 10, now);  // Queue delay: 1 s.
  // A 100 ms deadline cannot survive a 1 s queue: serving it would waste
  // capacity on a reply the client must discard.
  const AdmitDecision decision =
      controller.Admit("t", AdmitClass::kWrite, 1.0, 100'000, now);
  EXPECT_FALSE(decision.admitted);
  EXPECT_TRUE(decision.deadline_exceeded);
  EXPECT_EQ(controller.counters().deadline_rejected, 1u);
  // A roomy deadline sails through.
  const AdmitDecision roomy =
      controller.Admit("t", AdmitClass::kWrite, 1.0, 5'000'000, now);
  EXPECT_TRUE(roomy.admitted);
}

TEST(AdmissionControllerTest, TenantsAreIsolated) {
  AdmissionController controller(SmallBucket());
  const MicrosecondCount now = 1'000'000;
  DriveBacklog(controller, "hot", 20, now);
  EXPECT_FALSE(
      controller.Admit("hot", AdmitClass::kRead, 0.1, 0, now).admitted);
  // The quiet tenant's bucket is untouched: full burst, zero delay.
  const AdmitDecision quiet =
      controller.Admit("quiet", AdmitClass::kRead, 0.1, 0, now);
  EXPECT_TRUE(quiet.admitted);
  EXPECT_EQ(quiet.queue_delay_us, 0);
  EXPECT_EQ(controller.Tenants(), (std::vector<std::string>{"hot", "quiet"}));
}

TEST(AdmissionControllerTest, DisabledAdmitsEverything) {
  AdmissionOptions options;  // tenant_ops_per_sec = 0: disabled.
  AdmissionController controller(options);
  for (int i = 0; i < 1000; ++i) {
    const AdmitDecision decision =
        controller.Admit("t", AdmitClass::kRead, 0.0, 1, 0);
    EXPECT_TRUE(decision.admitted);
    EXPECT_EQ(decision.queue_delay_us, 0);
  }
}

TEST(RetryBudgetTest, BoundsRetriesAndRefillsOnSuccess) {
  // A fresh budget holds kCapacity (10) retries.
  core::RetryBudget budget;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(budget.TryAcquire());
  }
  // Empty: the retry storm is capped.
  EXPECT_FALSE(budget.TryAcquire());
  EXPECT_EQ(budget.denied(), 1u);
  // Each success earns kRefillPerSuccess (0.1) of a token back: five are
  // not enough for a retry, eleven are (ten sum to just under 1.0 in
  // binary floating point).
  for (int i = 0; i < 5; ++i) {
    budget.RecordSuccess();
  }
  EXPECT_NEAR(budget.tokens(), 5 * core::RetryBudget::kRefillPerSuccess, 1e-9);
  EXPECT_FALSE(budget.TryAcquire());
  for (int i = 0; i < 6; ++i) {
    budget.RecordSuccess();
  }
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_EQ(budget.denied(), 2u);
}

TEST(RetryBudgetTest, RefillCapsAtCapacity) {
  core::RetryBudget budget;
  ASSERT_TRUE(budget.TryAcquire());
  ASSERT_TRUE(budget.TryAcquire());
  for (int i = 0; i < 100; ++i) {
    budget.RecordSuccess();
  }
  EXPECT_DOUBLE_EQ(budget.tokens(), core::RetryBudget::kCapacity);
}

TEST(MonitorOverloadTest, OverloadWindowAndPenalty) {
  ManualClock clock;
  clock.AdvanceMicros(1'000'000);
  core::Monitor monitor(&clock);
  constexpr double kPenalty = core::Monitor::kOverloadPenalty;

  EXPECT_FALSE(monitor.IsOverloaded("n"));
  EXPECT_DOUBLE_EQ(monitor.POverload("n", 0.1), 1.0);

  monitor.RecordOverload("n", 200'000);
  EXPECT_TRUE(monitor.IsOverloaded("n"));
  // Low-utility ranks are discounted hardest; utility 1.0 keeps full score.
  EXPECT_NEAR(monitor.POverload("n", 0.0), kPenalty, 1e-9);
  EXPECT_NEAR(monitor.POverload("n", 0.5), kPenalty + (1 - kPenalty) * 0.5,
              1e-9);
  EXPECT_NEAR(monitor.POverload("n", 1.0), 1.0, 1e-9);
  EXPECT_EQ(monitor.overload_rejections(), 1u);

  // The window expires: the node is forgiven.
  clock.AdvanceMicros(250'000);
  EXPECT_FALSE(monitor.IsOverloaded("n"));
  EXPECT_DOUBLE_EQ(monitor.POverload("n", 0.1), 1.0);
}

TEST(MonitorOverloadTest, QueueDelayEwma) {
  ManualClock clock;
  core::Monitor monitor(&clock);
  EXPECT_EQ(monitor.QueueDelayUs("n"), 0);
  monitor.RecordQueueDelay("n", 100'000);
  const MicrosecondCount first = monitor.QueueDelayUs("n");
  EXPECT_GT(first, 0);
  monitor.RecordQueueDelay("n", 0);
  EXPECT_LT(monitor.QueueDelayUs("n"), first);
}

TEST(FaultInjectorOverloadTest, OverloadModeShedsWithHint) {
  sim::FaultInjector faults;
  faults.SetOverloadNode("n", 1.0, 75);
  Random rng(1);
  const sim::FaultDecision decision = faults.OnMessage("client", "n", rng);
  EXPECT_TRUE(decision.overload);
  EXPECT_EQ(decision.retry_after_ms, 75u);
  EXPECT_FALSE(decision.drop);
  EXPECT_GE(faults.messages_overloaded(), 1u);

  faults.RecoverNode("n");
  const sim::FaultDecision healthy = faults.OnMessage("client", "n", rng);
  EXPECT_FALSE(healthy.overload);
}

TEST(FaultInjectorOverloadTest, DropWinsOverOverload) {
  sim::FaultInjector faults;
  faults.SetOverloadNode("n", 1.0, 75);
  faults.SetSilentDrop("client", 1.0);
  Random rng(1);
  const sim::FaultDecision decision = faults.OnMessage("client", "n", rng);
  EXPECT_TRUE(decision.drop);
  // A dropped message never reaches the admission controller, so it cannot
  // also be a fast rejection.
  EXPECT_FALSE(decision.overload);
}

// --- End-to-end over the real in-process transport ---

core::Sla TwoRankSla() {
  return core::Sla()
      .Add(core::Guarantee::ReadMyWrites(), MillisecondsToMicroseconds(500),
           1.0)
      .Add(core::Guarantee::Eventual(), SecondsToMicroseconds(2), 0.1);
}

// The end-to-end cases run with an in-memory and with a durable primary:
// admission sits in the node's one dispatcher in front of both.
enum class Backend { kInMemory, kDurable };

class OverloadEndToEndTest : public ::testing::TestWithParam<Backend> {
 protected:
  void TearDown() override {
    if (!dir_.empty()) {
      (void)::system(("rm -rf '" + dir_ + "'").c_str());
    }
  }

  // The primary's tablet in this test's backend (null: in-memory).
  std::shared_ptr<storage::Tablet> PrimaryTablet() {
    if (GetParam() == Backend::kInMemory) {
      return nullptr;
    }
    char tmpl[] = "/tmp/pileus_overload_XXXXXX";
    EXPECT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    persist::DurableTablet::Options options;
    options.directory = dir_;
    options.tablet.is_primary = true;
    Result<std::unique_ptr<persist::DurableTablet>> opened =
        persist::DurableTablet::Open(options, RealClock::Instance());
    EXPECT_TRUE(opened.ok()) << opened.status();
    return opened.ok() ? (*opened)->shared_tablet() : nullptr;
  }

  std::string dir_;
};

INSTANTIATE_TEST_SUITE_P(
    Backends, OverloadEndToEndTest,
    ::testing::Values(Backend::kInMemory, Backend::kDurable),
    [](const ::testing::TestParamInfo<Backend>& param_info) {
      return param_info.param == Backend::kInMemory ? "InMemory" : "Durable";
    });

TEST_P(OverloadEndToEndTest, ShedRepliesReachTheClientAndMonitor) {
  testbed::InProcCluster cluster(PrimaryTablet());
  AdmissionOptions admission;
  admission.tenant_ops_per_sec = 5;
  admission.tenant_burst_ops = 2;
  admission.tenant_max_queue_ops = 4;
  cluster.EnableAdmission(admission);

  core::PileusClient::Options options;
  options.tenant = "solo";
  auto client = cluster.MakeClient(options);
  Result<core::Session> session = client->BeginSession(TwoRankSla());
  ASSERT_TRUE(session.ok());
  // Seed one key so Gets have something to read.
  ASSERT_TRUE(client->Put(*session, "k", "v").ok());
  cluster.PullNow();

  // Hammer far past the 5 ops/s bucket: the nodes must start shedding, and
  // the client must absorb the kOverloaded evidence instead of erroring out
  // of its session.
  for (int i = 0; i < 60; ++i) {
    (void)client->Get(*session, "k");
  }
  const uint64_t shed =
      cluster.primary().admission()->counters().shed_total() +
      cluster.local().admission()->counters().shed_total();
  EXPECT_GT(shed, 0u);
  EXPECT_GT(client->overload_rejections(), 0u);
  EXPECT_GT(client->monitor().overload_rejections(), 0u);
  // Queue-delay piggybacks made it into the monitor's per-node view.
  const uint64_t delay_local = client->monitor().QueueDelayUs("Local");
  const uint64_t delay_primary = client->monitor().QueueDelayUs("England");
  EXPECT_GT(delay_local + delay_primary, 0u);
}

TEST_P(OverloadEndToEndTest, WritesSurviveSheddingWithRetryBudget) {
  testbed::InProcCluster cluster(PrimaryTablet());
  AdmissionOptions admission;
  admission.tenant_ops_per_sec = 20;
  admission.tenant_burst_ops = 4;
  admission.tenant_max_queue_ops = 8;
  cluster.EnableAdmission(admission);

  core::PileusClient::Options options;
  options.tenant = "writer";
  // Real sleeps so retry_after-hinted backoff actually spaces the retries.
  options.sleep_fn = [](MicrosecondCount us) {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  };
  auto client = cluster.MakeClient(options);
  Result<core::Session> session = client->BeginSession(TwoRankSla());
  ASSERT_TRUE(session.ok());

  int acked = 0;
  for (int i = 0; i < 40; ++i) {
    if (client->Put(*session, NumberedKey("k", i), "v").ok()) {
      ++acked;
    }
  }
  // Writes are protected until the queue is full and retried with backoff,
  // so the large majority must land even while the bucket is squeezed.
  EXPECT_GE(acked, 30);
  // Every acked write is in the primary's committed history.
  bool contiguous = true;
  const std::vector<proto::ObjectVersion> log =
      cluster.primary().ExportTableLog("t", &contiguous);
  EXPECT_GE(static_cast<int>(log.size()), acked);
}

// Satellite: two tenants on one cluster, one of them hot. The quiet
// tenant's bucket is its own, so its latency and subSLA hit-rate must stay
// healthy while the hot tenant is being shed.
TEST_P(OverloadEndToEndTest, QuietTenantUnaffectedByHotTenant) {
  testbed::InProcCluster cluster(PrimaryTablet());
  AdmissionOptions admission;
  admission.tenant_ops_per_sec = 25;
  admission.tenant_burst_ops = 5;
  admission.tenant_max_queue_ops = 10;
  cluster.EnableAdmission(admission);

  core::PileusClient::Options quiet_options;
  quiet_options.tenant = "quiet";
  auto quiet = cluster.MakeClient(quiet_options);
  core::PileusClient::Options hot_options;
  hot_options.tenant = "hot";
  auto hot = cluster.MakeClient(hot_options);

  Result<core::Session> quiet_session = quiet->BeginSession(TwoRankSla());
  Result<core::Session> hot_session = hot->BeginSession(TwoRankSla());
  ASSERT_TRUE(quiet_session.ok());
  ASSERT_TRUE(hot_session.ok());
  ASSERT_TRUE(quiet->Put(*quiet_session, "shared", "v").ok());
  cluster.PullNow();

  // Interleave: ten hot ops for every quiet op, far past the hot bucket.
  std::vector<MicrosecondCount> quiet_latencies;
  int quiet_ops = 0;
  int quiet_met = 0;
  for (int round = 0; round < 30; ++round) {
    for (int burst = 0; burst < 10; ++burst) {
      (void)hot->Get(*hot_session, "shared");
    }
    const MicrosecondCount start = RealClock::Instance()->NowMicros();
    Result<core::GetResult> get = quiet->Get(*quiet_session, "shared");
    quiet_latencies.push_back(RealClock::Instance()->NowMicros() - start);
    ++quiet_ops;
    if (get.ok() && get->outcome.met_rank >= 0) {
      ++quiet_met;
    }
  }

  // The hot tenant got squeezed...
  const uint64_t shed =
      cluster.primary().admission()->counters().shed_total() +
      cluster.local().admission()->counters().shed_total();
  EXPECT_GT(shed, 0u);
  EXPECT_GT(hot->overload_rejections(), 0u);
  // ...while the quiet tenant never saw a rejection, met its SLA, and kept
  // a sane tail latency (Local is ~1 ms away; 250 ms allows for scheduler
  // noise and an occasional England round trip, not for queueing behind
  // the hot tenant's backlog).
  EXPECT_EQ(quiet->overload_rejections(), 0u);
  EXPECT_EQ(quiet_met, quiet_ops);
  std::sort(quiet_latencies.begin(), quiet_latencies.end());
  const MicrosecondCount p99 =
      quiet_latencies[quiet_latencies.size() - 1 -
                      quiet_latencies.size() / 100];
  EXPECT_LT(p99, MillisecondsToMicroseconds(250));
}

}  // namespace
}  // namespace pileus
