// The simulator deployment: the Fig-10 GeoTestbed with frontends in the US
// and India, replicating every few virtual seconds.

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/experiments/deployment.h"
#include "src/experiments/geo_testbed.h"
#include "src/storage/admission.h"

namespace pileus::experiments {
namespace {

// Fast pulls so staleness stays small relative to virtual run time.
constexpr MicrosecondCount kReplicationPeriodUs = SecondsToMicroseconds(10);
constexpr MicrosecondCount kThinkUs = MillisecondsToMicroseconds(5);
// The storage sites (China hosts clients only).
constexpr std::array<const char*, 3> kStorageSites = {kUs, kEngland, kIndia};

class SimDeployment : public Deployment {
 public:
  explicit SimDeployment(const ScenarioOptions& options) : options_(options) {}

  Status Supports(const ScenarioOptions& options) const override {
    return CheckSupport(options, "the sim deployment", AllFaultScenarios());
  }

  Status Build(core::OpObserver* observer) override {
    GeoTestbedOptions geo;
    geo.seed = options_.seed;
    geo.replication_period_us = kReplicationPeriodUs;
    geo.durable_root = options_.durable_root;
    if (options_.scenario == FaultScenario::kFailover) {
      // The promotion target must hold the complete committed prefix, so the
      // run needs at least one synchronous replica (Section 6.4) alongside
      // the lease coordinator.
      geo.sync_replica_count = 2;
      geo.enable_failover = true;
    }
    if (options_.scenario == FaultScenario::kOverload) {
      // Run the real admission controller on every node alongside the
      // injected shedding episodes: queue delays get stamped on replies and
      // fed to the monitors, and genuine pressure sheds through the same
      // kOverloaded path the injector simulates. The rate sits above the
      // workload's sustained virtual-time op rate, so the bucket only queues
      // during retry bursts.
      storage::AdmissionOptions admission;
      admission.tenant_ops_per_sec = 25;
      admission.tenant_burst_ops = 16;
      geo.admission = admission;
    }
    testbed_ = std::make_unique<GeoTestbed>(geo);
    if (geo.enable_failover) {
      testbed_->StartReconfiguration();
    }
    for (const char* site : {kUs, kIndia}) {
      core::PileusClient::Options client_options;
      client_options.op_observer = observer;
      frontends_.push_back(testbed_->MakeClient(site, client_options));
    }
    return Status::Ok();
  }

  std::vector<core::PileusClient*> frontends() override {
    return {&frontends_[0]->client(), &frontends_[1]->client()};
  }

  void Start() override {
    testbed_->StartReplication();
    for (auto& fe : frontends_) {
      fe->StartProbing();
    }
    // Warm-up: a couple of replication rounds plus probe traffic, so
    // monitors hold real estimates before the recorded window starts.
    testbed_->env().RunFor(2 * kReplicationPeriodUs +
                           SecondsToMicroseconds(1));
  }

  // Replicas are the secondaries the frontends sit next to.
  std::vector<std::string> Nodes(FaultEvent::Target target) override {
    if (target == FaultEvent::Target::kAnyNode) {
      return {kStorageSites.begin(), kStorageSites.end()};
    }
    if (target == FaultEvent::Target::kReplica) {
      return {kUs, kIndia};
    }
    return {testbed_->primary_site()};
  }

  void Apply(const FaultEvent& event, const std::string& node) override {
    sim::FaultInjector& faults = testbed_->faults();
    switch (event.kind) {
      case FaultEvent::Kind::kIsolate:
      case FaultEvent::Kind::kRejoin:
        for (const char* site : kStorageSites) {
          if (node != site) {
            const bool cut = event.kind == FaultEvent::Kind::kIsolate;
            faults.SetPartition(node, site, cut);
            faults.SetPartition(site, node, cut);
          }
        }
        break;
      case FaultEvent::Kind::kDrop:
        faults.SetSilentDrop(node, event.amount);
        break;
      case FaultEvent::Kind::kGray:
        faults.SetGrayNode(node, event.amount);
        break;
      case FaultEvent::Kind::kOverload:
        faults.SetOverloadNode(node, event.amount, event.retry_after_ms);
        break;
      case FaultEvent::Kind::kRecover:
        faults.RecoverNode(node);
        break;
      case FaultEvent::Kind::kCrash:
        testbed_->CrashNode(node);
        break;
      case FaultEvent::Kind::kRestart:
        (void)testbed_->RestartNode(node);
        break;
    }
  }

  void AfterOp() override { testbed_->env().RunFor(kThinkUs); }

  Result<GroundTruth> Finish(ScenarioResult& result) override {
    for (auto& fe : frontends_) {
      fe->StopProbing();
    }
    testbed_->faults().ClearAll();
    // A failover may still be in flight when the ops run out (detection is
    // bound to virtual time, not op count); run the clock until the
    // promotion lands so the export below reads a live primary.
    if (testbed_->options().enable_failover) {
      for (int i = 0;
           i < 100 && testbed_->IsNodeCrashed(testbed_->primary_site()); ++i) {
        testbed_->env().RunFor(
            reconfig::FailoverCoordinator::kHeartbeatPeriodUs);
      }
    }
    result.failovers = testbed_->failovers();
    GroundTruth truth;
    truth.versions = testbed_->primary_node()->ExportTableLog(
        kTableName, &truth.complete);
    if (!options_.durable_root.empty()) {
      truth.wal_paths.push_back(options_.durable_root + "/" +
                                testbed_->primary_site() + "/wal.log");
    }
    return truth;
  }

 private:
  const ScenarioOptions& options_;
  std::unique_ptr<GeoTestbed> testbed_;
  std::vector<std::unique_ptr<GeoClient>> frontends_;
};

}  // namespace

std::unique_ptr<Deployment> MakeSimDeployment(const ScenarioOptions& options) {
  return std::make_unique<SimDeployment>(options);
}

}  // namespace pileus::experiments
