// The loopback-TCP deployment: the audit over the *deployment stack*
// instead of the simulator. Two server::NodeHost nodes, each exactly as
// `pileus_server` runs it: a durable primary with WAL group commit, and an
// in-memory secondary that pulls from it over a TcpChannel. Two PileusClient
// frontends reach them through real sockets on loopback. A transport bug (a
// reply matched to the wrong pipelined request, an ack released before its
// batch fsync, a stale read served after a reconnect) then surfaces as a
// consistency violation, not just a failed unit test. Time is real, so runs
// are seeded but not bit-exact.

#include <sys/stat.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/core/client.h"
#include "src/experiments/deployment.h"
#include "src/net/tcp.h"
#include "src/server/node_host.h"

namespace pileus::experiments {
namespace {

// Same table name as the simulated testbed so summaries read alike.
constexpr const char* kTable = "ycsb";
constexpr const char* kPrimaryName = "England";
constexpr const char* kSecondaryName = "US";
// The simulated runs replicate every few virtual seconds; a run here lasts
// fractions of a wall-clock second, so the pull period is compressed to keep
// the secondary's staleness proportionate.
constexpr MicrosecondCount kPullPeriodUs = MillisecondsToMicroseconds(20);
// Ops between re-probes of both replicas from both frontends.
constexpr uint64_t kProbeStride = 25;

class TcpDeployment : public Deployment {
 public:
  explicit TcpDeployment(const ScenarioOptions& options) : options_(options) {}

  Status Supports(const ScenarioOptions& options) const override {
    return CheckSupport(options, "the tcp deployment",
                        {FaultScenario::kNone, FaultScenario::kCrashRestart,
                         FaultScenario::kHandoff});
  }

  Status Build(core::OpObserver* observer) override {
    if (options_.durable_root.empty()) {
      return Status(StatusCode::kInvalidArgument,
                    "the tcp primary journals to a WAL and needs a "
                    "durable_root");
    }
    Clock* clock = RealClock::Instance();
    primary_dir_ = options_.durable_root + "/primary";
    ::mkdir(primary_dir_.c_str(), 0755);  // Best effort; may exist.
    server::NodeHost::Options primary;
    primary.table = kTable;
    primary.name = kPrimaryName;
    primary.data_dir = primary_dir_;
    // Wall-clock runs are short; a lone write should not stall 2 ms per ack.
    primary.group_commit = {.enabled = true, .max_delay_us = 500};
    primary_ = std::make_unique<server::NodeHost>(std::move(primary));
    PILEUS_RETURN_IF_ERROR(primary_->Start());
    PILEUS_RETURN_IF_ERROR(StartSecondary(0));
    secondary_port_ = secondary_->port();

    // Two frontends over their own sockets.
    for (int i = 0; i < 2; ++i) {
      core::TableView view;
      view.table_name = kTable;
      view.replicas = {
          core::Replica{kPrimaryName, true,
                        std::make_shared<core::ChannelConnection>(
                            std::make_shared<net::TcpChannel>(
                                primary_->port()),
                            clock)},
          core::Replica{kSecondaryName, false,
                        std::make_shared<core::ChannelConnection>(
                            std::make_shared<net::TcpChannel>(secondary_port_),
                            clock)}};
      view.primary_index = 0;
      core::PileusClient::Options client_options;
      client_options.op_observer = observer;
      frontends_.push_back(std::make_unique<core::PileusClient>(
          std::move(view), clock, client_options));
    }
    return Status::Ok();
  }

  std::vector<core::PileusClient*> frontends() override {
    return {frontends_[0].get(), frontends_[1].get()};
  }

  void Start() override { ProbeAll(); }

  // The only fault Supports admits is crash-restart of a replica: the
  // secondary.
  std::vector<std::string> Nodes(FaultEvent::Target target) override {
    if (target == FaultEvent::Target::kReplica) {
      return {kSecondaryName};
    }
    return {};
  }

  void Apply(const FaultEvent& event, const std::string& /*node*/) override {
    if (event.kind == FaultEvent::Kind::kCrash) {
      secondary_.reset();  // Volatile state gone, like a process crash.
    } else if (event.kind == FaultEvent::Kind::kRestart) {
      // Rebuild empty on the same port; the host catches it up from the
      // primary before accepting. A failure leaves it down and reads keep
      // failing over to the primary for the rest of the run.
      (void)StartSecondary(secondary_port_);
    }
  }

  void BeforeOp(uint64_t op) override {
    if (op % kProbeStride == 0) {
      ProbeAll();
    }
  }

  Result<GroundTruth> Finish(ScenarioResult& /*result*/) override {
    secondary_.reset();  // Stop pulls before freezing the ground truth.
    GroundTruth truth;
    truth.versions =
        primary_->node()->ExportTableLog(kTable, &truth.complete);
    truth.wal_paths.push_back(primary_dir_ + "/wal.log");
    return truth;
  }

 private:
  // Starts an empty secondary serving on `port` (0 = ephemeral). It runs one
  // full catch-up pull BEFORE it listens, so it never serves reads while
  // missing history its advertised high timestamp implies it holds.
  Status StartSecondary(uint16_t port) {
    server::NodeHost::Options secondary;
    secondary.port = port;
    secondary.table = kTable;
    secondary.is_primary = false;
    secondary.name = kSecondaryName;
    secondary.primary_port = primary_->port();
    secondary.pull_period_us = kPullPeriodUs;
    auto host = std::make_unique<server::NodeHost>(std::move(secondary));
    PILEUS_RETURN_IF_ERROR(host->Start());
    secondary_ = std::move(host);
    return Status::Ok();
  }

  // Both replicas need latency estimates before node selection means
  // anything (an unmeasured node reports mean 0 and wins every tie-break).
  void ProbeAll() {
    for (auto& fe : frontends_) {
      (void)fe->ProbeNode(0);
      (void)fe->ProbeNode(1);
    }
  }

  // Declaration order is teardown order, reversed: clients go first, then
  // the secondary (null while crashed), then the primary.
  const ScenarioOptions& options_;
  std::string primary_dir_;
  std::unique_ptr<server::NodeHost> primary_;
  std::unique_ptr<server::NodeHost> secondary_;
  uint16_t secondary_port_ = 0;
  std::vector<std::unique_ptr<core::PileusClient>> frontends_;
};

}  // namespace

std::unique_ptr<Deployment> MakeTcpDeployment(const ScenarioOptions& options) {
  return std::make_unique<TcpDeployment>(options);
}

}  // namespace pileus::experiments
