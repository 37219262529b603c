// The loopback-TCP deployment: the audit over the *deployment stack*
// instead of the simulator. A durable primary with WAL group commit served
// through TcpServer::StartAsync, an in-memory secondary fed by a
// ThreadedPuller over a TcpChannel, and two PileusClient frontends whose
// replicas are real sockets on loopback. A transport bug (a reply matched to
// the wrong pipelined request, an ack released before its batch fsync, a
// stale read served after a reconnect) then surfaces as a consistency
// violation, not just a failed unit test. Time is real, so runs are seeded
// but not bit-exact.

#include <sys/stat.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/client_cache.h"
#include "src/common/clock.h"
#include "src/core/client.h"
#include "src/experiments/deployment.h"
#include "src/net/tcp.h"
#include "src/persist/durable_tablet.h"
#include "src/persist/group_commit.h"
#include "src/proto/messages.h"
#include "src/replication/replication_agent.h"
#include "src/storage/storage_node.h"

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

// The secondary site: the in-memory node, its client-facing server, and the
// replication pull loop — everything kCrashRestart destroys and rebuilds.
struct SecondarySite {
  std::unique_ptr<storage::StorageNode> node;
  std::unique_ptr<net::TcpChannel> pull_channel;  // To the primary.
  std::unique_ptr<replication::ReplicationAgent> agent;
  std::unique_ptr<replication::ThreadedPuller> puller;
  std::unique_ptr<net::TcpServer> server;

  ~SecondarySite() { Destroy(); }

  void Destroy() {
    if (server != nullptr) {
      server->Stop();  // In-flight pipelined calls fail fast (kUnavailable).
    }
    server.reset();
    puller.reset();  // Joins the pull thread.
    agent.reset();
    pull_channel.reset();
    node.reset();  // Volatile state gone, like a process crash.
  }
};

// Builds (or rebuilds) the secondary and starts serving on `serve_port`
// (0 = ephemeral). A rebuilt node starts empty and runs one full blocking
// catch-up pull BEFORE the server accepts, so it never serves reads while
// missing history its advertised high timestamp implies it holds.
Status BuildSecondary(uint16_t primary_port, uint16_t serve_port,
                      SecondarySite* site) {
  site->node = std::make_unique<storage::StorageNode>(
      kSecondaryName, "tcp-testbed", RealClock::Instance());
  storage::Tablet::Options tablet_options;  // Not primary.
  PILEUS_RETURN_IF_ERROR(site->node->AddTablet(kTable, tablet_options));
  site->pull_channel = std::make_unique<net::TcpChannel>(primary_port);
  site->agent = std::make_unique<replication::ReplicationAgent>(
      site->node.get(), replication::ReplicationAgent::Options{.table = kTable});
  net::TcpChannel* channel = site->pull_channel.get();
  const auto sync = [channel](const proto::SyncRequest& request) {
    return replication::ToSyncReply(
        channel->Call(request, SecondsToMicroseconds(10)));
  };
  (void)replication::BlockingPuller(site->agent.get(), sync).PullOnce();
  site->puller = std::make_unique<replication::ThreadedPuller>(
      site->agent.get(), sync, kPullPeriodUs);
  site->server = std::make_unique<net::TcpServer>();
  return site->server->Start(
      serve_port,
      [node = site->node.get()](const proto::Message& m) {
        return node->Handle(m);
      });
}

class TcpDeployment : public Deployment {
 public:
  explicit TcpDeployment(const ScenarioOptions& options) : options_(options) {}

  Status Supports(const ScenarioOptions& options) const override {
    return CheckSupport(options, "the tcp deployment",
                        {FaultScenario::kNone, FaultScenario::kCrashRestart,
                         FaultScenario::kHandoff},
                        /*aggregator=*/false, /*coordinator_kill=*/false);
  }

  Status Build(core::OpObserver* observer) override {
    if (options_.durable_root.empty()) {
      return Status(StatusCode::kInvalidArgument,
                    "the tcp primary journals to a WAL and needs a "
                    "durable_root");
    }
    Clock* clock = RealClock::Instance();
    // Primary: a durable tablet with WAL group commit behind the async
    // server path, exactly as `pileus_server --data_dir --group_commit` runs.
    primary_dir_ = options_.durable_root + "/primary";
    ::mkdir(primary_dir_.c_str(), 0755);  // Best effort; may exist.
    persist::DurableTablet::Options durable_options;
    durable_options.directory = primary_dir_;
    durable_options.tablet.is_primary = true;
    Result<std::unique_ptr<persist::DurableTablet>> opened =
        persist::DurableTablet::Open(durable_options, clock);
    PILEUS_RETURN_IF_ERROR(opened.status());
    durable_ = std::move(opened).value();
    primary_node_ = std::make_unique<storage::StorageNode>(
        kPrimaryName, "tcp-testbed", clock);
    PILEUS_RETURN_IF_ERROR(
        primary_node_->AddTablet(kTable, durable_->shared_tablet()));
    persist::GroupCommitConfig group_commit;
    group_commit.enabled = true;
    group_commit.max_delay_us = 500;  // Wall-clock runs are short; a lone
                                      // write should not stall 2 ms per ack.
    committer_ = persist::StartGroupCommit(primary_node_.get(), group_commit);
    primary_server_ = std::make_unique<net::TcpServer>();
    PILEUS_RETURN_IF_ERROR(primary_server_->StartAsync(
        0, [node = primary_node_.get()](
               const proto::Message& m,
               std::function<void(proto::Message)> done) {
          node->HandleAsync(m, std::move(done));
        }));
    PILEUS_RETURN_IF_ERROR(
        BuildSecondary(primary_server_->port(), 0, &secondary_));
    secondary_port_ = secondary_.server->port();

    // Two frontends over their own sockets.
    cache::ClientCache::Options cache_options;
    cache_options.capacity_bytes = options_.cache_capacity_bytes;
    for (int i = 0; i < 2; ++i) {
      core::TableView view;
      view.table_name = kTable;
      view.replicas = {
          core::Replica{kPrimaryName, true,
                        std::make_shared<core::ChannelConnection>(
                            std::make_shared<net::TcpChannel>(
                                primary_server_->port()),
                            clock)},
          core::Replica{kSecondaryName, false,
                        std::make_shared<core::ChannelConnection>(
                            std::make_shared<net::TcpChannel>(secondary_port_),
                            clock)}};
      view.primary_index = 0;
      core::PileusClient::Options client_options;
      client_options.op_observer = observer;
      if (options_.client_cache) {
        caches_.push_back(std::make_unique<cache::ClientCache>(cache_options));
        client_options.cache = caches_.back().get();
      }
      frontends_.push_back(std::make_unique<core::PileusClient>(
          std::move(view), clock, client_options));
    }
    return Status::Ok();
  }

  std::vector<Frontend> frontends() override {
    return {frontends_[0].get(), frontends_[1].get()};
  }

  void Start() override {
    secondary_.puller->PullNow();
    ProbeAll();
  }

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
      secondary_.Destroy();
    } else if (event.kind == FaultEvent::Kind::kRestart) {
      // Rebuild empty on the same port; BuildSecondary catches it up from
      // the primary before accepting. A failure leaves it down and reads
      // keep failing over to the primary for the rest of the run.
      (void)BuildSecondary(primary_server_->port(), secondary_port_,
                           &secondary_);
    }
  }

  Status BeforeOp(uint64_t op) override {
    if (op % kProbeStride == 0) {
      ProbeAll();
    }
    return Status::Ok();
  }

  Result<GroundTruth> Finish(ScenarioResult& /*result*/) override {
    secondary_.Destroy();  // Stop pulls before freezing the ground truth.
    committer_->Stop();    // Final batch sync; later acks sync inline.
    GroundTruth truth;
    truth.versions =
        durable_->tablet().ExportCommittedVersions(&truth.complete);
    truth.wal_paths.push_back(primary_dir_ + "/wal.log");
    return truth;
  }

 private:
  // Both replicas need latency estimates before node selection means
  // anything (an unmeasured node reports mean 0 and wins every tie-break).
  void ProbeAll() {
    for (auto& fe : frontends_) {
      (void)fe->ProbeNode(0);
      (void)fe->ProbeNode(1);
    }
  }

  // Declaration order is teardown order, reversed: clients go first, then
  // the secondary, then the primary's server before its committer, node and
  // tablet.
  const ScenarioOptions& options_;
  std::string primary_dir_;
  std::unique_ptr<persist::DurableTablet> durable_;
  std::unique_ptr<storage::StorageNode> primary_node_;
  std::unique_ptr<persist::GroupCommitter> committer_;
  std::unique_ptr<net::TcpServer> primary_server_;
  SecondarySite secondary_;
  uint16_t secondary_port_ = 0;
  std::vector<std::unique_ptr<cache::ClientCache>> caches_;
  std::vector<std::unique_ptr<core::PileusClient>> frontends_;
};

}  // namespace

std::unique_ptr<Deployment> MakeTcpDeployment(const ScenarioOptions& options) {
  return std::make_unique<TcpDeployment>(options);
}

}  // namespace pileus::experiments
