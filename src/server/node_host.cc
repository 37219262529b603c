#include "src/server/node_host.h"

#include <filesystem>
#include <utility>

#include "src/common/logging.h"
#include "src/telemetry/export.h"

namespace pileus::server {

Result<std::unique_ptr<persist::DurableTablet>> RecoverTablets(
    storage::StorageNode* node, std::string_view table,
    const persist::DurableTablet::Options& options, Clock* clock) {
  Result<std::unique_ptr<persist::DurableTablet>> opened =
      persist::DurableTablet::Open(options, clock);
  PILEUS_RETURN_IF_ERROR(opened.status());
  const persist::DurableTablet& durable = **opened;
  PILEUS_RETURN_IF_ERROR(node->AddTablet(table, durable.shared_tablet()));
  tablets::TabletInfo entry;
  entry.range = durable.tablet().range();
  entry.config =
      durable.recovery_info().config.value_or(reconfig::ConfigEpoch{});
  if (entry.config.epoch == 0) {
    return opened;  // Nothing journaled: the caller's role stands.
  }
  tablets::TabletMap placement;
  placement.table = std::string(table);
  placement.version = entry.config.epoch;
  placement.tablets.push_back(std::move(entry));
  if (!node->InstallTabletMap(placement, /*lease_expiry_us=*/1)) {
    return Status(StatusCode::kCorruption,
                  "journaled placement does not install: " +
                      placement.ToString());
  }
  return opened;
}

Result<std::unique_ptr<persist::DurableTablet>> OpenDurableNode(
    storage::StorageNode* node, std::string_view table,
    const std::string& root, storage::Tablet::Options tablet, Clock* clock) {
  std::error_code error;
  std::filesystem::create_directories(root, error);
  persist::DurableTablet::Options options;
  options.directory = root;
  options.tablet = std::move(tablet);
  // Replication pulls and the audit's committed order read the update logs,
  // which a checkpoint compacts (ROADMAP item 3).
  options.checkpoint_threshold_bytes = 0;
  return RecoverTablets(node, table, options, clock);
}

NodeHost::NodeHost(Options options)
    : options_(std::move(options)),
      node_(options_.name, "local", RealClock::Instance()) {}

Status NodeHost::Start() {
  Clock* clock = RealClock::Instance();
  if (options_.metrics != nullptr) {
    node_.EnableTelemetry(options_.metrics);
  }
  if (options_.data_dir.empty()) {
    storage::Tablet::Options tablet;
    tablet.is_primary = options_.is_primary;
    PILEUS_RETURN_IF_ERROR(node_.AddTablet(options_.table, tablet));
  } else {
    persist::DurableTablet::Options durable;
    durable.directory = options_.data_dir;
    durable.tablet.is_primary = options_.is_primary;
    durable.sync_every_append = options_.fsync_every_write;
    Result<std::unique_ptr<persist::DurableTablet>> recovered =
        RecoverTablets(&node_, options_.table, durable, clock);
    PILEUS_RETURN_IF_ERROR(recovered.status());
    durable_ = std::move(recovered).value();
  }
  if (options_.admission.has_value()) {
    node_.EnableAdmission(*options_.admission);
  }
  committer_ = persist::StartGroupCommit(&node_, options_.group_commit);
  if (!options_.is_primary && options_.primary_port > 0) {
    agent_ = std::make_unique<replication::ReplicationAgent>(
        &node_, replication::ReplicationAgent::Options{
                    .table = options_.table,
                    .max_versions_per_pull = options_.pull_batch});
    if (options_.metrics != nullptr) {
      agent_->EnableTelemetry(options_.metrics, options_.name);
    }
    pull_channel_ = std::make_unique<net::TcpChannel>(options_.primary_port);
    const auto sync = [channel = pull_channel_.get()](
                          const proto::SyncRequest& request) {
      return replication::ToSyncReply(
          channel->Call(request, SecondsToMicroseconds(30)));
    };
    if (Result<int> pulled =
            replication::BlockingPuller(agent_.get(), sync).PullOnce();
        !pulled.ok()) {
      PILEUS_LOG(kWarning) << options_.name
                           << ": catch-up pull failed: " << pulled.status();
    }
    puller_ = std::make_unique<replication::ThreadedPuller>(
        agent_.get(), sync, options_.pull_period_us);
  }
  net::TcpServer::Options server;
  server.loop_threads = options_.loop_threads;
  // Stats requests are answered here; the rest take the
  // node's asynchronous path, where a group-commit ack waits for its fsync.
  const Status listening = server_.StartAsync(
      options_.port,
      [this](const proto::Message& request,
             std::function<void(proto::Message)> done) {
        if (options_.metrics != nullptr &&
            std::holds_alternative<proto::StatsRequest>(request)) {
          done(proto::StatsReply{telemetry::ExportAs(
              *options_.metrics,
              std::get<proto::StatsRequest>(request).format)});
          return;
        }
        node_.HandleAsync(request, std::move(done));
      },
      server);
  running_ = listening.ok();
  return listening;
}

Status NodeHost::Stop() {
  if (!running_) {
    return Status::Ok();
  }
  running_ = false;
  if (puller_ != nullptr) {
    puller_->Stop();
  }
  server_.Stop();
  if (committer_ != nullptr) {
    committer_->Stop();  // Final batch sync, while the node is still alive.
  }
  // No thread touches the tablet now.
  return durable_ == nullptr ? Status::Ok() : durable_->Checkpoint();
}

}  // namespace pileus::server
