#include "src/server/node_host.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "src/common/logging.h"
#include "src/telemetry/export.h"

namespace pileus::server {

Result<std::vector<std::unique_ptr<persist::DurableTablet>>> RecoverTablets(
    storage::StorageNode* node, std::string_view table,
    const persist::DurableTablet::Options& options, Clock* clock) {
  node->SetTabletFactory(persist::DurableTablet::Factory(options, clock));
  Result<std::vector<std::unique_ptr<persist::DurableTablet>>> opened =
      persist::DurableTablet::OpenAll(options, clock);
  PILEUS_RETURN_IF_ERROR(opened.status());
  tablets::TabletMap placement;
  placement.table = std::string(table);
  std::vector<KeyRange> ranges;
  for (const auto& tablet : *opened) {
    PILEUS_RETURN_IF_ERROR(node->AddTablet(table, tablet->shared_tablet()));
    tablets::TabletInfo entry;
    entry.range = tablet->tablet().range();
    entry.config =
        tablet->recovery_info().config.value_or(reconfig::ConfigEpoch{});
    placement.version = std::max(placement.version, entry.config.epoch);
    ranges.push_back(entry.range);
    placement.tablets.push_back(std::move(entry));
  }
  if (placement.version == 0 || !RangesCoverKeySpace(std::move(ranges))) {
    // Nothing journaled, or only part of the table (a tablet-fleet node,
    // whose driver installs the live map): the caller's role stands.
    return opened;
  }
  std::ranges::sort(placement.tablets, {}, [](const tablets::TabletInfo& t) {
    return t.range.begin;
  });
  if (!node->InstallTabletMap(placement, /*lease_expiry_us=*/1)) {
    return Status(StatusCode::kCorruption,
                  "journaled placement does not install: " +
                      placement.ToString());
  }
  return opened;
}

Result<std::vector<std::unique_ptr<persist::DurableTablet>>> OpenDurableNode(
    storage::StorageNode* node, std::string_view table,
    const std::string& root, std::optional<storage::Tablet::Options> first,
    Clock* clock) {
  std::error_code error;
  std::filesystem::create_directories(root, error);
  persist::DurableTablet::Options options;
  options.directory = root;
  options.tablet = first.value_or(storage::Tablet::Options{});
  // Replication pulls and the audit's committed order read the update logs,
  // which a checkpoint compacts (ROADMAP item 3).
  options.checkpoint_threshold_bytes = 0;
  if (!first.has_value() && std::filesystem::is_empty(root, error)) {
    node->SetTabletFactory(persist::DurableTablet::Factory(options, clock));
    return std::vector<std::unique_ptr<persist::DurableTablet>>{};
  }
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
    Result<std::vector<std::unique_ptr<persist::DurableTablet>>> recovered =
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
  // Every tablet, split children included; no thread touches them now.
  Status first = Status::Ok();
  for (storage::Tablet* tablet : node_.TabletsForTable(options_.table)) {
    if (tablet->journal() == nullptr) {
      continue;
    }
    if (Status st = tablet->journal()->Checkpoint(*tablet);
        !st.ok() && first.ok()) {
      first = st;
    }
  }
  return first;
}

}  // namespace pileus::server
