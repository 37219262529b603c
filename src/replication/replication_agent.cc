#include "src/replication/replication_agent.h"

#include <algorithm>
#include <chrono>
#include <variant>

#include "src/common/logging.h"

namespace pileus::replication {

Result<proto::SyncReply> ToSyncReply(Result<proto::Message> reply) {
  if (!reply.ok()) {
    return reply.status();
  }
  if (const auto* error = std::get_if<proto::ErrorReply>(&reply.value())) {
    return Status(error->code, error->message);
  }
  if (auto* sync = std::get_if<proto::SyncReply>(&reply.value())) {
    return std::move(*sync);
  }
  return Status(StatusCode::kInternal, "unexpected reply type for sync");
}

ReplicationAgent::ReplicationAgent(storage::Tablet* target, Options options)
    : owned_node_(std::make_unique<storage::StorageNode>(
          "replica", "local", target->clock())),
      target_(owned_node_.get()),
      options_(std::move(options)) {
  // A fresh node hosts nothing the tablet could overlap.
  (void)owned_node_->AddTablet(
      options_.table,
      std::shared_ptr<storage::Tablet>(target, [](storage::Tablet*) {}));
}

Timestamp ReplicationAgent::HighTimestamp() const {
  return target_->WithLock([this] {
    Timestamp low = Timestamp::Max();
    for (const storage::Tablet* tablet :
         target_->TabletsForTable(options_.table)) {
      if (options_.range.Covers(tablet->range())) {
        low = std::min(low, tablet->high_timestamp());
      }
    }
    return low == Timestamp::Max() ? Timestamp::Zero() : low;
  });
}

proto::SyncRequest ReplicationAgent::NextRequest() const {
  proto::SyncRequest request;
  request.table = options_.table;
  request.after = HighTimestamp();
  request.max_versions = options_.max_versions_per_pull;
  if (options_.range != KeyRange::All()) {
    request.has_range = true;
    request.range_begin = options_.range.begin;
    request.range_end = options_.range.end;
  }
  return request;
}

void ReplicationAgent::EnableTelemetry(telemetry::MetricsRegistry* registry,
                                       std::string_view node_label) {
  if (registry == nullptr) {
    instruments_ = Instruments{};
    return;
  }
  const auto counter = [&](std::string_view base) {
    return registry->GetCounter(telemetry::WithLabels(
        base, {{"table", options_.table}, {"node", node_label}}));
  };
  instruments_.syncs = counter("pileus_replication_syncs_total");
  instruments_.versions = counter("pileus_replication_versions_applied_total");
  instruments_.heartbeats = counter("pileus_replication_heartbeats_total");
  instruments_.pulls = counter("pileus_replication_pulls_total");
  instruments_.high_timestamp_us = registry->GetGauge(telemetry::WithLabels(
      "pileus_replication_high_timestamp_us",
      {{"table", options_.table}, {"node", node_label}}));
}

Result<bool> ReplicationAgent::OnReply(const proto::SyncReply& reply) {
  PILEUS_RETURN_IF_ERROR(
      target_->ApplySync(options_.table, options_.range, reply));
  if (!reply.versions.empty()) {
    // One durability barrier covers the applied batch (a no-op in memory).
    PILEUS_RETURN_IF_ERROR(target_->SyncJournals());
  }
  versions_applied_ += reply.versions.size();
  if (!reply.has_more) {
    ++pulls_completed_;
  }
  if (instruments_.syncs != nullptr) {
    instruments_.syncs->Increment();
    if (reply.versions.empty()) {
      instruments_.heartbeats->Increment();
    } else {
      instruments_.versions->Increment(reply.versions.size());
    }
    if (!reply.has_more) {
      instruments_.pulls->Increment();
    }
    instruments_.high_timestamp_us->Set(HighTimestamp().physical_us);
  }
  return reply.has_more;
}

Result<int> BlockingPuller::PullOnce(int max_rounds) {
  int applied = 0;
  bool more = true;
  for (int round = 0; more && (max_rounds <= 0 || round < max_rounds);
       ++round) {
    Result<proto::SyncReply> reply = sync_(agent_->NextRequest());
    if (!reply.ok()) {
      return reply.status();
    }
    Result<bool> pending = agent_->OnReply(reply.value());
    if (!pending.ok()) {
      return pending.status();
    }
    applied += static_cast<int>(reply.value().versions.size());
    more = pending.value();
  }
  return applied;
}

ThreadedPuller::ThreadedPuller(ReplicationAgent* agent,
                               BlockingPuller::SyncFn sync,
                               MicrosecondCount period_us)
    : agent_(agent), puller_(agent, std::move(sync)), period_us_(period_us) {
  thread_ = std::thread([this] { Loop(); });
}

void ThreadedPuller::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void ThreadedPuller::PullNow() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pull_requested_ = true;
  }
  cv_.notify_all();
}

void ThreadedPuller::Loop() {
  // Pulls are scheduled start to start: the next deadline is taken when a
  // pull begins, so the pull's own duration does not stretch the period.
  const auto period = std::chrono::microseconds(period_us_);
  auto deadline = std::chrono::steady_clock::now() + period;
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_until(lock, deadline,
                   [this] { return stop_ || pull_requested_; });
    if (stop_) {
      return;
    }
    pull_requested_ = false;
    deadline = std::chrono::steady_clock::now() + period;
    lock.unlock();
    Result<int> pulled = puller_.PullOnce();
    if (!pulled.ok()) {
      PILEUS_LOG(kWarning) << "replication pull for table '"
                           << agent_->options().table
                           << "' failed: " << pulled.status();
    }
    lock.lock();
  }
}

}  // namespace pileus::replication
