#include "src/persist/group_commit.h"

#include <chrono>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/storage/storage_node.h"
#include "src/telemetry/metrics.h"

namespace pileus::persist {

namespace {

struct GroupCommitMetrics {
  telemetry::Counter* syncs;
  telemetry::Counter* acks;

  GroupCommitMetrics() {
    telemetry::MetricsRegistry& registry =
        telemetry::MetricsRegistry::Default();
    syncs = registry.GetCounter("pileus_persist_group_commit_syncs_total");
    acks = registry.GetCounter("pileus_persist_group_commit_acks_total");
  }
};

GroupCommitMetrics& Metrics() {
  static GroupCommitMetrics* metrics = new GroupCommitMetrics();
  return *metrics;
}

}  // namespace

Status GroupCommitter::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) {
    return Status::Ok();
  }
  running_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { Loop(); });
  return Status::Ok();
}

void GroupCommitter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) {
      return;
    }
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
  stopping_ = false;
}

void GroupCommitter::AckAfterSync(AckFn ack) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_ && !stopping_) {
      if (queue_.empty()) {
        first_enqueue_us_ = RealClock::Instance()->NowMicros();
      }
      queue_.push_back(std::move(ack));
      cv_.notify_all();
      return;
    }
  }
  // Not running: fall back to a synchronous barrier so durability is never
  // silently weakened.
  ack(sync_());
}

void GroupCommitter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (stopping_ && queue_.empty()) {
      break;
    }
    // Batch window: collect more acks until the batch fills or the oldest
    // waiter has waited max_delay_us.
    if (!stopping_ && config_.max_delay_us > 0) {
      const MicrosecondCount deadline =
          first_enqueue_us_ + config_.max_delay_us;
      while (!stopping_ && queue_.size() < config_.max_batch) {
        const MicrosecondCount now = RealClock::Instance()->NowMicros();
        if (now >= deadline) {
          break;
        }
        cv_.wait_for(lock, std::chrono::microseconds(deadline - now));
      }
    }
    std::vector<AckFn> batch;
    batch.swap(queue_);
    lock.unlock();
    const Status status = sync_();
    syncs_.fetch_add(1, std::memory_order_relaxed);
    Metrics().syncs->Increment();
    for (AckFn& ack : batch) {
      ack(status);
    }
    acked_.fetch_add(batch.size(), std::memory_order_relaxed);
    Metrics().acks->Increment(batch.size());
    lock.lock();
  }
}

std::unique_ptr<GroupCommitter> StartGroupCommit(
    storage::StorageNode* node, const GroupCommitConfig& config) {
  if (!config.enabled) {
    return nullptr;
  }
  auto committer = std::make_unique<GroupCommitter>(
      [node] { return node->SyncJournals(); }, config);
  if (const Status status = committer->Start(); !status.ok()) {
    PILEUS_LOG(kError) << "group committer failed to start, falling back to "
                          "inline sync: "
                       << status;
  }
  node->DeferAcks(
      [raw = committer.get()](GroupCommitter::AckFn ack) {
        raw->AckAfterSync(std::move(ack));
      });
  return committer;
}

}  // namespace pileus::persist
