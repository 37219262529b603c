// WAL group commit: many concurrent writers share one fsync.
//
// The durable write path appends to the WAL under the node lock, then
// registers an ack with the GroupCommitter instead of fsyncing inline. A
// background committer thread runs one Sync() per batch — bounded by
// max_batch acks or max_delay_us of waiting, whichever comes first — and
// then releases every registered ack. Because each ack is registered only
// AFTER its append reached the kernel, and the committer's sync happens
// after registration, every acked write is on stable storage: the
// zero-lost-acked-writes invariant of sync_every_append is preserved at a
// fraction of the fsync count.
//
// A write that was appended but whose batch had not synced at crash time is
// simply never acked — the client sees an unavailable/timeout and the replay
// may or may not contain the write, both acceptable outcomes.

#ifndef PILEUS_SRC_PERSIST_GROUP_COMMIT_H_
#define PILEUS_SRC_PERSIST_GROUP_COMMIT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"

namespace pileus::storage {
class StorageNode;
}  // namespace pileus::storage

namespace pileus::persist {

// Group-commit knobs (namespace scope so call sites can brace-initialize).
struct GroupCommitConfig {
  // Whether StartGroupCommit starts a committer at all.
  bool enabled = false;
  // Sync as soon as this many acks are waiting...
  size_t max_batch = 64;
  // ...or once the oldest waiting ack is this old.
  MicrosecondCount max_delay_us = 2000;
};

class GroupCommitter {
 public:
  // Performs the actual durability barrier (e.g. every journal's Sync()
  // under the node lock). Runs on the committer thread only.
  using SyncFn = std::function<Status()>;
  // Receives the outcome of the covering sync. Runs on the committer thread;
  // must not call back into the committer.
  using AckFn = std::function<void(const Status&)>;

  // Batches by config.max_batch and config.max_delay_us; `enabled` is the
  // caller's (StartGroupCommit's) business.
  GroupCommitter(SyncFn sync, GroupCommitConfig config)
      : sync_(std::move(sync)), config_(config) {}
  ~GroupCommitter() { Stop(); }

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  // Spawns the committer thread.
  Status Start();

  // Syncs and releases any remaining acks, then joins the thread. Idempotent.
  void Stop();

  // Registers `ack` to run after the next completed sync. The write being
  // acked must already be appended (happens-before this call). If the
  // committer is not running, syncs inline and acks immediately.
  void AckAfterSync(AckFn ack);

  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }
  uint64_t acked() const { return acked_.load(std::memory_order_relaxed); }

 private:
  void Loop();

  const SyncFn sync_;
  const GroupCommitConfig config_;

  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stopping_ = false;
  std::vector<AckFn> queue_;
  MicrosecondCount first_enqueue_us_ = 0;

  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> acked_{0};
};

// Starts a committer whose batch sync flushes every journal on `node` under
// the node's request lock, and makes the node defer mutation acks to it.
// Null when `config.enabled` is false. Destroy the committer before `node`.
std::unique_ptr<GroupCommitter> StartGroupCommit(
    storage::StorageNode* node, const GroupCommitConfig& config);

}  // namespace pileus::persist

#endif  // PILEUS_SRC_PERSIST_GROUP_COMMIT_H_
