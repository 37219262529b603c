// Asynchronous replication agent.
//
// Agents are co-located with secondary tablets and periodically pull new
// versions from a source copy — normally the primary, but any fresher copy
// works because updates flow in timestamp order (paper Section 4.1-4.3).
// Each pull asks for "versions with timestamps above my high timestamp"; an
// idle primary answers with a heartbeat that still advances the secondary's
// high timestamp so clients can discover the node is up to date.
//
// The agent writes into a storage node: it reads its progress and applies
// each reply under the node's request lock, so pulls never race the reads
// the node serves. It never holds that lock across the sync call itself.
//
// The agent core is a transport-free state machine (NextRequest / OnReply) so
// the deterministic simulation can drive it with scheduled events while real
// deployments use BlockingPuller (synchronous rounds over any callable) or
// ThreadedPuller (background thread + Channel).

#ifndef PILEUS_SRC_REPLICATION_REPLICATION_AGENT_H_
#define PILEUS_SRC_REPLICATION_REPLICATION_AGENT_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/proto/messages.h"
#include "src/storage/storage_node.h"
#include "src/storage/tablet.h"
#include "src/telemetry/metrics.h"
#include "src/util/key_range.h"

namespace pileus::replication {

// Unwraps the reply to a SyncRequest: an ErrorReply becomes its own status,
// any other message type kInternal.
Result<proto::SyncReply> ToSyncReply(Result<proto::Message> reply);

class ReplicationAgent {
 public:
  struct Options {
    std::string table;
    // The keys to replicate. Anything narrower than the whole keyspace makes
    // every pull a ranged one, and only the hosted tablets that lie inside
    // the range are read and advanced.
    KeyRange range = KeyRange::All();
    // Cap on versions per sync round trip (0 = unlimited). A pull never
    // splits a run of equal timestamps, so the actual count may slightly
    // exceed this.
    uint32_t max_versions_per_pull = 0;
  };

  // `target` is not owned and must outlive the agent.
  ReplicationAgent(storage::StorageNode* target, Options options)
      : target_(target), options_(std::move(options)) {}

  // Adapter for callers that track pull progress on a bare tablet: hosts it
  // (not owned) on an agent-owned node, so it runs the same code.
  ReplicationAgent(storage::Tablet* target, Options options);

  // The sync request to issue next: everything above the lowest high
  // timestamp of the target's tablets in the range.
  proto::SyncRequest NextRequest() const;

  // Applies one sync reply to the target node and, when it carried
  // versions, syncs the node's journals before returning. Returns whether
  // the source has more data pending (the caller should issue another
  // round), or the apply or sync failure.
  Result<bool> OnReply(const proto::SyncReply& reply);

  const Options& options() const { return options_; }

  uint64_t pulls_completed() const { return pulls_completed_; }
  uint64_t versions_applied() const { return versions_applied_; }

  // Registers pileus_replication_* metrics labeled with the table and the
  // given node label and feeds them on every OnReply: sync round trips,
  // versions applied, idle heartbeats, completed pulls, and a gauge holding
  // the target's high timestamp (its replication lag is the scrape time
  // minus this value). The registry is not owned and must outlive the agent.
  void EnableTelemetry(telemetry::MetricsRegistry* registry,
                       std::string_view node_label);

 private:
  struct Instruments {
    telemetry::Counter* syncs = nullptr;
    telemetry::Counter* versions = nullptr;
    telemetry::Counter* heartbeats = nullptr;
    telemetry::Counter* pulls = nullptr;
    telemetry::Gauge* high_timestamp_us = nullptr;
  };

  // Lowest high timestamp of the target's tablets inside the range (Zero
  // when there are none), read under the node lock.
  Timestamp HighTimestamp() const;

  std::unique_ptr<storage::StorageNode> owned_node_;  // Tablet adapter only.
  storage::StorageNode* target_;                      // Not owned.
  Options options_;
  uint64_t pulls_completed_ = 0;
  uint64_t versions_applied_ = 0;
  Instruments instruments_;
};

// Runs complete pull cycles (looping while the source reports has_more) over
// a synchronous sync function.
class BlockingPuller {
 public:
  using SyncFn =
      std::function<Result<proto::SyncReply>(const proto::SyncRequest&)>;

  BlockingPuller(ReplicationAgent* agent, SyncFn sync)
      : agent_(agent), sync_(std::move(sync)) {}

  // One full cycle, or at most `max_rounds` sync round trips when positive;
  // returns the number of versions applied.
  Result<int> PullOnce(int max_rounds = 0);

 private:
  ReplicationAgent* agent_;  // Not owned.
  SyncFn sync_;
};

// Background thread that starts a pull every `period_us` (start to start, so
// a slow pull does not stretch the period; one longer than the period is
// followed at once by the next) until stopped. Used by the real-transport
// deployments; the simulation schedules pulls itself.
class ThreadedPuller {
 public:
  ThreadedPuller(ReplicationAgent* agent, BlockingPuller::SyncFn sync,
                 MicrosecondCount period_us);
  ~ThreadedPuller() { Stop(); }

  ThreadedPuller(const ThreadedPuller&) = delete;
  ThreadedPuller& operator=(const ThreadedPuller&) = delete;

  void Stop();

  // Wakes the puller immediately (e.g. tests that don't want to wait out the
  // period).
  void PullNow();

 private:
  void Loop();

  ReplicationAgent* agent_;  // Not owned.
  BlockingPuller puller_;
  const MicrosecondCount period_us_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool pull_requested_ = false;
  std::thread thread_;
};

}  // namespace pileus::replication

#endif  // PILEUS_SRC_REPLICATION_REPLICATION_AGENT_H_
