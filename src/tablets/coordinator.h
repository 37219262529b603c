// Tablet coordinator: the single writer of a table's TabletMap
// (DESIGN.md Sections 14 and 15).
//
// The coordinator owns the authoritative map — which key range lives where,
// under which per-tablet ConfigEpoch — and executes the operations that
// change it: splits and live migrations. Storage nodes install each new map
// version monotonically and fence misrouted requests with kWrongTablet, so
// correctness never depends on every node (or any client) having the latest
// map; stale parties are redirected by the fences.
//
// Live migration reuses the Section 6.2 epoch/fencing machinery per tablet:
//   1. The target starts a secondary copy and catches up via ranged Sync
//      pulls while the source keeps serving (no unavailability yet).
//   2. Cutover: the new map (epoch+1, target as primary) is installed on the
//      SOURCE first, which demotes it and fences writes for the range —
//      this instant opens the write-unavailability window.
//   3. A final drain pull (Sync is control traffic, never fenced) moves the
//      last acked writes, then the map is installed on the target, which
//      promotes it — closing the window. Promotion seeds the timestamp
//      allocator above everything transferred, so update timestamps stay
//      strictly increasing across the move.
// A failure after cutover rolls forward or back under yet another epoch;
// in every interleaving at most one node accepts writes for the range and
// no acked write is dropped.
//
// Crash safety (Section 15): with Options::intent_log_path set, the
// coordinator journals a TabletIntent before each phase with external
// effects and a full-map commit record when the operation completes, both
// fsynced through the same record framing as the tablet WAL. Recover()
// replays the log, takes over the leadership lease under a fresh
// coordinator epoch (stamped into every published map so storage nodes
// fence the deposed writer), and CompleteRecovery() drives any in-flight
// operation to convergence — forward past the cutover fence when both
// endpoints answer, or back under the intent's pre-assigned rollback epoch
// — so no crash leaves a range fenced. Crash points (sim::FaultInjector)
// mark every phase boundary for the torture matrix in tablets_test.cc.
//
// Like reconfig::FailoverCoordinator, this is an in-process control plane:
// it drives registered StorageNodes directly (the experiment runner models
// partitions through the `reachable` hook) rather than owning a transport.

#ifndef PILEUS_SRC_TABLETS_COORDINATOR_H_
#define PILEUS_SRC_TABLETS_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/sim/fault_injector.h"
#include "src/storage/storage_node.h"
#include "src/tablets/intent_log.h"
#include "src/tablets/manager.h"
#include "src/tablets/rebalancer.h"
#include "src/tablets/tablet_map.h"
#include "src/telemetry/metrics.h"

namespace pileus::tablets {

class TabletCoordinator {
 public:
  struct Options {
    // Reachability oracle consulted before touching a node; null = always
    // reachable. The churn runner wires this to its partition model.
    std::function<bool(const std::string& node)> reachable;

    // --- Durable control plane (DESIGN.md Section 15) ---

    // Path of the coordinator intent log. Empty = legacy in-memory mode:
    // no durability, no leadership fencing, pre-Section-15 behavior.
    std::string intent_log_path;
    // This coordinator's identity in lease records. A restart under the
    // same name retakes its own lease immediately; a different name (a
    // standby) must wait out the expiry.
    std::string coordinator_name = "coordinator";
    // Leadership lease duration; 0 = leases never expire locally (single
    // coordinator), though a standby still fences by epoch after takeover.
    MicrosecondCount lease_duration_us = 0;
    // Crash-point registry for the torture harness (not owned; may be
    // null). Phase boundaries fire "tablets.*" points; the intent log's
    // durability path fires "persist.intent_log.after_sync".
    sim::FaultInjector* fault_injector = nullptr;
  };

  // Versions per catch-up pull and the cap on pre-cutover rounds (the final
  // post-fence drain is not capped: the source is fenced, so the remainder
  // is finite).
  static constexpr uint32_t kCatchupBatch = 512;
  static constexpr int kMaxCatchupRounds = 256;

  // `initial` must validate; its version is bumped to at least 1. In-memory
  // only — use Recover() for the durable, failover-capable coordinator.
  TabletCoordinator(TabletMap initial, Clock* clock, Options options);
  TabletCoordinator(TabletMap initial, Clock* clock)
      : TabletCoordinator(std::move(initial), clock, Options()) {}

  // Opens the intent log at options.intent_log_path, replays it, and takes
  // over leadership: the durable committed map (or `seed` on first boot)
  // becomes the authority, and the coordinator epoch becomes last+1.
  // Fails with kUnavailable while another holder's lease is live.
  // The caller must RegisterNode() the fleet and then CompleteRecovery()
  // to finish or roll back any in-flight operation and publish the map.
  static Result<std::unique_ptr<TabletCoordinator>> Recover(TabletMap seed,
                                                            Clock* clock,
                                                            Options options);

  // Drives the recovered in-flight intent (if any) to convergence per the
  // Section 15 decision table — resume forward or roll back — then
  // publishes the map. Idempotent once it returns Ok.
  Status CompleteRecovery();

  // Extends this coordinator's lease; mutating operations fail with
  // kNotPrimary once the lease expires un-renewed.
  Status RenewLease();
  bool IsLeader() const;
  uint64_t coordinator_epoch() const { return coordinator_epoch_; }
  MicrosecondCount lease_expiry_us() const { return lease_expiry_us_; }
  // The recovered-but-unfinished operation (empty after CompleteRecovery).
  const std::optional<TabletIntent>& pending_intent() const {
    return pending_intent_;
  }

  // Every crash point the split / migration flows visit, for matrix tests.
  static const std::vector<std::string>& SplitCrashPoints();
  static const std::vector<std::string>& MigrationCrashPoints();

  const TabletMap& map() const { return map_; }
  const std::string& table() const { return map_.table; }

  // Registers a node the coordinator may place tablets on. Not owned; must
  // outlive the coordinator.
  void RegisterNode(storage::StorageNode* node);

  // Registers pileus_tablet_{splits,migrations,migration_failures}_total and
  // the pileus_tablet_migration_window_us histogram (the fence-to-promote
  // write-unavailability window). The registry is not owned.
  void EnableTelemetry(telemetry::MetricsRegistry* registry);

  // Installs the current map on every registered, reachable node. Returns
  // the first install refusal (a refusal means a node claims a newer map —
  // a split coordinator brain, which should be loud); unreachable nodes are
  // skipped silently and caught up by the next publish.
  Status PublishMap();

  // Splits the tablet containing `split_key` at that key on every reachable
  // member (the primary must be reachable), then publishes the map with the
  // entry retiled into [begin, key) and [key, end).
  Status ExecuteSplit(std::string_view split_key);

  // Live-migrates the tablet whose range begins at `range_begin` so that
  // `to` becomes its primary (replacing the current primary in the member
  // set). See the file comment for the protocol and its crash story.
  Status ExecuteMigration(std::string_view range_begin, const std::string& to);

  // One policy tick: samples per-tablet load from every reachable node,
  // refreshes the map's advisory stats, asks `rebalancer` for a plan, and
  // executes it. Returns the actions attempted (telemetry counts failures).
  std::vector<RebalanceAction> RunRebalanceRound(const Rebalancer& rebalancer);

  // Per-tablet loads as last sampled (rebalancer input; exposed for tests).
  std::vector<TabletLoad> SampleLoads();

  uint64_t splits() const { return splits_; }
  uint64_t migrations() const { return migrations_; }
  uint64_t migration_failures() const { return migration_failures_; }

 private:
  struct Member {
    storage::StorageNode* node = nullptr;  // Not owned.
    std::unique_ptr<TabletManager> manager;
  };

  bool Reachable(const std::string& node) const {
    return !options_.reachable || options_.reachable(node);
  }
  bool durable() const { return intent_log_.is_open(); }
  Member* FindMember(const std::string& name);
  // Pulls `range` versions from `source` into `target`'s tablets inside the
  // range, through a ranged replication agent, until the source has no
  // more (or `max_rounds` pre-cutover rounds pass). Failures are
  // kUnavailable.
  Status CatchUp(storage::StorageNode* source, storage::StorageNode* target,
                 const KeyRange& range, int max_rounds);
  // Installs `map` on one node, requiring acceptance.
  Status InstallOn(storage::StorageNode* node, const TabletMap& map);

  // Returns kCancelled "crash point <name>" when the torture harness armed
  // `name`; the caller unwinds immediately, simulating a kill there. The
  // intent log (disk) survives; the coordinator object must be discarded.
  Status MaybeCrash(const char* point);
  // Fails mutating entry points once this coordinator's lease expired.
  Status CheckLeader() const;
  // Journals (intent-id-stamps) `intent` / the current map; no-ops when
  // running in-memory.
  Status JournalIntent(TabletIntent& intent);
  Status JournalCommit();

  // Shared by ExecuteSplit and recovery: node-side splits (skipping members
  // already hosting a child at the split key), retile, commit, publish.
  Status RunSplit(const TabletIntent& intent);
  // The cutover map this intent installs, rebuilt deterministically from
  // the current map + intent fields (identical live and in recovery).
  TabletMap BuildCutoverMap(const TabletIntent& intent) const;
  // Post-fence convergence: drain, promote, commit — or roll back on a
  // data-path failure (returning that failure; Ok = promoted).
  Status FinishMigration(const TabletIntent& intent, Member* source,
                         Member* target, MicrosecondCount window_start_us);
  // Re-fences the range to intent.from under the pre-assigned rollback
  // version/epoch (next+1). Idempotent: a re-run after the map already
  // shows the rollback is a no-op and burns no extra epoch.
  Status RunRollback(const TabletIntent& intent);
  // Recovery arms (Section 15 decision table).
  Status ResumeSplit(const TabletIntent& intent);
  Status AbortMigrationPrepare(const TabletIntent& intent);
  Status ResumeMigrationCutover(const TabletIntent& intent);

  void CountMigrationFailure();

  TabletMap map_;
  Clock* clock_;  // Not owned.
  Options options_;
  std::map<std::string, Member> members_;
  IntentLog intent_log_;
  uint64_t coordinator_epoch_ = 0;
  MicrosecondCount lease_expiry_us_ = 0;
  std::optional<TabletIntent> pending_intent_;
  uint64_t next_intent_id_ = 1;
  uint64_t splits_ = 0;
  uint64_t migrations_ = 0;
  uint64_t migration_failures_ = 0;
  telemetry::Counter* splits_counter_ = nullptr;
  telemetry::Counter* migrations_counter_ = nullptr;
  telemetry::Counter* migration_failures_counter_ = nullptr;
  telemetry::HistogramMetric* migration_window_us_ = nullptr;
};

}  // namespace pileus::tablets

#endif  // PILEUS_SRC_TABLETS_COORDINATOR_H_
