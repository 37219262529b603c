// The tablet-fleet deployment (DESIGN.md Section 14). The GeoTestbed hosts
// one static whole-keyspace tablet, so it cannot express splits or
// migrations. This world is a small fleet of storage nodes, a
// TabletCoordinator owning the table's TabletMap, and a dynamic ShardedClient
// that discovers ownership changes through kWrongTablet fences and map
// refreshes. While the workload runs, the coordinator continuously splits
// hot tablets, live-migrates ranges between nodes, and executes rebalancer
// plans; optionally its process is killed at protocol crash points and a
// standby recovers from the intent log. Afterwards the per-tablet committed
// logs, exported from each range's final primary, merge into one ground
// truth. Everything runs on a ManualClock, so a seed reproduces bit-for-bit.
//
// In the crash-restart scenario each node keeps every tablet it hosts as a
// DurableTablet under its data root, and a restart reopens that root.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <utility>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/core/sharded_client.h"
#include "src/experiments/deployment.h"
#include "src/server/node_host.h"
#include "src/workload/ycsb.h"
#include "src/sim/fault_injector.h"
#include "src/storage/storage_node.h"
#include "src/tablets/coordinator.h"
#include "src/tablets/rebalancer.h"

namespace pileus::experiments {

namespace {

constexpr const char* kChurnTable = "churn";
constexpr MicrosecondCount kRttUs = MillisecondsToMicroseconds(2);
constexpr MicrosecondCount kThinkUs = MillisecondsToMicroseconds(2);
constexpr int kNodeCount = 4;
// A churn action (split / migration / rebalance round, rotating) fires every
// this many workload ops.
constexpr uint64_t kChurnPeriodOps = 40;
// A killed coordinator stays dead this many workload ops before the standby
// recovers it.
constexpr uint64_t kCoordinatorDownOps = 30;

// One storage node "process": the node object is volatile state (destroyed
// on crash); in a crash-restart run its data root is its disk.
struct NodeSlot {
  std::string name;
  std::unique_ptr<storage::StorageNode> node;
  bool unreachable = false;  // Partitioned away from everyone.
  bool crashed = false;
};

// Direct call into a slot's node, advancing the shared manual clock by the
// RTT. A crashed or partitioned slot answers kUnavailable after the same
// delay (the caller's timeout experience is immaterial to the audit). A
// durable node's tablets journal each write before the node acks it.
class ChurnConnection : public core::NodeConnection {
 public:
  ChurnConnection(NodeSlot* slot, ManualClock* clock)
      : slot_(slot), clock_(clock) {}

  core::TimedReply Call(const proto::Message& request,
                        MicrosecondCount /*timeout*/) override {
    clock_->AdvanceMicros(kRttUs);
    if (slot_->crashed || slot_->unreachable || slot_->node == nullptr) {
      return core::TimedReply(
          Status(StatusCode::kUnavailable, "node " + slot_->name + " is down"),
          kRttUs);
    }
    return core::TimedReply(slot_->node->Handle(request), kRttUs);
  }

 private:
  NodeSlot* slot_;      // Not owned; outlives the connection.
  ManualClock* clock_;  // Not owned.
};

class TabletFleetDeployment : public Deployment {
 public:
  explicit TabletFleetDeployment(const ScenarioOptions& options)
      : options_(options), clock_(SecondsToMicroseconds(100)) {}

  Status Supports(const ScenarioOptions& options) const override {
    return CheckSupport(options, "the tablet fleet",
                        {FaultScenario::kNone, FaultScenario::kPartition,
                         FaultScenario::kCrashRestart},
                        /*coordinator_kill=*/true);
  }

  Status Build(core::OpObserver* observer) override {
    slots_.reserve(kNodeCount);
    for (int i = 0; i < kNodeCount; ++i) {
      auto slot = std::make_unique<NodeSlot>();
      slot->name = "n" + std::to_string(i + 1);
      PILEUS_RETURN_IF_ERROR(StartNode(*slot).status());
      slots_.push_back(std::move(slot));
    }

    // Two seed tablets split at the key-space midpoint, on the first two
    // nodes; churn takes it from there.
    const std::string midpoint = workload::YcsbWorkload::KeyForIndex(
        static_cast<uint64_t>(options_.key_count / 2));
    tablets::TabletMap initial;
    initial.table = kChurnTable;
    initial.version = 1;
    initial.tablets.push_back(MakeEntry(KeyRange{"", midpoint}, Slot(0).name));
    initial.tablets.push_back(MakeEntry(KeyRange{midpoint, ""}, Slot(1).name));
    for (const tablets::TabletInfo& info : initial.tablets) {
      storage::Tablet::Options tablet_options;
      tablet_options.range = info.range;
      tablet_options.is_primary = true;
      PILEUS_RETURN_IF_ERROR(
          FindSlot(info.config.primary)->node->AddTablet(kChurnTable,
                                                         tablet_options));
    }

    initial_map_ = initial;
    if (options_.coordinator_kill) {
      PILEUS_RETURN_IF_ERROR(RecoverCoordinator());
    } else {
      coordinator_ = std::make_unique<tablets::TabletCoordinator>(
          initial, &clock_, MakeCoordinatorOptions());
      for (auto& slot : slots_) {
        coordinator_->RegisterNode(slot->node.get());
      }
      PILEUS_RETURN_IF_ERROR(coordinator_->PublishMap());
    }

    tablets::Rebalancer::Options policy;
    policy.split_threshold_bytes = 1024;
    rebalancer_ = std::make_unique<tablets::Rebalancer>(policy);

    core::PileusClient::Options client_options;
    client_options.op_observer = observer;
    client_options.seed = options_.seed;
    // Backoffs advance virtual time, like the simulator's RunFor adapter.
    client_options.sleep_fn = [this](MicrosecondCount us) {
      clock_.AdvanceMicros(us);
    };
    core::ShardedClient::RoutingOptions routing;
    routing.connect =
        [this](const std::string& name) -> std::shared_ptr<core::NodeConnection> {
      NodeSlot* slot = FindSlot(name);
      if (slot == nullptr) {
        return nullptr;
      }
      // Always connectable — a down node fails at call time, so the routing
      // table keeps the entry and ops fail fast instead of going unrouted.
      return std::make_shared<ChurnConnection>(slot, &clock_);
    };
    Result<std::unique_ptr<core::ShardedClient>> client =
        core::ShardedClient::Create(coordinator_->map(), &clock_,
                                    client_options, std::move(routing));
    PILEUS_RETURN_IF_ERROR(client.status());
    client_ = std::move(client).value();
    return Status::Ok();
  }

  std::vector<Frontend> frontends() override { return {client_.get()}; }

  // Every node is the sole replica of the tablets it owns, so kReplica picks
  // among the current owners (a crash then really interrupts serving). No
  // node holds a fleet-wide primary role.
  std::vector<std::string> Nodes(FaultEvent::Target target) override {
    std::vector<std::string> nodes;
    if (target == FaultEvent::Target::kAnyNode) {
      for (auto& slot : slots_) {
        nodes.push_back(slot->name);
      }
    } else if (target == FaultEvent::Target::kReplica) {
      const tablets::TabletMap& map = coordinator_ != nullptr
                                          ? coordinator_->map()
                                          : client_->tablet_map();
      for (const tablets::TabletInfo& info : map.tablets) {
        if (std::find(nodes.begin(), nodes.end(), info.config.primary) ==
            nodes.end()) {
          nodes.push_back(info.config.primary);
        }
      }
    }
    return nodes;
  }

  void Apply(const FaultEvent& event, const std::string& node) override {
    NodeSlot* slot = FindSlot(node);
    if (slot == nullptr) {
      return;
    }
    switch (event.kind) {
      case FaultEvent::Kind::kIsolate:
        slot->unreachable = true;
        break;
      case FaultEvent::Kind::kRejoin:
        slot->unreachable = false;
        if (coordinator_ != nullptr) {
          (void)coordinator_->PublishMap();  // Catch the healed node up.
        }
        break;
      case FaultEvent::Kind::kCrash:
        Crash(*slot);
        break;
      case FaultEvent::Kind::kRestart:
        // With the coordinator also down, defer to HealAll: the restart
        // sequence needs the live map to rebuild the node's tablets.
        if (slot->crashed && coordinator_ != nullptr) {
          (void)Restart(*slot);
        }
        break;
      default:
        break;  // Not offered; Supports rejects the scenarios that plan them.
    }
  }

  Status BeforeOp(uint64_t op) override {
    if (options_.coordinator_kill) {
      PILEUS_RETURN_IF_ERROR(DriveCoordinatorKill(op));
    }
    if (op > 0 && op % kChurnPeriodOps == 0) {
      ChurnStep(churn_step_++);
      if (coordinator_ != nullptr &&
          injector_.crash_points_fired() > kills_taken_) {
        // The armed crash point fired mid-phase: the coordinator process is
        // gone. Only its intent log survives; the data plane keeps serving
        // whatever the partially-executed operation left behind.
        kills_taken_ = injector_.crash_points_fired();
        coordinator_.reset();
        coordinator_down_until_ = op + kCoordinatorDownOps;
        ++coordinator_kills_;
      }
    }
    return Status::Ok();
  }

  void AfterOp() override { clock_.AdvanceMicros(kThinkUs); }

  Result<GroundTruth> Finish(ScenarioResult& result) override {
    if (coordinator_ == nullptr) {
      PILEUS_RETURN_IF_ERROR(RecoverCoordinator());
    }
    HealAll();
    // Ground truth: each range's committed log, exported from its final
    // primary, merged into one ascending-timestamp sequence. A key lives in
    // exactly one tablet at a time, so per-key order is exact. A primary's
    // tablets may be finer than the map's ranges (children of a split
    // abandoned at recovery) or coarser (an unsplit copy on a healed
    // member), so its export is cut to the keys the map gives it.
    GroundTruth truth;
    const tablets::TabletMap& map = coordinator_->map();
    for (auto& slot : slots_) {
      bool contiguous = true;
      for (proto::ObjectVersion& version :
           slot->node->ExportTableLog(kChurnTable, &contiguous)) {
        const tablets::TabletInfo* owner = map.OwnerOf(version.key);
        if (owner != nullptr && owner->config.primary == slot->name) {
          truth.versions.push_back(std::move(version));
        }
      }
      truth.complete = truth.complete && contiguous;
    }
    std::stable_sort(truth.versions.begin(), truth.versions.end(),
                     [](const proto::ObjectVersion& a,
                        const proto::ObjectVersion& b) {
                       return a.timestamp < b.timestamp;
                     });
    if (durable()) {  // Every tablet WAL the nodes wrote (deployment.h).
      for (const auto& file : std::filesystem::recursive_directory_iterator(
               options_.durable_root)) {
        if (file.path().filename() == "wal.log") {
          truth.wal_paths.push_back(file.path().string());
        }
      }
      std::ranges::sort(truth.wal_paths);
    }

    result.splits = coordinator_->splits();
    result.migrations = coordinator_->migrations();
    result.migration_failures = coordinator_->migration_failures();
    result.map_refreshes = client_->map_refreshes();
    result.final_tablets = coordinator_->map().tablets.size();
    result.final_map_version = coordinator_->map().version;
    result.coordinator_kills = coordinator_kills_;
    result.coordinator_recoveries = coordinator_recoveries_;
    result.restart_wal_versions = restart_wal_versions_;
    return truth;
  }

 private:
  bool durable() const {
    return options_.scenario == FaultScenario::kCrashRestart;
  }

  // A new node process for `slot`; a durable one reopens its data root.
  Result<std::vector<std::unique_ptr<persist::DurableTablet>>> StartNode(
      NodeSlot& slot) {
    slot.node =
        std::make_unique<storage::StorageNode>(slot.name, slot.name, &clock_);
    if (!durable()) {
      return std::vector<std::unique_ptr<persist::DurableTablet>>{};
    }
    return server::OpenDurableNode(slot.node.get(), kChurnTable,
                                   options_.durable_root + "/" + slot.name,
                                   std::nullopt, &clock_);
  }

  tablets::TabletInfo MakeEntry(KeyRange range, const std::string& primary) {
    tablets::TabletInfo info;
    info.range = std::move(range);
    info.config.epoch = 1;
    info.config.primary = primary;
    info.config.members = {primary};
    return info;
  }

  NodeSlot& Slot(size_t index) { return *slots_[index]; }
  NodeSlot* FindSlot(const std::string& name) {
    for (auto& slot : slots_) {
      if (slot->name == name) {
        return slot.get();
      }
    }
    return nullptr;
  }

  tablets::TabletCoordinator::Options MakeCoordinatorOptions() {
    tablets::TabletCoordinator::Options coord_options;
    coord_options.reachable = [this](const std::string& name) {
      return Reachable(name);
    };
    if (options_.coordinator_kill) {
      coord_options.intent_log_path =
          options_.durable_root + "/coordinator.intents";
      coord_options.fault_injector = &injector_;
    }
    return coord_options;
  }

  // One coordinator (re)start from the durable intent log: replay, take the
  // lease under the next epoch, finish or roll back the in-flight
  // operation, republish.
  Status RecoverCoordinator() {
    Result<std::unique_ptr<tablets::TabletCoordinator>> recovered =
        tablets::TabletCoordinator::Recover(initial_map_, &clock_,
                                            MakeCoordinatorOptions());
    PILEUS_RETURN_IF_ERROR(recovered.status());
    coordinator_ = std::move(*recovered);
    for (auto& slot : slots_) {
      if (slot->node != nullptr && !slot->crashed) {
        coordinator_->RegisterNode(slot->node.get());
      }
    }
    PILEUS_RETURN_IF_ERROR(coordinator_->CompleteRecovery());
    if (coordinator_kills_ > coordinator_recoveries_) {
      ++coordinator_recoveries_;
    }
    return Status::Ok();
  }

  // The full crash-point matrix, cycled starting at a seed-dependent offset
  // so a seed sweep covers every phase boundary.
  const std::string& NextKillPoint() {
    if (kill_points_.empty()) {
      kill_points_ = tablets::TabletCoordinator::SplitCrashPoints();
      const std::vector<std::string>& migration =
          tablets::TabletCoordinator::MigrationCrashPoints();
      kill_points_.insert(kill_points_.end(), migration.begin(),
                          migration.end());
      kill_cursor_ = options_.seed % kill_points_.size();
    }
    return kill_points_[kill_cursor_++ % kill_points_.size()];
  }

  // Coordinator-kill driver: while the coordinator is dead, bring the
  // standby up once the down window passes; while it is alive, arm a crash
  // point at the planned kill ops so the next churn action dies mid-phase.
  Status DriveCoordinatorKill(uint64_t op) {
    if (coordinator_ == nullptr) {
      if (op >= coordinator_down_until_) {
        PILEUS_RETURN_IF_ERROR(RecoverCoordinator());
      }
      return Status::Ok();
    }
    const uint64_t n = options_.total_ops;
    if (op == n * 25 / 100 || op == n * 55 / 100 || op == n * 80 / 100) {
      injector_.ArmCrashPoint(NextKillPoint());
    }
    return Status::Ok();
  }

  void Crash(NodeSlot& slot) {
    // Volatile state dies with the process; the data root is the disk. The
    // coordinator's reachability hook keeps it from touching the dead node.
    slot.crashed = true;
    slot.node.reset();
  }

  Status Restart(NodeSlot& slot) {
    // The node reopens its tablets as secondaries; adopting the live map
    // promotes its primaries above everything recovered.
    Result<std::vector<std::unique_ptr<persist::DurableTablet>>> recovered =
        StartNode(slot);
    PILEUS_RETURN_IF_ERROR(recovered.status());
    const tablets::TabletMap& map = coordinator_->map();
    for (const auto& tablet : *recovered) {
      restart_wal_versions_ += tablet->recovery_info().wal_versions;
      // A copy the live map gives to another node (say, a migration source
      // a killed coordinator never removed) is not served again.
      const KeyRange& range = tablet->tablet().range();
      const tablets::TabletInfo* owner = map.OwnerOf(range.begin);
      if (owner == nullptr || owner->config.primary != slot.name) {
        PILEUS_RETURN_IF_ERROR(slot.node->RemoveTablet(kChurnTable, range));
      }
    }
    // Adopt the live map and rejoin the control plane; the replaced member
    // gets a fresh TabletManager.
    slot.node->InstallTabletMap(map);
    slot.crashed = false;
    coordinator_->RegisterNode(slot.node.get());
    return Status::Ok();
  }

  void HealAll() {
    for (auto& slot : slots_) {
      if (slot->crashed) {
        (void)Restart(*slot);
      }
      slot->unreachable = false;
    }
    (void)coordinator_->PublishMap();
  }

  // A live node the coordinator and the client can reach.
  bool Reachable(const std::string& name) {
    const NodeSlot* slot = FindSlot(name);
    return slot != nullptr && !slot->unreachable && !slot->crashed;
  }

  // The median key of `load`'s tablet, read on its reachable primary.
  std::optional<std::string> MedianKey(const tablets::TabletLoad& load) {
    if (!Reachable(load.primary)) {
      return std::nullopt;
    }
    storage::StorageNode* node = FindSlot(load.primary)->node.get();
    return node->WithLock([&]() -> std::optional<std::string> {
      const storage::Tablet* tablet =
          node->FindTablet(kChurnTable, load.range.begin);
      return tablet == nullptr ? std::nullopt : tablet->MedianKey();
    });
  }

  // The node with the fewest primary tablets (migration destination),
  // excluding `not_this`; empty when no reachable candidate exists.
  std::string CoolestNode(const std::string& not_this) {
    std::map<std::string, int> primaries;
    for (auto& slot : slots_) {
      if (Reachable(slot->name)) {
        primaries[slot->name] = 0;
      }
    }
    for (const tablets::TabletInfo& info : coordinator_->map().tablets) {
      auto it = primaries.find(info.config.primary);
      if (it != primaries.end()) {
        ++it->second;
      }
    }
    std::string best;
    int best_count = 0;
    for (const auto& [name, count] : primaries) {
      if (name == not_this) {
        continue;
      }
      if (best.empty() || count < best_count) {
        best = name;
        best_count = count;
      }
    }
    return best;
  }

  void ChurnStep(int step) {
    if (coordinator_ == nullptr) {
      return;  // Control plane is dead; the data plane runs on.
    }
    switch (step % 3) {
      case 0: {  // Split the biggest reachable tablet at its median.
        std::vector<tablets::TabletLoad> loads = coordinator_->SampleLoads();
        std::sort(loads.begin(), loads.end(),
                  [](const tablets::TabletLoad& a,
                     const tablets::TabletLoad& b) {
                    return a.size_bytes > b.size_bytes;
                  });
        for (const tablets::TabletLoad& load : loads) {
          const std::optional<std::string> median = MedianKey(load);
          if (median.has_value() && load.range.IsSplittable(*median)) {
            (void)coordinator_->ExecuteSplit(*median);
            break;
          }
        }
        break;
      }
      case 1: {  // Migrate a round-robin tablet to the coolest node.
        const tablets::TabletMap& map = coordinator_->map();
        if (map.tablets.empty()) {
          break;
        }
        for (size_t probe = 0; probe < map.tablets.size(); ++probe) {
          const tablets::TabletInfo& info =
              map.tablets[(migrate_cursor_ + probe) % map.tablets.size()];
          const std::string to = CoolestNode(info.config.primary);
          if (!Reachable(info.config.primary) || to.empty()) {
            continue;
          }
          const std::string begin = info.range.begin;  // Migrating edits map.
          migrate_cursor_ =
              (migrate_cursor_ + probe + 1) % map.tablets.size();
          (void)coordinator_->ExecuteMigration(begin, to);
          break;
        }
        break;
      }
      case 2: {  // One planner round.
        std::vector<tablets::TabletLoad> loads = coordinator_->SampleLoads();
        for (tablets::TabletLoad& load : loads) {
          if (!rebalancer_->OverSplitThreshold(load)) {
            continue;
          }
          if (std::optional<std::string> median = MedianKey(load)) {
            load.split_key = *std::move(median);
          }
        }
        std::vector<std::string> nodes;
        for (auto& slot : slots_) {
          if (Reachable(slot->name)) {
            nodes.push_back(slot->name);
          }
        }
        for (const tablets::RebalanceAction& action :
             rebalancer_->Plan(loads, nodes)) {
          if (action.kind == tablets::RebalanceAction::Kind::kSplit) {
            (void)coordinator_->ExecuteSplit(action.split_key);
          } else {
            (void)coordinator_->ExecuteMigration(action.range.begin,
                                                 action.to);
          }
        }
        break;
      }
    }
  }

  const ScenarioOptions& options_;
  ManualClock clock_;
  std::vector<std::unique_ptr<NodeSlot>> slots_;
  std::unique_ptr<tablets::TabletCoordinator> coordinator_;
  std::unique_ptr<tablets::Rebalancer> rebalancer_;
  std::unique_ptr<core::ShardedClient> client_;
  int churn_step_ = 0;
  size_t migrate_cursor_ = 0;

  // Coordinator-kill state (inert unless options_.coordinator_kill).
  sim::FaultInjector injector_;
  tablets::TabletMap initial_map_;
  std::vector<std::string> kill_points_;
  size_t kill_cursor_ = 0;
  uint64_t kills_taken_ = 0;
  uint64_t coordinator_down_until_ = 0;
  uint64_t coordinator_kills_ = 0;
  uint64_t coordinator_recoveries_ = 0;
  uint64_t restart_wal_versions_ = 0;
};

}  // namespace

std::unique_ptr<Deployment> MakeTabletFleetDeployment(
    const ScenarioOptions& options) {
  return std::make_unique<TabletFleetDeployment>(options);
}

}  // namespace pileus::experiments
