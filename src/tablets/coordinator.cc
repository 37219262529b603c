#include "src/tablets/coordinator.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/replication/replication_agent.h"

namespace pileus::tablets {

namespace {

// The map entry whose range begins exactly at `begin` (tablet identity for
// control operations), or nullptr.
TabletInfo* EntryBeginningAt(TabletMap& map, std::string_view begin) {
  for (TabletInfo& info : map.tablets) {
    if (info.range.begin == begin) {
      return &info;
    }
  }
  return nullptr;
}

// Whether `node` already hosts a tablet beginning exactly at `key` — the
// marker that a node-side split at `key` already happened (recovery re-runs
// must not split twice).
bool HostsChildAt(storage::StorageNode* node, std::string_view table,
                  std::string_view key) {
  return node->WithLock([&] {
    const storage::Tablet* tablet = node->FindTablet(table, key);
    return tablet != nullptr && tablet->range().begin == key;
  });
}

}  // namespace

TabletCoordinator::TabletCoordinator(TabletMap initial, Clock* clock,
                                     Options options)
    : map_(std::move(initial)), clock_(clock), options_(std::move(options)) {
  assert(map_.Validate().ok() && "coordinator seeded with an invalid map");
  map_.version = std::max<uint64_t>(map_.version, 1);
}

Result<std::unique_ptr<TabletCoordinator>> TabletCoordinator::Recover(
    TabletMap seed, Clock* clock, Options options) {
  if (options.intent_log_path.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "Recover() needs Options::intent_log_path");
  }
  Result<IntentLog::RecoveredState> state =
      IntentLog::Recover(options.intent_log_path);
  if (!state.ok()) {
    return state.status();
  }

  // Leadership: a different holder must wait out the last journaled lease;
  // the same name restarting (kill -9 + restart) retakes it immediately.
  const MicrosecondCount now = clock->NowMicros();
  if (state->lease.epoch > 0 && state->lease.holder != options.coordinator_name &&
      options.lease_duration_us > 0 && now < state->lease.expiry_us) {
    return Status(StatusCode::kUnavailable,
                  "coordinator lease held by " + state->lease.holder +
                      " for another " +
                      std::to_string(state->lease.expiry_us - now) + "us");
  }

  TabletMap map = state->map.version > 0 ? std::move(state->map) : std::move(seed);
  if (!map.Validate().ok()) {
    return Status(StatusCode::kInvalidArgument,
                  "recovered/seed tablet map is invalid");
  }
  const uint64_t epoch = state->lease.epoch + 1;
  map.coordinator_epoch = epoch;

  Result<IntentLog> log =
      IntentLog::Open(options.intent_log_path, options.fault_injector);
  if (!log.ok()) {
    return log.status();
  }

  auto coordinator = std::unique_ptr<TabletCoordinator>(
      new TabletCoordinator(std::move(map), clock, std::move(options)));
  coordinator->intent_log_ = std::move(*log);
  coordinator->coordinator_epoch_ = epoch;
  coordinator->pending_intent_ = std::move(state->intent);
  coordinator->next_intent_id_ = state->next_intent_id;
  PILEUS_RETURN_IF_ERROR(coordinator->RenewLease());
  if (state->map.version == 0) {
    // First boot: commit the seed so a standby recovers the same authority.
    PILEUS_RETURN_IF_ERROR(coordinator->JournalCommit());
  }
  return coordinator;
}

Status TabletCoordinator::RenewLease() {
  if (!durable()) {
    return Status::Ok();
  }
  CoordinatorLease lease;
  lease.epoch = coordinator_epoch_;
  lease.holder = options_.coordinator_name;
  lease.expiry_us = options_.lease_duration_us == 0
                        ? 0
                        : clock_->NowMicros() + options_.lease_duration_us;
  PILEUS_RETURN_IF_ERROR(intent_log_.WriteLease(lease));
  lease_expiry_us_ = lease.expiry_us;
  return Status::Ok();
}

bool TabletCoordinator::IsLeader() const {
  if (!durable() || options_.lease_duration_us == 0) {
    return true;
  }
  return clock_->NowMicros() < lease_expiry_us_;
}

Status TabletCoordinator::CheckLeader() const {
  if (IsLeader()) {
    return Status::Ok();
  }
  return Status(StatusCode::kNotPrimary,
                options_.coordinator_name +
                    "'s coordinator lease expired (epoch " +
                    std::to_string(coordinator_epoch_) + ")");
}

Status TabletCoordinator::MaybeCrash(const char* point) {
  if (options_.fault_injector != nullptr &&
      options_.fault_injector->ShouldCrash(point)) {
    return Status(StatusCode::kCancelled,
                  std::string("crash point ") + point);
  }
  return Status::Ok();
}

Status TabletCoordinator::JournalIntent(TabletIntent& intent) {
  if (!durable()) {
    return Status::Ok();
  }
  if (intent.intent_id == 0) {
    intent.intent_id = next_intent_id_++;
  }
  return intent_log_.WriteIntent(intent);
}

Status TabletCoordinator::JournalCommit() {
  if (!durable()) {
    return Status::Ok();
  }
  return intent_log_.CommitMap(map_);
}

const std::vector<std::string>& TabletCoordinator::SplitCrashPoints() {
  static const std::vector<std::string> kPoints = {
      "tablets.split.before_intent",
      "persist.intent_log.after_sync",
      "tablets.split.after_intent",
      "tablets.split.after_node_split",
      "tablets.split.after_commit",
  };
  return kPoints;
}

const std::vector<std::string>& TabletCoordinator::MigrationCrashPoints() {
  static const std::vector<std::string> kPoints = {
      "tablets.migration.before_intent",
      "persist.intent_log.after_sync",
      "tablets.migration.after_prepare_intent",
      "tablets.migration.after_catchup",
      "tablets.migration.after_cutover_intent",
      "tablets.migration.after_fence",
      "tablets.migration.after_drain",
      "tablets.migration.after_promote",
      "tablets.migration.after_commit",
      "tablets.rollback.after_intent",
      "tablets.rollback.after_install",
  };
  return kPoints;
}

void TabletCoordinator::RegisterNode(storage::StorageNode* node) {
  Member member;
  member.node = node;
  member.manager = std::make_unique<TabletManager>(node, clock_);
  members_[node->name()] = std::move(member);
}

void TabletCoordinator::EnableTelemetry(telemetry::MetricsRegistry* registry) {
  if (registry == nullptr) {
    splits_counter_ = nullptr;
    migrations_counter_ = nullptr;
    migration_failures_counter_ = nullptr;
    migration_window_us_ = nullptr;
    return;
  }
  const auto labeled = [&](std::string_view base) {
    return telemetry::WithLabels(base, {{"table", map_.table}});
  };
  splits_counter_ = registry->GetCounter(labeled("pileus_tablet_splits_total"));
  migrations_counter_ =
      registry->GetCounter(labeled("pileus_tablet_migrations_total"));
  migration_failures_counter_ =
      registry->GetCounter(labeled("pileus_tablet_migration_failures_total"));
  migration_window_us_ =
      registry->GetHistogram(labeled("pileus_tablet_migration_window_us"));
}

TabletCoordinator::Member* TabletCoordinator::FindMember(
    const std::string& name) {
  auto it = members_.find(name);
  return it == members_.end() ? nullptr : &it->second;
}

Status TabletCoordinator::InstallOn(storage::StorageNode* node,
                                    const TabletMap& map) {
  if (!node->InstallTabletMap(map)) {
    return Status(StatusCode::kInternal,
                  node->name() + " refused tablet map v" +
                      std::to_string(map.version) + " for " + map.table);
  }
  return Status::Ok();
}

Status TabletCoordinator::PublishMap() {
  Status first_refusal = Status::Ok();
  for (auto& [name, member] : members_) {
    if (!Reachable(name)) {
      continue;  // Next publish (or a fence-driven refresh) catches it up.
    }
    const Status status = InstallOn(member.node, map_);
    if (!status.ok() && first_refusal.ok()) {
      first_refusal = status;
    }
  }
  return first_refusal;
}

void TabletCoordinator::CountMigrationFailure() {
  ++migration_failures_;
  if (migration_failures_counter_ != nullptr) {
    migration_failures_counter_->Increment();
  }
}

Status TabletCoordinator::ExecuteSplit(std::string_view split_key) {
  PILEUS_RETURN_IF_ERROR(CheckLeader());
  const TabletInfo* entry = map_.OwnerOf(split_key);
  if (entry == nullptr) {
    return Status(StatusCode::kNotFound,
                  "no tablet covers key '" + std::string(split_key) + "'");
  }
  if (!entry->range.IsSplittable(split_key)) {
    return Status(StatusCode::kInvalidArgument,
                  "split key '" + std::string(split_key) +
                      "' is not strictly inside " + entry->range.ToString());
  }
  Member* primary = FindMember(entry->config.primary);
  if (primary == nullptr || !Reachable(entry->config.primary)) {
    return Status(StatusCode::kUnavailable,
                  "primary " + entry->config.primary + " unreachable");
  }

  TabletIntent intent;
  intent.phase = IntentPhase::kSplitPrepare;
  intent.table = map_.table;
  intent.range = entry->range;
  intent.split_key = std::string(split_key);
  intent.next_version = map_.version + 1;
  intent.next_epoch = entry->config.epoch;
  intent.coordinator_epoch = coordinator_epoch_;
  intent.started_us = clock_->NowMicros();
  PILEUS_RETURN_IF_ERROR(MaybeCrash("tablets.split.before_intent"));
  PILEUS_RETURN_IF_ERROR(JournalIntent(intent));
  PILEUS_RETURN_IF_ERROR(MaybeCrash("tablets.split.after_intent"));

  return RunSplit(intent);
}

Status TabletCoordinator::RunSplit(const TabletIntent& intent) {
  TabletInfo* entry = EntryBeginningAt(map_, intent.range.begin);
  if (entry == nullptr || entry->range != intent.range) {
    return Status(StatusCode::kInternal,
                  "split intent names a range the map no longer holds");
  }
  Member* primary = FindMember(entry->config.primary);
  if (primary == nullptr || !Reachable(entry->config.primary)) {
    // Nothing is fenced by a split; abandon the intent rather than leave it
    // replaying forever against an unreachable primary.
    PILEUS_RETURN_IF_ERROR(JournalCommit());
    return Status(StatusCode::kUnavailable,
                  "primary " + entry->config.primary + " unreachable");
  }

  // Split every reachable member's copy; the primary is mandatory (its copy
  // feeds replication for both children). A partitioned secondary keeps its
  // unsplit tablet, which is harmless: it covers both children's keys, and
  // routing is governed by the map, not by tablet boundaries. Members that
  // already host a child at the split key were split by the crashed run.
  if (!HostsChildAt(primary->node, map_.table, intent.split_key)) {
    PILEUS_RETURN_IF_ERROR(
        primary->node->SplitTablet(map_.table, intent.split_key));
  }
  for (const std::string& name : entry->config.members) {
    if (name == entry->config.primary) {
      continue;
    }
    Member* member = FindMember(name);
    if (member != nullptr && Reachable(name) &&
        !HostsChildAt(member->node, map_.table, intent.split_key)) {
      (void)member->node->SplitTablet(map_.table, intent.split_key);
    }
  }
  PILEUS_RETURN_IF_ERROR(MaybeCrash("tablets.split.after_node_split"));

  // Retile the entry; both children inherit the parent's config. Size/ops
  // are advisory, so a rough halving holds until the next sample.
  TabletMap next = map_;
  next.version = intent.next_version;
  next.coordinator_epoch = coordinator_epoch_;
  for (size_t i = 0; i < next.tablets.size(); ++i) {
    if (next.tablets[i].range != entry->range) {
      continue;
    }
    TabletInfo lower = next.tablets[i];
    TabletInfo upper = next.tablets[i];
    lower.range.end = intent.split_key;
    upper.range.begin = intent.split_key;
    lower.size_bytes /= 2;
    upper.size_bytes -= lower.size_bytes;
    lower.ops_per_sec /= 2;
    upper.ops_per_sec -= lower.ops_per_sec;
    next.tablets[i] = std::move(lower);
    next.tablets.insert(next.tablets.begin() + static_cast<long>(i) + 1,
                        std::move(upper));
    break;
  }
  map_ = std::move(next);
  PILEUS_RETURN_IF_ERROR(JournalCommit());
  PILEUS_RETURN_IF_ERROR(MaybeCrash("tablets.split.after_commit"));
  ++splits_;
  if (splits_counter_ != nullptr) {
    splits_counter_->Increment();
  }
  return PublishMap();
}

Status TabletCoordinator::CatchUp(storage::StorageNode* source,
                                  storage::StorageNode* target,
                                  const KeyRange& range, int max_rounds) {
  replication::ReplicationAgent agent(
      target, {.table = map_.table,
               .range = range,
               .max_versions_per_pull = kCatchupBatch});
  // Pre-cutover catch-up stops after `max_rounds` even when the source
  // still reports more: it keeps taking writes, so a never-converging pull
  // is expected under heavy load. The caller fences the source and drains
  // the (now finite) remainder.
  replication::BlockingPuller puller(
      &agent, [source](const proto::SyncRequest& request) {
        return replication::ToSyncReply(source->Handle(request));
      });
  if (const Result<int> pulled = puller.PullOnce(max_rounds); !pulled.ok()) {
    return Status(StatusCode::kUnavailable,
                  "catch-up pull from " + source->name() +
                      " failed: " + pulled.status().message());
  }
  return Status::Ok();
}

TabletMap TabletCoordinator::BuildCutoverMap(const TabletIntent& intent) const {
  TabletMap next = map_;
  next.version = intent.next_version;
  next.coordinator_epoch = coordinator_epoch_;
  TabletInfo* entry = EntryBeginningAt(next, intent.range.begin);
  if (entry == nullptr) {
    return next;  // Caller validates the entry exists first.
  }
  entry->config.epoch = intent.next_epoch;
  entry->config.primary = intent.to;
  std::replace(entry->config.members.begin(), entry->config.members.end(),
               intent.from, intent.to);
  if (!entry->config.IsMember(intent.to)) {
    entry->config.members.push_back(intent.to);
  }
  entry->config.sync_members.erase(
      std::remove(entry->config.sync_members.begin(),
                  entry->config.sync_members.end(), intent.from),
      entry->config.sync_members.end());
  return next;
}

Status TabletCoordinator::ExecuteMigration(std::string_view range_begin,
                                           const std::string& to) {
  PILEUS_RETURN_IF_ERROR(CheckLeader());
  TabletInfo* entry = EntryBeginningAt(map_, range_begin);
  if (entry == nullptr) {
    return Status(StatusCode::kNotFound,
                  "no tablet begins at '" + std::string(range_begin) + "'");
  }
  const std::string from = entry->config.primary;
  const KeyRange range = entry->range;
  if (from == to) {
    return Status(StatusCode::kInvalidArgument,
                  to + " already holds the primary for " + range.ToString());
  }
  Member* source = FindMember(from);
  Member* target = FindMember(to);
  if (source == nullptr || target == nullptr) {
    return Status(StatusCode::kNotFound, "unregistered migration endpoint");
  }
  if (!Reachable(from) || !Reachable(to)) {
    return Status(StatusCode::kUnavailable, "migration endpoint unreachable");
  }

  const bool target_hosts = target->node->WithLock([&] {
    return target->node->FindTablet(map_.table, range.begin) != nullptr;
  });
  TabletIntent intent;
  intent.phase = IntentPhase::kMigrationPrepare;
  intent.table = map_.table;
  intent.range = range;
  intent.from = from;
  intent.to = to;
  intent.next_version = map_.version + 1;
  intent.next_epoch = entry->config.epoch + 1;
  intent.target_hosted = target_hosts;
  intent.coordinator_epoch = coordinator_epoch_;
  intent.started_us = clock_->NowMicros();
  PILEUS_RETURN_IF_ERROR(MaybeCrash("tablets.migration.before_intent"));
  PILEUS_RETURN_IF_ERROR(JournalIntent(intent));
  PILEUS_RETURN_IF_ERROR(MaybeCrash("tablets.migration.after_prepare_intent"));

  // Phase 1: target starts a secondary copy and catches up while the source
  // keeps serving. No unavailability, no map change yet — aborting here
  // just leaves a stray secondary we remove (and a journaled intent we
  // commit away).
  if (!target_hosts) {
    storage::Tablet::Options tablet_options;
    tablet_options.range = range;
    tablet_options.is_primary = false;
    PILEUS_RETURN_IF_ERROR(target->node->AddTablet(map_.table, tablet_options));
  }
  Status caught_up =
      CatchUp(source->node, target->node, range, kMaxCatchupRounds);
  if (!caught_up.ok()) {
    if (!target_hosts) {
      (void)target->node->RemoveTablet(map_.table, range);
    }
    PILEUS_RETURN_IF_ERROR(JournalCommit());
    CountMigrationFailure();
    return caught_up;
  }
  PILEUS_RETURN_IF_ERROR(MaybeCrash("tablets.migration.after_catchup"));

  // Phase 2: cutover. Journal the phase first — from here a crash may leave
  // the source fenced, and recovery must know to drive this exact map
  // forward (or roll it back) rather than guess. Then install the next map
  // on the SOURCE — demoting and fencing it opens the write-unavailability
  // window.
  intent.phase = IntentPhase::kMigrationCutover;
  PILEUS_RETURN_IF_ERROR(JournalIntent(intent));
  PILEUS_RETURN_IF_ERROR(MaybeCrash("tablets.migration.after_cutover_intent"));

  TabletMap next = BuildCutoverMap(intent);
  const MicrosecondCount window_start_us = clock_->NowMicros();
  const Status fenced = InstallOn(source->node, next);
  if (!fenced.ok()) {
    // Nothing installed: the refusal is atomic. Clear the intent and stop.
    if (!target_hosts) {
      (void)target->node->RemoveTablet(map_.table, range);
    }
    PILEUS_RETURN_IF_ERROR(JournalCommit());
    CountMigrationFailure();
    return fenced;
  }
  // Point of no return: the source is fenced under the intent's version, so
  // the coordinator must adopt that version whatever happens next.
  map_ = std::move(next);
  PILEUS_RETURN_IF_ERROR(MaybeCrash("tablets.migration.after_fence"));

  return FinishMigration(intent, source, target, window_start_us);
}

Status TabletCoordinator::FinishMigration(const TabletIntent& intent,
                                          Member* source, Member* target,
                                          MicrosecondCount window_start_us) {
  // Phase 3: drain the last acked writes (Sync is never fenced), then
  // promote the target by installing the map there.
  Status drained =
      CatchUp(source->node, target->node, intent.range, /*max_rounds=*/0);
  if (drained.ok()) {
    PILEUS_RETURN_IF_ERROR(MaybeCrash("tablets.migration.after_drain"));
    drained = InstallOn(target->node, map_);
  }
  if (!drained.ok()) {
    // Roll back under the intent's pre-assigned rollback epoch: re-fence to
    // the old primary so the range regains a writable owner. Nothing acked
    // was dropped — the source never discarded its copy.
    PILEUS_RETURN_IF_ERROR(RunRollback(intent));
    return drained;
  }
  PILEUS_RETURN_IF_ERROR(MaybeCrash("tablets.migration.after_promote"));
  PILEUS_RETURN_IF_ERROR(JournalCommit());
  PILEUS_RETURN_IF_ERROR(MaybeCrash("tablets.migration.after_commit"));

  const MicrosecondCount window_us = clock_->NowMicros() - window_start_us;
  if (migration_window_us_ != nullptr) {
    migration_window_us_->Record(window_us);
  }

  // The range is writable again; cleanup and fan-out are off the window.
  (void)source->node->RemoveTablet(map_.table, intent.range);
  ++migrations_;
  if (migrations_counter_ != nullptr) {
    migrations_counter_->Increment();
  }
  return PublishMap();
}

Status TabletCoordinator::RunRollback(const TabletIntent& intent) {
  const uint64_t rollback_version = intent.next_version + 1;
  const uint64_t rollback_epoch = intent.next_epoch + 1;
  TabletInfo* current = EntryBeginningAt(map_, intent.range.begin);
  if (current == nullptr) {
    return Status(StatusCode::kInternal,
                  "rollback intent names a range the map no longer holds");
  }
  // Idempotent: if the map already shows the rollback (a recovery replay of
  // an already-rolled-back intent, or a double-rollback bug upstream), do
  // nothing — in particular, burn no additional epoch.
  if (current->config.primary == intent.from &&
      map_.version >= rollback_version) {
    return Status::Ok();
  }

  TabletIntent rollback_intent = intent;
  rollback_intent.phase = IntentPhase::kMigrationRollback;
  PILEUS_RETURN_IF_ERROR(JournalIntent(rollback_intent));
  PILEUS_RETURN_IF_ERROR(MaybeCrash("tablets.rollback.after_intent"));

  TabletMap rollback = map_;
  rollback.version = rollback_version;
  rollback.coordinator_epoch = coordinator_epoch_;
  TabletInfo* entry = EntryBeginningAt(rollback, intent.range.begin);
  entry->config.epoch = rollback_epoch;
  entry->config.primary = intent.from;
  if (!entry->config.IsMember(intent.from)) {
    std::replace(entry->config.members.begin(), entry->config.members.end(),
                 intent.to, intent.from);
  }
  if (!entry->config.IsMember(intent.from)) {
    entry->config.members.push_back(intent.from);
  }
  map_ = std::move(rollback);
  Member* source = FindMember(intent.from);
  if (source != nullptr && Reachable(intent.from)) {
    (void)InstallOn(source->node, map_);
  }
  PILEUS_RETURN_IF_ERROR(MaybeCrash("tablets.rollback.after_install"));
  Member* target = FindMember(intent.to);
  if (target != nullptr && !intent.target_hosted) {
    (void)target->node->RemoveTablet(map_.table, intent.range);
  }
  PILEUS_RETURN_IF_ERROR(JournalCommit());
  CountMigrationFailure();
  (void)PublishMap();
  return Status::Ok();
}

Status TabletCoordinator::ResumeSplit(const TabletIntent& intent) {
  // A split fences nothing, so recovery may simply re-run it: node-side
  // splits are skipped where the crashed run already performed them.
  const Status ran = RunSplit(intent);
  if (!ran.ok() && ran.code() != StatusCode::kCancelled) {
    // The re-run could not go through — typically the range's primary is
    // partitioned away, in which case RunSplit already abandoned the
    // intent. Nothing is fenced by a split, so the standby is healthy
    // regardless; the planner will re-propose the split if it is still
    // worth doing. Only a nested crash point (the torture matrix) aborts
    // recovery itself.
    return Status::Ok();
  }
  return ran;
}

Status TabletCoordinator::AbortMigrationPrepare(const TabletIntent& intent) {
  // No map change happened; the only debris is the secondary the crashed
  // run may have started on the target. Remove it (unless the target hosted
  // the range before) and commit the unchanged map to clear the intent. The
  // rebalancer will re-plan the move if it is still worth doing.
  Member* target = FindMember(intent.to);
  if (target != nullptr && !intent.target_hosted) {
    (void)target->node->RemoveTablet(map_.table, intent.range);
  }
  PILEUS_RETURN_IF_ERROR(JournalCommit());
  CountMigrationFailure();
  return Status::Ok();
}

Status TabletCoordinator::ResumeMigrationCutover(const TabletIntent& intent) {
  // The fenced map may or may not have reached the source; re-installing it
  // is idempotent either way (same-version re-installs are accepted and
  // re-apply roles). Prefer driving forward — the target already holds a
  // caught-up copy — and fall back to the pre-assigned rollback when the
  // target is gone.
  TabletInfo* entry = EntryBeginningAt(map_, intent.range.begin);
  if (entry == nullptr) {
    return Status(StatusCode::kInternal,
                  "cutover intent names a range the map no longer holds");
  }
  Member* source = FindMember(intent.from);
  Member* target = FindMember(intent.to);
  if (source == nullptr || !Reachable(intent.from) || target == nullptr ||
      !Reachable(intent.to)) {
    return RunRollback(intent);
  }
  const bool target_hosts = target->node->WithLock([&] {
    return target->node->FindTablet(map_.table, intent.range.begin) != nullptr;
  });
  if (!target_hosts) {
    // The crashed run fenced the source before the target finished (or
    // kept) its copy; going forward would promote an empty replica. Roll
    // back instead and let the planner retry the move from scratch.
    return RunRollback(intent);
  }
  TabletMap next = BuildCutoverMap(intent);
  const MicrosecondCount window_start_us = clock_->NowMicros();
  const Status fenced = InstallOn(source->node, next);
  if (!fenced.ok()) {
    return RunRollback(intent);
  }
  map_ = std::move(next);
  Status finished = FinishMigration(intent, source, target, window_start_us);
  if (!finished.ok() && finished.code() != StatusCode::kCancelled) {
    // A data-path failure rolled the migration back inside FinishMigration;
    // the map converged, which is all recovery promises. Only a nested
    // crash point (the torture matrix) aborts recovery itself.
    return Status::Ok();
  }
  return finished;
}

Status TabletCoordinator::CompleteRecovery() {
  if (pending_intent_.has_value()) {
    const TabletIntent intent = *pending_intent_;
    switch (intent.phase) {
      case IntentPhase::kSplitPrepare:
        PILEUS_RETURN_IF_ERROR(ResumeSplit(intent));
        break;
      case IntentPhase::kMigrationPrepare:
        PILEUS_RETURN_IF_ERROR(AbortMigrationPrepare(intent));
        break;
      case IntentPhase::kMigrationCutover:
        PILEUS_RETURN_IF_ERROR(ResumeMigrationCutover(intent));
        break;
      case IntentPhase::kMigrationRollback:
        PILEUS_RETURN_IF_ERROR(RunRollback(intent));
        break;
    }
    pending_intent_.reset();
  }
  return PublishMap();
}

std::vector<TabletLoad> TabletCoordinator::SampleLoads() {
  // One Sample() per reachable node, keyed back to map entries by range
  // begin. Stats stick to the entry whose primary reported them.
  std::map<std::string, TabletManager::TabletStat, std::less<>> by_begin;
  for (auto& [name, member] : members_) {
    if (!Reachable(name)) {
      continue;
    }
    for (TabletManager::TabletStat& stat : member.manager->Sample(map_.table)) {
      if (stat.is_primary) {
        by_begin[stat.range.begin] = std::move(stat);
      }
    }
  }
  std::vector<TabletLoad> loads;
  for (TabletInfo& info : map_.tablets) {
    auto it = by_begin.find(info.range.begin);
    if (it == by_begin.end()) {
      continue;  // Primary unreachable (or mid-churn); skip this round.
    }
    TabletLoad load;
    load.range = info.range;
    load.primary = info.config.primary;
    load.size_bytes = it->second.size_bytes;
    load.ops_per_sec = it->second.ops_per_sec;
    // Refresh the map's advisory stats for the CLI and map queries.
    info.size_bytes = load.size_bytes;
    info.ops_per_sec = load.ops_per_sec;
    loads.push_back(std::move(load));
  }
  return loads;
}

std::vector<RebalanceAction> TabletCoordinator::RunRebalanceRound(
    const Rebalancer& rebalancer) {
  if (!CheckLeader().ok()) {
    return {};  // A deposed coordinator must not plan (let alone execute).
  }
  std::vector<TabletLoad> loads = SampleLoads();

  // Attach split pivots for tablets over the planner's thresholds.
  for (TabletLoad& load : loads) {
    if (!rebalancer.OverSplitThreshold(load)) {
      continue;
    }
    Member* primary = FindMember(load.primary);
    if (primary == nullptr || !Reachable(load.primary)) {
      continue;
    }
    storage::StorageNode* node = primary->node;
    const KeyRange& range = load.range;
    std::optional<std::string> median = node->WithLock(
        [&]() -> std::optional<std::string> {
          const storage::Tablet* tablet =
              node->FindTablet(map_.table, range.begin);
          return tablet == nullptr ? std::nullopt : tablet->MedianKey();
        });
    if (median.has_value()) {
      load.split_key = *std::move(median);
    }
  }

  std::vector<std::string> nodes;
  for (const auto& [name, member] : members_) {
    if (Reachable(name)) {
      nodes.push_back(name);
    }
  }
  std::vector<RebalanceAction> actions = rebalancer.Plan(loads, nodes);
  for (const RebalanceAction& action : actions) {
    if (action.kind == RebalanceAction::Kind::kSplit) {
      (void)ExecuteSplit(action.split_key);
    } else {
      (void)ExecuteMigration(action.range.begin, action.to);
    }
  }
  return actions;
}

}  // namespace pileus::tablets
