#include "src/storage/storage_node.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace pileus::storage {

namespace {

proto::Message MakeError(StatusCode code, std::string message) {
  proto::ErrorReply err;
  err.code = code;
  err.message = std::move(message);
  return err;
}

proto::Message MakeError(const Status& status) {
  return MakeError(status.code(), status.message());
}

// The table a request addresses, empty for messages without one (replies,
// stats). Used to look up the installed map for reply stamping.
std::string_view TableOf(const proto::Message& request) {
  return std::visit(
      [](const auto& m) -> std::string_view {
        if constexpr (requires { m.table; }) {
          return m.table;
        } else {
          return {};
        }
      },
      request);
}

// The key whose tablet a request's reply speaks for: the key itself, a
// scan's first key, a ranged pull's first key, a commit's first write.
// nullopt for keyless requests (probes, whole-table pulls).
std::optional<std::string_view> KeyOf(const proto::Message& request) {
  if (const auto* range = std::get_if<proto::RangeRequest>(&request)) {
    return range->begin;
  }
  if (const auto* sync = std::get_if<proto::SyncRequest>(&request)) {
    return sync->has_range ? std::optional<std::string_view>(sync->range_begin)
                           : std::nullopt;
  }
  if (const auto* commit = std::get_if<proto::CommitRequest>(&request)) {
    return commit->writes.empty()
               ? std::nullopt
               : std::optional<std::string_view>(commit->writes.front().key);
  }
  return std::visit(
      [](const auto& m) -> std::optional<std::string_view> {
        if constexpr (requires { m.key; }) {
          return m.key;
        } else {
          return std::nullopt;
        }
      },
      request);
}

}  // namespace

StorageNode::StorageNode(std::string name, std::string site, Clock* clock)
    : name_(std::move(name)), site_(std::move(site)), clock_(clock) {}

Status StorageNode::AddTablet(std::string_view table,
                              Tablet::Options options) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& list = tablets_[std::string(table)];
  for (const auto& existing : list) {
    if (existing->range().Overlaps(options.range)) {
      return Status(StatusCode::kInvalidArgument,
                    "tablet range " + options.range.ToString() +
                        " overlaps existing " +
                        existing->range().ToString());
    }
  }
  list.push_back(std::make_unique<Tablet>(std::move(options), clock_));
  std::sort(list.begin(), list.end(),
            [](const std::unique_ptr<Tablet>& a,
               const std::unique_ptr<Tablet>& b) {
              return a->range().begin < b->range().begin;
            });
  return Status::Ok();
}

bool StorageNode::InstallTabletMap(const tablets::TabletMap& map,
                                   MicrosecondCount lease_expiry_us) {
  std::lock_guard<std::mutex> lock(mu_);
  return InstallTabletMapLocked(map, lease_expiry_us);
}

std::optional<tablets::TabletMap> StorageNode::InstalledTabletMap(
    std::string_view table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tablet_maps_.find(table);
  if (it == tablet_maps_.end()) {
    return std::nullopt;
  }
  return it->second.map;
}

bool StorageNode::InstallTabletMapLocked(const tablets::TabletMap& map,
                                         MicrosecondCount lease_expiry_us) {
  if (map.version == 0 || !map.Validate().ok()) {
    return false;
  }
  auto it = tablet_maps_.find(map.table);
  if (it != tablet_maps_.end() && map.version < it->second.map.version) {
    return false;  // Stale map: a fenced coordinator or delayed install.
  }
  // Coordinator-epoch fence (DESIGN.md Section 15): once a map from
  // coordinator epoch E is installed, a deposed coordinator at a lower
  // (non-legacy) epoch is refused outright — version monotonicity alone
  // cannot fence it, because both coordinators mint plausible versions.
  if (it != tablet_maps_.end() && map.coordinator_epoch != 0 &&
      map.coordinator_epoch < it->second.map.coordinator_epoch) {
    return false;
  }
  tablet_maps_[map.table] = InstalledMap{map, lease_expiry_us};
  // Roles follow the map immediately, including on a same-version
  // re-install (idempotent, so a lease renewal leaves tablets alone): the
  // migration cutover and a failover rely on the old primary being demoted
  // the instant it adopts the map that moves its range.
  ApplyTabletMapRolesLocked(map);
  RefreshTabletGaugesLocked();
  return true;
}

void StorageNode::ApplyTabletMapRolesLocked(const tablets::TabletMap& map) {
  auto it = tablets_.find(map.table);
  if (it == tablets_.end()) {
    return;
  }
  for (auto& tablet : it->second) {
    const tablets::TabletInfo* entry = map.OwnerOf(tablet->range().begin);
    if (entry == nullptr) {
      continue;
    }
    const bool is_primary = entry->config.primary == name_;
    tablet->SetPrimary(is_primary);
    tablet->SetSyncReplica(!is_primary && entry->config.IsSyncMember(name_));
  }
}

std::optional<proto::Message> StorageNode::CheckTabletRoutingLocked(
    std::string_view table, std::string_view key, bool write) const {
  auto it = tablet_maps_.find(table);
  if (it == tablet_maps_.end()) {
    return std::nullopt;  // No map installed: static placement decides.
  }
  const InstalledMap& installed = it->second;
  const tablets::TabletInfo* entry = installed.map.OwnerOf(key);
  if (entry == nullptr) {
    return std::nullopt;  // Map does not cover the key; fall through.
  }
  const reconfig::ConfigEpoch& config = entry->config;
  proto::ErrorReply err;
  if (!config.IsMember(name_)) {
    err.code = StatusCode::kWrongTablet;
    err.message = "tablet " + entry->range.ToString() +
                  " is not served by node " + name_;
    err.map_version = installed.map.version;
  } else if (!write) {
    return std::nullopt;
  } else if (config.primary != name_) {
    err.code = StatusCode::kNotPrimary;
    err.message = "node " + name_ + " is not the primary of tablet " +
                  entry->range.ToString() + " in epoch " +
                  std::to_string(config.epoch);
  } else if (installed.lease_expiry_us != 0 &&
             clock_->NowMicros() >= installed.lease_expiry_us) {
    // The coordinator may already have promoted someone else; refusing here
    // is what makes that promotion safe (self-fencing).
    err.code = StatusCode::kNotPrimary;
    err.message = "node " + name_ + " holds an expired lease on tablet " +
                  entry->range.ToString() + " in epoch " +
                  std::to_string(config.epoch);
  } else {
    return std::nullopt;
  }
  err.config_epoch = config.epoch;
  err.primary_hint = config.primary;
  return proto::Message(std::move(err));
}

void StorageNode::StampPlacementLocked(const proto::Message& request,
                                       proto::Message& reply) const {
  auto it = tablet_maps_.find(TableOf(request));
  if (it == tablet_maps_.end()) {
    return;
  }
  // A keyless request (a probe, a whole-table pull) is stamped only when a
  // single tablet spans the table: with several, no one entry speaks for
  // the node, and a client must not learn one tablet's primary for another.
  const tablets::TabletMap& map = it->second.map;
  const std::optional<std::string_view> key = KeyOf(request);
  const tablets::TabletInfo* entry =
      key.has_value()           ? map.OwnerOf(*key)
      : map.tablets.size() == 1 ? &map.tablets.front()
                                : nullptr;
  if (entry == nullptr) {
    return;
  }
  const reconfig::ConfigEpoch& config = entry->config;
  std::visit(
      [&config](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::ErrorReply>) {
          // Only a kNotPrimary rejection carries the redirect hint; other
          // errors say nothing about placement (a kWrongTablet fence already
          // carries its own).
          if (m.code == StatusCode::kNotPrimary) {
            m.config_epoch = config.epoch;
            m.primary_hint = config.primary;
          }
        } else if constexpr (requires { m.config_epoch; }) {
          m.config_epoch = config.epoch;
          m.primary_hint = config.primary;
        }
      },
      reply);
}

Status StorageNode::SplitTablet(std::string_view table,
                                std::string_view split_key) {
  std::lock_guard<std::mutex> lock(mu_);
  return SplitTabletLocked(table, split_key);
}

Status StorageNode::SplitTabletLocked(std::string_view table,
                                      std::string_view split_key) {
  auto it = tablets_.find(table);
  if (it == tablets_.end()) {
    return Status(StatusCode::kNotFound,
                  "node " + name_ + " hosts no tablets of table");
  }
  for (auto& tablet : it->second) {
    if (!tablet->range().Contains(split_key)) {
      continue;
    }
    Result<std::unique_ptr<Tablet>> upper = tablet->Split(split_key);
    if (!upper.ok()) {
      return upper.status();
    }
    it->second.push_back(std::move(upper).value());
    std::sort(it->second.begin(), it->second.end(),
              [](const std::unique_ptr<Tablet>& a,
                 const std::unique_ptr<Tablet>& b) {
                return a->range().begin < b->range().begin;
              });
    RefreshTabletGaugesLocked();
    return Status::Ok();
  }
  return Status(StatusCode::kNotFound,
                "no hosted tablet contains the split key");
}

Status StorageNode::RemoveTablet(std::string_view table,
                                 const KeyRange& range) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tablets_.find(table);
  if (it == tablets_.end()) {
    return Status(StatusCode::kNotFound,
                  "node " + name_ + " hosts no tablets of table");
  }
  for (auto t = it->second.begin(); t != it->second.end(); ++t) {
    if ((*t)->range() == range) {
      it->second.erase(t);
      if (it->second.empty()) {
        tablets_.erase(it);
      }
      RefreshTabletGaugesLocked();
      return Status::Ok();
    }
  }
  return Status(StatusCode::kNotFound,
                "node " + name_ + " hosts no tablet " + range.ToString());
}

std::vector<StorageNode::LocalTabletStat> StorageNode::LocalTabletStats(
    std::string_view table) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LocalTabletStat> out;
  auto it = tablets_.find(table);
  if (it == tablets_.end()) {
    return out;
  }
  out.reserve(it->second.size());
  for (const auto& tablet : it->second) {
    LocalTabletStat stat;
    stat.range = tablet->range();
    stat.is_primary = tablet->is_primary();
    stat.is_sync_replica = tablet->is_sync_replica();
    stat.size_bytes = tablet->ApproximateBytes();
    stat.ops_total = tablet->ops_total();
    stat.high_timestamp = tablet->high_timestamp();
    out.push_back(std::move(stat));
  }
  return out;
}

proto::Message StorageNode::HandleTabletMapLocked(
    const proto::TabletMapRequest& request) {
  proto::TabletMapReply reply;
  if (request.install) {
    const bool leads = std::any_of(
        request.map.tablets.begin(), request.map.tablets.end(),
        [this](const tablets::TabletInfo& entry) {
          return entry.config.primary == name_;
        });
    const MicrosecondCount expiry =
        request.lease_duration_us == 0 || !leads
            ? 0
            : clock_->NowMicros() + request.lease_duration_us;
    reply.accepted = InstallTabletMapLocked(request.map, expiry);
  } else {
    reply.accepted = true;  // A query always succeeds.
  }
  if (!request.split_key.empty()) {
    // Admin split (pileus_cli): split the hosted tablet locally. The map a
    // coordinator owns is not retiled here — standalone nodes show the new
    // tablets through the synthesized view below.
    const Status split = SplitTabletLocked(request.table, request.split_key);
    if (!split.ok()) {
      return MakeError(split);
    }
  }
  // Durable tail: the newest update timestamp across the table's tablets
  // (writes are journaled before they are acknowledged, so the in-memory
  // log tail is also the durable tail). Drives the promotion choice.
  auto hosted = tablets_.find(request.table);
  if (hosted != tablets_.end()) {
    for (const auto& tablet : hosted->second) {
      reply.durable_timestamp = MaxTimestamp(
          reply.durable_timestamp, tablet->update_log().LastTimestamp());
    }
  }
  auto installed = tablet_maps_.find(request.table);
  if (installed != tablet_maps_.end()) {
    if (installed->second.map.version > request.have_version) {
      reply.has_map = true;
      reply.map = installed->second.map;
      // Refresh the advisory load stats for ranges hosted here, so the map
      // a client or the CLI fetches reflects live sizes.
      if (hosted != tablets_.end()) {
        for (tablets::TabletInfo& entry : reply.map.tablets) {
          for (const auto& tablet : hosted->second) {
            if (tablet->range() == entry.range) {
              entry.size_bytes = tablet->ApproximateBytes();
            }
          }
        }
      }
    }
    return reply;
  }
  // No installed map: synthesize a display-only view (version 0) from the
  // hosted tablets so the CLI can render static deployments too. Clients
  // must not route off it (InstallTabletMap rejects version 0).
  if (hosted == tablets_.end() || hosted->second.empty()) {
    return reply;
  }
  reply.has_map = true;
  reply.map.table = std::string(request.table);
  reply.map.version = 0;
  for (const auto& tablet : hosted->second) {
    tablets::TabletInfo entry;
    entry.range = tablet->range();
    entry.config.primary = tablet->is_primary() ? name_ : "";
    entry.config.members = {name_};
    entry.size_bytes = tablet->ApproximateBytes();
    entry.ops_per_sec = 0;
    reply.map.tablets.push_back(std::move(entry));
  }
  return reply;
}

Tablet* StorageNode::FindTablet(std::string_view table, std::string_view key) {
  auto it = tablets_.find(table);
  if (it == tablets_.end()) {
    return nullptr;
  }
  for (auto& tablet : it->second) {
    if (tablet->range().Contains(key)) {
      return tablet.get();
    }
  }
  return nullptr;
}

const Tablet* StorageNode::FindTablet(std::string_view table,
                                      std::string_view key) const {
  return const_cast<StorageNode*>(this)->FindTablet(table, key);
}

std::vector<Tablet*> StorageNode::TabletsForTable(std::string_view table) {
  std::vector<Tablet*> out;
  auto it = tablets_.find(table);
  if (it == tablets_.end()) {
    return out;
  }
  out.reserve(it->second.size());
  for (auto& tablet : it->second) {
    out.push_back(tablet.get());
  }
  return out;
}

Timestamp StorageNode::HighTimestamp(std::string_view table,
                                     std::string_view key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Tablet* tablet = FindTablet(table, key);
  return tablet == nullptr ? Timestamp::Zero() : tablet->high_timestamp();
}

monitoring::NodeCondition StorageNode::SelfCondition(std::string_view table,
                                                     std::string_view tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  monitoring::NodeCondition cond;
  cond.node = name_;
  auto it = tablets_.find(table);
  if (it != tablets_.end() && !it->second.empty()) {
    // Minimum high timestamp across the table's tablets, like a probe reply:
    // the conservative bound a monitor can rely on for any key.
    Timestamp high = Timestamp::Max();
    for (const auto& tablet : it->second) {
      high = std::min(high, tablet->high_timestamp());
    }
    cond.high_timestamp = high;
    cond.high_age_us = 0;  // Measured this instant.
  }
  if (admission_ != nullptr) {
    cond.queue_delay_us =
        admission_->CurrentQueueDelay(tenant, clock_->NowMicros());
  }
  return cond;
}

std::vector<proto::ObjectVersion> StorageNode::ExportTableLog(
    std::string_view table, bool* contiguous) const {
  std::lock_guard<std::mutex> lock(mu_);
  bool all_contiguous = true;
  std::vector<proto::ObjectVersion> merged;
  if (auto it = tablets_.find(table); it != tablets_.end()) {
    for (const auto& tablet : it->second) {
      bool tablet_contiguous = true;
      std::vector<proto::ObjectVersion> part =
          tablet->ExportCommittedVersions(&tablet_contiguous);
      all_contiguous = all_contiguous && tablet_contiguous;
      if (merged.empty()) {
        merged = std::move(part);
        continue;
      }
      std::vector<proto::ObjectVersion> combined;
      combined.reserve(merged.size() + part.size());
      std::merge(merged.begin(), merged.end(), part.begin(), part.end(),
                 std::back_inserter(combined),
                 [](const proto::ObjectVersion& a,
                    const proto::ObjectVersion& b) {
                   return a.timestamp < b.timestamp;
                 });
      merged = std::move(combined);
    }
  }
  if (contiguous != nullptr) {
    *contiguous = all_contiguous;
  }
  return merged;
}

void StorageNode::EnableAdmission(AdmissionOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  admission_ = std::make_unique<AdmissionController>(options);
}

void StorageNode::EnableTelemetry(telemetry::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (registry == nullptr) {
    instruments_ = Instruments{};
    return;
  }
  const auto counter = [&](std::string_view base) {
    return registry->GetCounter(
        telemetry::WithLabels(base, {{"node", name_}}));
  };
  instruments_.gets = counter("pileus_storage_gets_total");
  instruments_.puts = counter("pileus_storage_puts_total");
  instruments_.deletes = counter("pileus_storage_deletes_total");
  instruments_.ranges = counter("pileus_storage_ranges_total");
  instruments_.probes = counter("pileus_storage_probes_total");
  instruments_.syncs = counter("pileus_storage_syncs_total");
  instruments_.snapshot_gets = counter("pileus_storage_snapshot_gets_total");
  instruments_.commits = counter("pileus_storage_commits_total");
  instruments_.other = counter("pileus_storage_other_requests_total");
  instruments_.errors = counter("pileus_storage_errors_total");
  instruments_.not_primary = counter("pileus_storage_not_primary_total");
  instruments_.high_timestamp_us = registry->GetGauge(
      telemetry::WithLabels("pileus_storage_high_timestamp_us",
                            {{"node", name_}}));
  instruments_.log_size = registry->GetGauge(
      telemetry::WithLabels("pileus_storage_update_log_size", {{"node", name_}}));
  instruments_.admitted = counter("pileus_storage_admitted_total");
  instruments_.shed_reads = registry->GetCounter(telemetry::WithLabels(
      "pileus_storage_shed_total", {{"node", name_}, {"class", "read"}}));
  instruments_.shed_strong_reads = registry->GetCounter(telemetry::WithLabels(
      "pileus_storage_shed_total",
      {{"node", name_}, {"class", "strong_read"}}));
  instruments_.shed_writes = registry->GetCounter(telemetry::WithLabels(
      "pileus_storage_shed_total", {{"node", name_}, {"class", "write"}}));
  instruments_.deadline_rejected =
      counter("pileus_storage_deadline_rejected_total");
  instruments_.queue_delay_us = registry->GetHistogram(
      telemetry::WithLabels("pileus_storage_queue_delay_us",
                            {{"node", name_}}));
  instruments_.tablet_ops = counter("pileus_tablet_ops_total");
  instruments_.wrong_tablet = counter("pileus_tablet_wrong_tablet_total");
  instruments_.tablet_count = registry->GetGauge(
      telemetry::WithLabels("pileus_tablet_count", {{"node", name_}}));
  instruments_.tablet_bytes = registry->GetGauge(
      telemetry::WithLabels("pileus_tablet_bytes", {{"node", name_}}));
  RefreshTabletGaugesLocked();
}

void StorageNode::RefreshTabletGaugesLocked() {
  if (instruments_.tablet_count == nullptr) {
    return;
  }
  int64_t count = 0;
  int64_t bytes = 0;
  for (const auto& [table, list] : tablets_) {
    count += static_cast<int64_t>(list.size());
    for (const auto& tablet : list) {
      bytes += static_cast<int64_t>(tablet->ApproximateBytes());
    }
  }
  instruments_.tablet_count->Set(count);
  instruments_.tablet_bytes->Set(bytes);
}

void StorageNode::CountRequestLocked(const proto::Message& request,
                                     const proto::Message& reply) {
  if (instruments_.gets == nullptr) {
    return;
  }
  bool write_path = false;
  if (std::holds_alternative<proto::GetRequest>(request)) {
    instruments_.gets->Increment();
  } else if (std::holds_alternative<proto::PutRequest>(request)) {
    instruments_.puts->Increment();
    write_path = true;
  } else if (std::holds_alternative<proto::DeleteRequest>(request)) {
    instruments_.deletes->Increment();
    write_path = true;
  } else if (std::holds_alternative<proto::RangeRequest>(request)) {
    instruments_.ranges->Increment();
  } else if (std::holds_alternative<proto::ProbeRequest>(request)) {
    instruments_.probes->Increment();
  } else if (std::holds_alternative<proto::SyncRequest>(request)) {
    instruments_.syncs->Increment();
    write_path = true;
  } else if (std::holds_alternative<proto::GetAtRequest>(request)) {
    instruments_.snapshot_gets->Increment();
  } else if (std::holds_alternative<proto::CommitRequest>(request)) {
    instruments_.commits->Increment();
    write_path = true;
  } else {
    instruments_.other->Increment();
  }
  if (proto::IsDataPathRequest(request)) {
    instruments_.tablet_ops->Increment();
  }
  if (const auto* err = std::get_if<proto::ErrorReply>(&reply)) {
    instruments_.errors->Increment();
    if (err->code == StatusCode::kNotPrimary) {
      // Broken out separately: during a failover these are redirects, not
      // failures, and the two must be distinguishable on a dashboard.
      instruments_.not_primary->Increment();
    }
    if (err->code == StatusCode::kWrongTablet) {
      // Fences are redirects too: a burst here during a migration is
      // expected, a steady rate afterwards means stale client maps.
      instruments_.wrong_tablet->Increment();
    }
  }
  if (!write_path) {
    return;
  }
  // Refresh the gauges only after requests that can move them: the minimum
  // high timestamp across all tablets (the node's staleness bound) and the
  // total retained update-log entries.
  Timestamp high = Timestamp::Max();
  int64_t log_entries = 0;
  bool any = false;
  for (const auto& [table, list] : tablets_) {
    for (const auto& tablet : list) {
      any = true;
      high = std::min(high, tablet->high_timestamp());
      log_entries += static_cast<int64_t>(tablet->update_log().size());
    }
  }
  instruments_.high_timestamp_us->Set(any ? high.physical_us : 0);
  instruments_.log_size->Set(log_entries);
  RefreshTabletGaugesLocked();
}

std::optional<proto::Message> StorageNode::AdmitLocked(
    const proto::Message& request, AdmitDecision* decision) {
  AdmitClass cls;
  std::string_view tenant;
  double utility = admission_->options().utility_reference;
  MicrosecondCount deadline_us = 0;
  if (const auto* get = std::get_if<proto::GetRequest>(&request)) {
    cls = get->strong_read ? AdmitClass::kStrongRead : AdmitClass::kRead;
    tenant = get->tenant.empty() ? std::string_view(get->table) : get->tenant;
    utility = get->utility_micros / 1e6;
    deadline_us = get->deadline_us;
  } else if (const auto* range = std::get_if<proto::RangeRequest>(&request)) {
    cls = range->strong_read ? AdmitClass::kStrongRead : AdmitClass::kRead;
    tenant =
        range->tenant.empty() ? std::string_view(range->table) : range->tenant;
    utility = range->utility_micros / 1e6;
    deadline_us = range->deadline_us;
  } else if (const auto* get_at = std::get_if<proto::GetAtRequest>(&request)) {
    // Snapshot reads belong to transactions; treat them as full-utility
    // reads under the table's default bucket.
    cls = AdmitClass::kRead;
    tenant = get_at->table;
  } else if (const auto* put = std::get_if<proto::PutRequest>(&request)) {
    cls = AdmitClass::kWrite;
    tenant = put->tenant.empty() ? std::string_view(put->table) : put->tenant;
    deadline_us = put->deadline_us;
  } else if (const auto* del = std::get_if<proto::DeleteRequest>(&request)) {
    cls = AdmitClass::kWrite;
    tenant = del->table;
  } else if (const auto* commit = std::get_if<proto::CommitRequest>(&request)) {
    cls = AdmitClass::kWrite;
    tenant = commit->table;
  } else {
    return std::nullopt;  // Control plane: never admitted, never shed.
  }
  *decision =
      admission_->Admit(tenant, cls, utility, deadline_us, clock_->NowMicros());
  if (decision->admitted) {
    if (instruments_.admitted != nullptr) {
      instruments_.admitted->Increment();
      instruments_.queue_delay_us->Record(decision->queue_delay_us);
    }
    return std::nullopt;
  }
  if (instruments_.admitted != nullptr) {
    if (decision->deadline_exceeded) {
      instruments_.deadline_rejected->Increment();
    } else {
      switch (cls) {
        case AdmitClass::kRead:
          instruments_.shed_reads->Increment();
          break;
        case AdmitClass::kStrongRead:
          instruments_.shed_strong_reads->Increment();
          break;
        case AdmitClass::kWrite:
          instruments_.shed_writes->Increment();
          break;
      }
    }
  }
  proto::ErrorReply err;
  err.code = StatusCode::kOverloaded;
  err.retry_after_ms = decision->retry_after_ms;
  err.message = decision->deadline_exceeded
                    ? "queue delay exceeds request deadline"
                    : "node " + name_ + " shed " +
                          std::string(AdmitClassName(cls));
  return proto::Message(std::move(err));
}

void StorageNode::StampQueueDelayLocked(const proto::Message& request,
                                        const AdmitDecision& decision,
                                        proto::Message& reply) {
  if (admission_ == nullptr) {
    return;
  }
  MicrosecondCount delay = decision.queue_delay_us;
  if (const auto* probe = std::get_if<proto::ProbeRequest>(&request)) {
    // Probes bypass admission but still report pressure: monitors learn the
    // bucket's current queue delay between data-path replies.
    delay = admission_->CurrentQueueDelay(probe->table, clock_->NowMicros());
  }
  std::visit(
      [delay](auto& m) {
        if constexpr (requires { m.queue_delay_us; }) {
          m.queue_delay_us = delay;
        }
      },
      reply);
}

proto::Message StorageNode::Handle(const proto::Message& request) {
  std::lock_guard<std::mutex> lock(mu_);
  ++requests_served_;
  AdmitDecision decision;
  if (admission_ != nullptr) {
    if (std::optional<proto::Message> rejection =
            AdmitLocked(request, &decision)) {
      CountRequestLocked(request, *rejection);
      return std::move(*rejection);
    }
  }
  proto::Message reply = HandleLocked(request);
  StampQueueDelayLocked(request, decision, reply);
  // Piggyback the owning tablet's config on everything we send back
  // (Section 6.2): clients learn about a reconfiguration from ordinary
  // traffic.
  StampPlacementLocked(request, reply);
  CountRequestLocked(request, reply);
  return reply;
}

proto::Message StorageNode::HandleLocked(const proto::Message& request) {
  if (const auto* get = std::get_if<proto::GetRequest>(&request)) {
    if (auto fence = CheckTabletRoutingLocked(get->table, get->key,
                                              /*write=*/false)) {
      return std::move(*fence);
    }
    const Tablet* tablet = FindTablet(get->table, get->key);
    if (tablet == nullptr) {
      return MakeError(StatusCode::kWrongNode,
                       "node " + name_ + " has no tablet for key");
    }
    return tablet->HandleGet(get->key);
  }
  if (const auto* put = std::get_if<proto::PutRequest>(&request)) {
    if (auto fence =
            CheckTabletRoutingLocked(put->table, put->key, /*write=*/true)) {
      return std::move(*fence);
    }
    Tablet* tablet = FindTablet(put->table, put->key);
    if (tablet == nullptr) {
      return MakeError(StatusCode::kWrongNode,
                       "node " + name_ + " has no tablet for key");
    }
    Result<proto::PutReply> reply = tablet->HandlePut(put->key, put->value);
    if (!reply.ok()) {
      return MakeError(reply.status());
    }
    return std::move(reply).value();
  }
  if (const auto* del = std::get_if<proto::DeleteRequest>(&request)) {
    if (auto fence =
            CheckTabletRoutingLocked(del->table, del->key, /*write=*/true)) {
      return std::move(*fence);
    }
    Tablet* tablet = FindTablet(del->table, del->key);
    if (tablet == nullptr) {
      return MakeError(StatusCode::kWrongNode,
                       "node " + name_ + " has no tablet for key");
    }
    Result<proto::PutReply> reply = tablet->HandleDelete(del->key);
    if (!reply.ok()) {
      return MakeError(reply.status());
    }
    return std::move(reply).value();
  }
  if (const auto* range = std::get_if<proto::RangeRequest>(&request)) {
    if (auto map_it = tablet_maps_.find(range->table);
        map_it != tablet_maps_.end()) {
      // A scan is only as trustworthy as its weakest tablet: fence the whole
      // request if any overlapping range is assigned elsewhere.
      const KeyRange wanted{range->begin, range->end};
      for (const tablets::TabletInfo& entry : map_it->second.map.tablets) {
        if (!entry.range.Overlaps(wanted)) {
          continue;
        }
        if (auto fence = CheckTabletRoutingLocked(
                range->table, entry.range.begin, /*write=*/false)) {
          return std::move(*fence);
        }
      }
    }
    auto it = tablets_.find(range->table);
    if (it == tablets_.end() || it->second.empty()) {
      return MakeError(StatusCode::kWrongNode,
                       "node " + name_ + " has no tablets of table");
    }
    // Tablets are sorted by range begin, so concatenating their per-tablet
    // scans yields global key order. The reply's high timestamp is the
    // minimum across the tablets that contributed (conservative bound).
    proto::RangeReply reply;
    reply.high_timestamp = Timestamp::Max();
    reply.served_by_primary = true;
    const KeyRange wanted{range->begin, range->end};
    for (const auto& tablet : it->second) {
      if (!tablet->range().Overlaps(wanted) && !wanted.IsEmpty()) {
        continue;
      }
      const uint32_t remaining =
          range->limit == 0
              ? 0
              : range->limit - static_cast<uint32_t>(reply.items.size());
      if (range->limit != 0 && remaining == 0) {
        reply.truncated = true;
        break;
      }
      proto::RangeReply part =
          tablet->HandleRange(range->begin, range->end, remaining);
      reply.high_timestamp =
          std::min(reply.high_timestamp, part.high_timestamp);
      reply.served_by_primary =
          reply.served_by_primary && part.served_by_primary;
      reply.truncated = reply.truncated || part.truncated;
      for (proto::ObjectVersion& item : part.items) {
        reply.items.push_back(std::move(item));
      }
    }
    if (reply.high_timestamp == Timestamp::Max()) {
      reply.high_timestamp = Timestamp::Zero();  // No tablet contributed.
    }
    return reply;
  }
  if (const auto* probe = std::get_if<proto::ProbeRequest>(&request)) {
    auto it = tablets_.find(probe->table);
    if (it == tablets_.end() || it->second.empty()) {
      return MakeError(StatusCode::kNotFound,
                       "node " + name_ + " hosts no tablets of table");
    }
    // Report the minimum high timestamp across the table's tablets: the
    // conservative bound a monitor can rely on for any key.
    proto::ProbeReply reply;
    reply.high_timestamp = Timestamp::Max();
    reply.is_primary = true;
    for (const auto& tablet : it->second) {
      const Timestamp high = tablet->authoritative()
                                 ? MaxTimestamp(tablet->high_timestamp(),
                                                Timestamp{clock_->NowMicros() - 1,
                                                          UINT32_MAX})
                                 : tablet->high_timestamp();
      reply.high_timestamp = std::min(reply.high_timestamp, high);
      reply.is_primary = reply.is_primary && tablet->authoritative();
    }
    return reply;
  }
  if (const auto* sync = std::get_if<proto::SyncRequest>(&request)) {
    // Sync requests address a whole table; with multiple tablets the reply
    // covers the tablet owning the lowest range (agents sync per tablet via
    // direct tablet access; the RPC path supports single-tablet tables).
    auto it = tablets_.find(sync->table);
    if (it == tablets_.end() || it->second.empty()) {
      return MakeError(StatusCode::kNotFound,
                       "node " + name_ + " hosts no tablets of table");
    }
    if (sync->has_range) {
      // Per-tablet pull (migration catch-up / multi-tablet replication).
      // Sync is control traffic and is deliberately never fenced by the
      // tablet map — the migration drain pulls from a source that is
      // already fenced. The node's tablets may be finer than the requested
      // range (e.g. children of a split the map never adopted), so every
      // overlapping tablet contributes and the merged heartbeat is the
      // lowest bound any contributor guarantees complete.
      const KeyRange wanted{sync->range_begin, sync->range_end};
      std::vector<proto::SyncReply> parts;
      for (const auto& tablet : it->second) {
        if (tablet->range().Overlaps(wanted)) {
          parts.push_back(tablet->HandleSync(sync->after, sync->max_versions));
        }
      }
      if (parts.empty()) {
        return MakeError(StatusCode::kNotFound,
                         "node " + name_ + " hosts no tablet for range");
      }
      if (parts.size() == 1) {
        return std::move(parts.front());
      }
      proto::SyncReply merged;
      Timestamp bound = parts.front().heartbeat;
      for (const proto::SyncReply& part : parts) {
        if (part.heartbeat < bound) {
          bound = part.heartbeat;
        }
        merged.has_more = merged.has_more || part.has_more;
      }
      for (proto::SyncReply& part : parts) {
        for (proto::ObjectVersion& version : part.versions) {
          if (!wanted.Contains(version.key) && !wanted.IsEmpty()) {
            continue;  // A coarser tablet may spill neighbouring keys.
          }
          if (version.timestamp <= bound) {
            merged.versions.push_back(std::move(version));
          } else {
            // Complete only up to `bound`: re-pulled next round once every
            // contributor has caught up past it.
            merged.has_more = true;
          }
        }
      }
      std::sort(merged.versions.begin(), merged.versions.end(),
                [](const proto::ObjectVersion& a,
                   const proto::ObjectVersion& b) {
                  return a.timestamp < b.timestamp;
                });
      merged.heartbeat = bound;
      return merged;
    }
    return it->second.front()->HandleSync(sync->after, sync->max_versions);
  }
  if (const auto* get_at = std::get_if<proto::GetAtRequest>(&request)) {
    if (auto fence = CheckTabletRoutingLocked(get_at->table, get_at->key,
                                              /*write=*/false)) {
      return std::move(*fence);
    }
    const Tablet* tablet = FindTablet(get_at->table, get_at->key);
    if (tablet == nullptr) {
      return MakeError(StatusCode::kWrongNode,
                       "node " + name_ + " has no tablet for key");
    }
    return tablet->HandleGetAt(get_at->key, get_at->snapshot);
  }
  if (const auto* tablet_map = std::get_if<proto::TabletMapRequest>(&request)) {
    return HandleTabletMapLocked(*tablet_map);
  }
  if (const auto* commit = std::get_if<proto::CommitRequest>(&request)) {
    if (commit->writes.empty()) {
      proto::CommitReply reply;
      reply.committed = true;
      return reply;  // Read-only transactions commit trivially.
    }
    if (auto fence = CheckTabletRoutingLocked(
            commit->table, commit->writes.front().key, /*write=*/true)) {
      return std::move(*fence);
    }
    // All writes must land in one tablet for atomic commit; multi-tablet
    // transactions are out of scope (as in the paper's prototype).
    Tablet* tablet = FindTablet(commit->table, commit->writes.front().key);
    if (tablet == nullptr) {
      return MakeError(StatusCode::kWrongNode,
                       "node " + name_ + " has no tablet for commit");
    }
    for (const proto::ObjectVersion& w : commit->writes) {
      if (!tablet->range().Contains(w.key)) {
        return MakeError(StatusCode::kInvalidArgument,
                         "transaction writes span tablets");
      }
    }
    Result<proto::CommitReply> reply = tablet->HandleCommit(*commit);
    if (!reply.ok()) {
      return MakeError(reply.status());
    }
    return std::move(reply).value();
  }
  return MakeError(StatusCode::kInvalidArgument,
                   "node received a non-request message");
}

}  // namespace pileus::storage
