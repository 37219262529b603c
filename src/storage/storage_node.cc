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
// scan's first key, a ranged pull's first key. nullopt for keyless requests
// (probes, whole-table pulls).
std::optional<std::string_view> KeyOf(const proto::Message& request) {
  if (const auto* range = std::get_if<proto::RangeRequest>(&request)) {
    return range->begin;
  }
  if (const auto* sync = std::get_if<proto::SyncRequest>(&request)) {
    return sync->has_range ? std::optional<std::string_view>(sync->range_begin)
                           : std::nullopt;
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
  return AddTablet(table, std::make_shared<Tablet>(std::move(options), clock_));
}

Status StorageNode::AddTablet(std::string_view table,
                              std::shared_ptr<Tablet> tablet) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& list = tablets_[std::string(table)];
  for (const auto& existing : list) {
    if (existing->range().Overlaps(tablet->range())) {
      return Status(StatusCode::kInvalidArgument,
                    "tablet range " + tablet->range().ToString() +
                        " overlaps existing " +
                        existing->range().ToString());
    }
  }
  list.push_back(std::move(tablet));
  std::sort(list.begin(), list.end(), [](const auto& a, const auto& b) {
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
    return false;  // Stale map: a delayed install.
  }
  // Journal the config each hosted tablet now runs under, so a restart
  // recovers it. A same-version re-install (a lease renewal) changes
  // nothing worth recording.
  if (it == tablet_maps_.end() || map.version != it->second.map.version) {
    if (auto hosted = tablets_.find(map.table); hosted != tablets_.end()) {
      for (const auto& tablet : hosted->second) {
        const tablets::TabletInfo* entry = map.OwnerOf(tablet->range().begin);
        if (entry != nullptr && tablet->journal() != nullptr &&
            !tablet->journal()->RecordConfig(entry->config).ok()) {
          return false;
        }
      }
    }
  }
  tablet_maps_[map.table] = InstalledMap{map, lease_expiry_us};
  // Roles follow the map immediately, including on a same-version
  // re-install (idempotent, so a lease renewal leaves tablets alone): a
  // failover and a primary move rely on the old primary being demoted the
  // instant it adopts the map that moves its lead.
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
      // Refresh the advisory sizes of ranges hosted here, so the map the
      // CLI fetches reflects live sizes.
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

std::vector<proto::ObjectVersion> StorageNode::ExportTableLog(
    std::string_view table, bool* contiguous) const {
  std::lock_guard<std::mutex> lock(mu_);
  bool all_contiguous = true;
  std::vector<proto::ObjectVersion> merged;
  if (auto it = tablets_.find(table); it != tablets_.end()) {
    for (const auto& tablet : it->second) {
      bool tablet_contiguous = true;
      std::vector<proto::ObjectVersion> part =
          tablet->update_log().Export(&tablet_contiguous);
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
      // Fences are redirects too: a steady rate means clients whose maps
      // disagree with the deployment's.
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
  double utility = AdmissionController::kUtilityReference;
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
  } else if (const auto* put = std::get_if<proto::PutRequest>(&request)) {
    cls = AdmitClass::kWrite;
    tenant = put->tenant.empty() ? std::string_view(put->table) : put->tenant;
    deadline_us = put->deadline_us;
  } else if (const auto* del = std::get_if<proto::DeleteRequest>(&request)) {
    cls = AdmitClass::kWrite;
    tenant = del->table;
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

void StorageNode::DeferAcks(AckAfterSync ack_after_sync) {
  ack_after_sync_ = std::move(ack_after_sync);
}

Status StorageNode::SyncJournals() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [table, list] : tablets_) {
    for (const auto& tablet : list) {
      if (tablet->journal() != nullptr) {
        PILEUS_RETURN_IF_ERROR(tablet->journal()->Sync());
      }
    }
  }
  return Status::Ok();
}

Status StorageNode::ApplySync(std::string_view table, const KeyRange& range,
                              const proto::SyncReply& reply) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tablets_.find(table);
  std::vector<Tablet*> inside;
  if (it != tablets_.end()) {
    for (const auto& tablet : it->second) {
      if (range.Covers(tablet->range())) {
        inside.push_back(tablet.get());
      }
    }
  }
  if (inside.empty()) {
    return Status(StatusCode::kNotFound,
                  "node " + name_ + " hosts no tablet of table in range");
  }
  if (inside.size() == 1 && inside.front()->range() == KeyRange::All()) {
    return inside.front()->ApplySync(reply);
  }
  // The reply is complete up to its heartbeat or its last version, for
  // every key in `range`: each tablet inside it advances that far. A
  // coarser source tablet may spill keys outside `range`; they are dropped.
  proto::SyncReply part;
  part.heartbeat = reply.versions.empty()
                       ? reply.heartbeat
                       : MaxTimestamp(reply.heartbeat,
                                      reply.versions.back().timestamp);
  for (Tablet* tablet : inside) {
    part.versions.clear();
    for (const proto::ObjectVersion& version : reply.versions) {
      if (tablet->range().Contains(version.key)) {
        part.versions.push_back(version);
      }
    }
    PILEUS_RETURN_IF_ERROR(tablet->ApplySync(part));
  }
  return Status::Ok();
}

void StorageNode::HandleAsync(const proto::Message& request,
                              std::function<void(proto::Message)> done) {
  proto::Message reply = Handle(request);
  const bool mutation = std::holds_alternative<proto::PutRequest>(request) ||
                        std::holds_alternative<proto::DeleteRequest>(request);
  if (!ack_after_sync_ || !mutation ||
      std::holds_alternative<proto::ErrorReply>(reply)) {
    done(std::move(reply));
    return;
  }
  // Handle journaled the mutation under the request lock before this
  // registration, so the barrier's sync covers it.
  ack_after_sync_([reply = std::move(reply),
                   done = std::move(done)](const Status& status) mutable {
    if (status.ok()) {
      done(std::move(reply));
      return;
    }
    // Applied in memory, durability unknown: never ack it as committed.
    done(MakeError(StatusCode::kUnavailable,
                   "journal sync failed: " + status.message()));
  });
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
    // minimum across the tablets that contributed (conservative bound). The
    // items are the stores' own versions: a reference count each under the
    // lock, and the transport encodes them once the lock is released.
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
      if (reply.items.empty()) {
        reply.items = std::move(part.items);
      } else {
        reply.items.insert(reply.items.end(),
                           std::make_move_iterator(part.items.begin()),
                           std::make_move_iterator(part.items.end()));
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
    return HandleSyncLocked(*sync);
  }
  if (const auto* tablet_map = std::get_if<proto::TabletMapRequest>(&request)) {
    return HandleTabletMapLocked(*tablet_map);
  }
  return MakeError(StatusCode::kInvalidArgument,
                   "node received a non-request message");
}

proto::Message StorageNode::HandleSyncLocked(
    const proto::SyncRequest& request) {
  // Sync is control traffic and is deliberately never fenced by the tablet
  // map: a replica keeps pulling from a member the map has demoted.
  auto it = tablets_.find(request.table);
  if (it == tablets_.end() || it->second.empty()) {
    return MakeError(StatusCode::kNotFound,
                     "node " + name_ + " hosts no tablets of table");
  }
  // A whole-table pull covers every tablet; a ranged pull (a ranged
  // ReplicationAgent) every tablet overlapping its range.
  const KeyRange wanted =
      request.has_range ? KeyRange{request.range_begin, request.range_end}
                        : KeyRange::All();
  std::vector<proto::SyncReply> parts;
  for (const auto& tablet : it->second) {
    if (tablet->range().Overlaps(wanted)) {
      parts.push_back(tablet->HandleSync(request.after, request.max_versions));
    }
  }
  if (parts.empty()) {
    return MakeError(StatusCode::kNotFound,
                     "node " + name_ + " hosts no tablet for range");
  }
  if (parts.size() == 1) {
    return std::move(parts.front());
  }
  // One ascending stream, complete up to its heartbeat: the lowest bound
  // any contributor guarantees. A receiver advances to the last version it
  // gets, so a version above the bound waits for a later pull; otherwise
  // the receiver could skip a lower timestamp another tablet has yet to
  // assign. A ranged pull reports such a version as has_more; a
  // whole-table pull gets it next period.
  proto::SyncReply merged;
  merged.heartbeat = Timestamp::Max();
  for (const proto::SyncReply& part : parts) {
    merged.heartbeat = std::min(merged.heartbeat, part.heartbeat);
    merged.has_more = merged.has_more || part.has_more;
  }
  for (proto::SyncReply& part : parts) {
    for (proto::ObjectVersion& version : part.versions) {
      if (!wanted.Contains(version.key)) {
        continue;  // A coarser tablet may spill neighbouring keys.
      }
      if (version.timestamp > merged.heartbeat) {
        merged.has_more = merged.has_more || request.has_range;
        continue;
      }
      merged.versions.push_back(std::move(version));
    }
  }
  std::stable_sort(merged.versions.begin(), merged.versions.end(),
                   [](const proto::ObjectVersion& a,
                      const proto::ObjectVersion& b) {
                     return a.timestamp < b.timestamp;
                   });
  if (request.max_versions != 0 &&
      merged.versions.size() > request.max_versions) {
    // Claim completeness only up to the last version actually sent, and,
    // as UpdateLog::Scan does, never cut a run of equal timestamps: two
    // tablets can assign one timestamp twice, and the receiver pulls after
    // the heartbeat, so the rest of a cut run would never arrive.
    size_t keep = request.max_versions;
    while (keep < merged.versions.size() &&
           merged.versions[keep].timestamp ==
               merged.versions[keep - 1].timestamp) {
      ++keep;
    }
    if (keep < merged.versions.size()) {
      merged.versions.resize(keep);
      merged.has_more = true;
      merged.heartbeat = merged.versions.back().timestamp;
    }
  }
  return merged;
}

}  // namespace pileus::storage
