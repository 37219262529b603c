#include "src/experiments/geo_testbed.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"
#include "src/server/node_host.h"

namespace pileus::experiments {

namespace {

constexpr MicrosecondCount Ms(int64_t ms) {
  return MillisecondsToMicroseconds(ms);
}

}  // namespace

// ---------------------------------------------------------------------------
// SimConnection: a NodeConnection that advances virtual time by the sampled
// network transit and runs the node's handler in between.
// ---------------------------------------------------------------------------

namespace {

// Silent faults on a deadline-free call still have to resolve eventually;
// model the caller giving up after this long.
constexpr MicrosecondCount kSilentDropWaitUs = SecondsToMicroseconds(1);

MicrosecondCount ScaleLatency(MicrosecondCount us, double multiplier) {
  return multiplier == 1.0 ? us
                           : static_cast<MicrosecondCount>(
                                 static_cast<double>(us) * multiplier);
}

class SimConnection : public core::NodeConnection {
 public:
  SimConnection(GeoTestbed* testbed, sim::SimEnvironment* env,
                sim::SiteId client_site, std::string client_name,
                sim::SiteId node_site, std::string node_name,
                std::function<proto::Message(const proto::Message&,
                                             MicrosecondCount*)>
                    serve)
      : testbed_(testbed),
        env_(env),
        client_site_(client_site),
        client_name_(std::move(client_name)),
        node_site_(node_site),
        node_name_(std::move(node_name)),
        serve_(std::move(serve)) {}

  core::TimedReply Call(const proto::Message& request,
                        MicrosecondCount timeout_us) override {
    MicrosecondCount server_delay = 0;
    MicrosecondCount total = 0;
    Status transport = Status::Ok();
    proto::Message reply =
        Execute(request, timeout_us, &server_delay, &total, &transport);
    if (!transport.ok()) {
      return core::TimedReply(
          transport, timeout_us > 0 ? std::min(total, timeout_us) : total);
    }
    if (timeout_us > 0 && total > timeout_us) {
      return core::TimedReply(
          Status(StatusCode::kTimeout, "simulated call deadline exceeded"),
          timeout_us);
    }
    return core::TimedReply(std::move(reply), total);
  }

  // Shared with the fan-out caller: performs the request, advancing virtual
  // time by min(total RTT, timeout). Returns the reply; *total_rtt_us gets
  // the full round-trip the reply would take regardless of the deadline.
  // *transport_status reports injected transport faults: kTimeout for silent
  // drops (the caller learns nothing else), kCorruption when the codec
  // rejected a damaged reply frame.
  proto::Message Execute(const proto::Message& request,
                         MicrosecondCount timeout_us,
                         MicrosecondCount* server_delay_us,
                         MicrosecondCount* total_rtt_us,
                         Status* transport_status) {
    *server_delay_us = 0;
    *transport_status = Status::Ok();
    sim::FaultInjector& faults = testbed_->faults();
    sim::FaultDecision to_server;
    sim::FaultDecision to_client;
    // Both legs are consulted: a link rule on the reply direction alone
    // (e.g. an asymmetric partition of England -> China) must still fire.
    if (faults.Affects(client_name_, node_name_) ||
        faults.Affects(node_name_, client_name_)) {
      to_server = faults.OnMessage(client_name_, node_name_, env_->rng());
      to_client = faults.OnMessage(node_name_, client_name_, env_->rng());
    }
    auto& latency = env_->latency_model();
    const MicrosecondCount ow1 =
        ScaleLatency(latency.SampleOneWay(client_site_, node_site_,
                                          env_->rng()),
                     to_server.latency_multiplier);
    // A dropped request never reaches the node; a corrupted one dies at the
    // node's codec (CRC mismatch) and is discarded without a reply. Either
    // way the client hears nothing until its deadline expires.
    bool request_lost = to_server.drop;
    if (!request_lost && to_server.corrupt) {
      std::string frame = proto::EncodeMessage(request);
      sim::FaultInjector::CorruptFrame(frame, env_->rng());
      request_lost = !proto::DecodeMessage(frame).ok();
    }
    if (request_lost) {
      const MicrosecondCount wait =
          timeout_us > 0 ? timeout_us : kSilentDropWaitUs;
      env_->RunFor(wait);
      *total_rtt_us = wait + 1;
      *transport_status =
          Status(StatusCode::kTimeout, "simulated call deadline exceeded");
      return proto::Message{};
    }
    if ((to_server.overload || to_client.overload) &&
        proto::IsDataPathRequest(request)) {
      // Overload fault (DESIGN.md Section 11): the node's (simulated)
      // admission layer sheds the request with a fast rejection after a
      // normal round trip — no serve-side work, control traffic untouched.
      const MicrosecondCount reject_ow2 =
          ScaleLatency(latency.SampleOneWay(node_site_, client_site_,
                                            env_->rng()),
                       to_client.latency_multiplier);
      const MicrosecondCount total =
          timeout_us > 0 ? std::min(ow1 + reject_ow2, timeout_us)
                         : ow1 + reject_ow2;
      env_->RunFor(total);
      *total_rtt_us = total;
      return proto::MakeOverloadedReply(
          std::max(to_server.retry_after_ms, to_client.retry_after_ms));
    }
    // Request transit (capped by the deadline; the request still reaches the
    // node - a timed-out Put may well have committed, as in real systems).
    env_->RunFor(timeout_us > 0 ? std::min(ow1, timeout_us) : ow1);
    proto::Message reply = serve_(request, server_delay_us);
    const MicrosecondCount ow2 =
        ScaleLatency(latency.SampleOneWay(node_site_, client_site_,
                                          env_->rng()),
                     to_client.latency_multiplier);
    const MicrosecondCount already =
        timeout_us > 0 ? std::min(ow1, timeout_us) : ow1;
    if (to_client.drop) {
      // Reply lost: server-side effects (a committed Put!) stand, but the
      // client waits out its full deadline.
      const MicrosecondCount wait =
          timeout_us > 0 ? timeout_us - already : kSilentDropWaitUs;
      if (wait > 0) {
        env_->RunFor(wait);
      }
      *total_rtt_us = (timeout_us > 0 ? timeout_us : already + wait) + 1;
      *transport_status =
          Status(StatusCode::kTimeout, "simulated call deadline exceeded");
      return proto::Message{};
    }
    const MicrosecondCount total = ow1 + *server_delay_us + ow2;
    const MicrosecondCount remaining =
        timeout_us > 0 ? std::min(total, timeout_us) - already
                       : total - already;
    if (remaining > 0) {
      env_->RunFor(remaining);
    }
    *total_rtt_us = total;
    if (to_client.corrupt) {
      // Round-trip the reply through the real codec with flipped bytes: the
      // CRC trailer must reject it cleanly, surfacing as kCorruption.
      std::string frame = proto::EncodeMessage(reply);
      sim::FaultInjector::CorruptFrame(frame, env_->rng());
      Result<proto::Message> decoded = proto::DecodeMessage(frame);
      if (!decoded.ok()) {
        *transport_status = decoded.status();
        return proto::Message{};
      }
      reply = std::move(decoded).value();
    }
    return reply;
  }

  sim::SiteId node_site() const { return node_site_; }
  GeoTestbed* testbed() const { return testbed_; }

 private:
  GeoTestbed* testbed_;
  sim::SimEnvironment* env_;
  sim::SiteId client_site_;
  std::string client_name_;
  sim::SiteId node_site_;
  std::string node_name_;
  std::function<proto::Message(const proto::Message&, MicrosecondCount*)>
      serve_;
};

}  // namespace

// ---------------------------------------------------------------------------
// GeoClient::SimFanout: virtual-time parallel Gets (Section 6.3).
//
// Approximation: all targeted nodes process the request at send time; virtual
// time advances by the fastest round trip (the reply the client acts on).
// Slower replies report their own RTTs so monitor statistics stay honest.
// ---------------------------------------------------------------------------

class GeoClient::SimFanout : public core::FanoutCaller {
 public:
  explicit SimFanout(sim::SimEnvironment* env) : env_(env) {}

  std::vector<core::TimedReply> CallAll(
      const std::vector<core::NodeConnection*>& connections,
      const proto::Message& request, MicrosecondCount timeout_us) override {
    std::vector<core::TimedReply> replies;
    replies.reserve(connections.size());
    if (connections.empty()) {
      return replies;
    }
    if (connections.size() == 1) {
      replies.push_back(connections[0]->Call(request, timeout_us));
      return replies;
    }
    auto& latency = env_->latency_model();
    MicrosecondCount fastest = 0;
    for (core::NodeConnection* connection : connections) {
      // All connections in a simulation client are SimConnections by
      // construction (GeoTestbed::MakeClient creates them).
      auto* sim_conn = static_cast<SimConnection*>(connection);
      (void)latency;
      MicrosecondCount server_delay = 0;
      MicrosecondCount total = 0;
      Status transport = Status::Ok();
      // Execute without advancing time for the slower replicas: temporarily
      // give each call a zero-advance path by running it and compensating is
      // not possible with a shared clock, so instead we let the *first* call
      // advance time and sample the rest instantaneously via Execute with
      // timeout 1 (advancing at most 1 us each).
      const MicrosecondCount call_timeout = replies.empty() ? timeout_us : 1;
      proto::Message reply = sim_conn->Execute(request, call_timeout,
                                               &server_delay, &total,
                                               &transport);
      if (replies.empty()) {
        fastest = total;
      }
      if (!transport.ok()) {
        replies.emplace_back(
            transport, timeout_us > 0 ? std::min(total, timeout_us) : total);
      } else if (timeout_us > 0 && total > timeout_us) {
        replies.emplace_back(
            Status(StatusCode::kTimeout, "simulated call deadline exceeded"),
            timeout_us);
      } else {
        replies.emplace_back(std::move(reply), total);
      }
    }
    (void)fastest;
    return replies;
  }

 private:
  sim::SimEnvironment* env_;
};

void GeoClient::StartProbing() {
  if (probe_task_.active()) {
    return;
  }
  GeoTestbed* testbed = testbed_;
  core::PileusClient* client = client_.get();
  sim::SiteId client_site = site_;
  std::string client_name = site_name_;
  std::weak_ptr<uint64_t> alive = probes_sent_;
  probe_task_ = testbed->env_.SchedulePeriodic(
      testbed->options_.probe_check_period_us,
      testbed->options_.probe_check_period_us,
      [testbed, client, client_site, client_name, alive] {
        const std::shared_ptr<uint64_t> probes = alive.lock();
        if (probes == nullptr) {
          return;  // The client is gone.
        }
        auto& env = testbed->env_;
        const core::TableView& table = client->table();
        for (size_t i = 0; i < table.replicas.size(); ++i) {
          const std::string& name = table.replicas[i].name;
          if (!client->monitor().NeedsProbe(name)) {
            continue;
          }
          GeoTestbed::NodeEntry* entry = testbed->FindEntry(name);
          if (entry == nullptr) {
            continue;
          }
          sim::FaultInjector& faults = testbed->faults();
          sim::FaultDecision to_server;
          sim::FaultDecision to_client;
          if (faults.Affects(client_name, name) ||
              faults.Affects(name, client_name)) {
            to_server = faults.OnMessage(client_name, name, env.rng());
            to_client = faults.OnMessage(name, client_name, env.rng());
          }
          ++*probes;
          // A dropped or request-corrupted probe is pure silence: the
          // failure evidence lands only when the probe deadline expires.
          if (to_server.drop || to_server.corrupt || to_client.drop) {
            const MicrosecondCount wait = core::PileusClient::kProbeTimeoutUs;
            env.ScheduleAfter(wait, [client, alive, name, wait] {
              if (alive.expired()) {
                return;
              }
              client->monitor().RecordLatency(name, wait);
              client->monitor().RecordFailure(name);
            });
            continue;
          }
          // Probe round trip, modelled as events so the client's foreground
          // workload is never blocked by background probing.
          auto& latency = env.latency_model();
          const MicrosecondCount rtt =
              ScaleLatency(
                  latency.SampleOneWay(client_site, entry->site_id, env.rng()),
                  to_server.latency_multiplier) +
              ScaleLatency(
                  latency.SampleOneWay(entry->site_id, client_site, env.rng()),
                  to_client.latency_multiplier);
          proto::ProbeRequest probe;
          probe.table = kTableName;
          // The node processes the probe (approximately) now; the reply's
          // evidence lands in the monitor when it arrives, one RTT later.
          MicrosecondCount extra = 0;
          proto::Message reply = testbed->Serve(*entry, probe, &extra);
          // A corrupted reply frame fails the client codec's CRC check:
          // clean kCorruption, counted as a failure.
          const bool reply_corrupted = to_client.corrupt;
          env.ScheduleAfter(rtt, [client, alive, name, reply, rtt,
                                  reply_corrupted] {
            if (alive.expired()) {
              return;
            }
            client->monitor().RecordLatency(name, rtt);
            const auto* probe_reply = std::get_if<proto::ProbeReply>(&reply);
            if (probe_reply != nullptr && !reply_corrupted) {
              client->monitor().RecordSuccess(name);
              client->monitor().RecordHighTimestamp(
                  name, probe_reply->high_timestamp);
              // Config piggyback: probes are how an idle client learns a
              // failover happened (its next Put then routes correctly).
              client->monitor().RecordConfig(probe_reply->config_epoch,
                                             probe_reply->primary_hint);
            } else {
              client->monitor().RecordFailure(name);
            }
          });
        }
      });
}

void GeoClient::StopProbing() { probe_task_.Cancel(); }

GeoClient::~GeoClient() { StopProbing(); }

// ---------------------------------------------------------------------------
// GeoTestbed
// ---------------------------------------------------------------------------

GeoTestbed::GeoTestbed(GeoTestbedOptions options)
    : options_(options), env_(options.seed, options.latency) {
  auto& latency = env_.latency_model();
  const sim::SiteId us = latency.AddSite(kUs);
  const sim::SiteId england = latency.AddSite(kEngland);
  const sim::SiteId india = latency.AddSite(kIndia);
  china_site_ = latency.AddSite(kChina);

  // Base RTTs in milliseconds (Figure 10 / Figure 3 derived).
  latency.SetRtt(us, england, Ms(147));
  latency.SetRtt(us, india, Ms(300));
  latency.SetRtt(us, china_site_, Ms(160));
  latency.SetRtt(england, india, Ms(435));
  latency.SetRtt(england, china_site_, Ms(307));
  latency.SetRtt(india, china_site_, Ms(250));

  const struct {
    const char* site;
    sim::SiteId id;
  } kNodeSites[] = {{kUs, us}, {kEngland, england}, {kIndia, india}};

  // One tablet spans the table; StartReconfiguration fills in its config.
  map_.table = kTableName;
  map_.tablets.emplace_back();
  map_.tablets.front().range = KeyRange::All();

  nodes_.reserve(3);
  for (const auto& [site, id] : kNodeSites) {
    NodeEntry entry;
    entry.site = site;
    entry.site_id = id;
    const Status built = BuildNode(entry, std::string(site) == kEngland);
    assert(built.ok() && "failed to build the site's node");
    (void)built;
    nodes_.push_back(std::move(entry));
  }
}

Status GeoTestbed::BuildNode(NodeEntry& entry, bool is_primary) {
  entry.node = std::make_unique<storage::StorageNode>(entry.site, entry.site,
                                                      env_.clock());
  if (options_.admission.has_value()) {
    entry.node->EnableAdmission(*options_.admission);
  }
  // Every node gets an agent; only non-authoritative ones pull.
  entry.agent = std::make_unique<replication::ReplicationAgent>(
      entry.node.get(),
      replication::ReplicationAgent::Options{.table = kTableName});
  storage::Tablet::Options options;
  options.range = KeyRange::All();
  options.is_primary = is_primary;
  // Section 6.4: sync replicas in the order England, US, India.
  options.is_sync_replica =
      (options_.sync_replica_count >= 2 && entry.site == kUs) ||
      (options_.sync_replica_count >= 3 && entry.site == kIndia);
  if (options_.durable_root.empty()) {
    return entry.node->AddTablet(kTableName, std::move(options));
  }
  // Durability lets CrashNode/RestartNode model real crash-recovery instead
  // of pretending volatile state survives.
  return server::OpenDurableNode(entry.node.get(), kTableName,
                                 options_.durable_root + "/" + entry.site,
                                 std::move(options), env_.clock())
      .status();
}

GeoTestbed::~GeoTestbed() {
  heartbeat_task_.Cancel();
  for (NodeEntry& entry : nodes_) {
    entry.pull_task.Cancel();
  }
}

GeoTestbed::NodeEntry* GeoTestbed::FindEntry(const std::string& site) {
  for (NodeEntry& entry : nodes_) {
    if (entry.site == site) {
      return &entry;
    }
  }
  return nullptr;
}

storage::StorageNode* GeoTestbed::node(const std::string& site) {
  NodeEntry* entry = FindEntry(site);
  return entry == nullptr ? nullptr : entry->node.get();
}

sim::SiteId GeoTestbed::SiteIdOf(const std::string& site) const {
  return env_.latency_model().FindSite(site);
}

void GeoTestbed::SetRttDelta(const std::string& site_a,
                             const std::string& site_b,
                             MicrosecondCount delta_us) {
  env_.latency_model().SetRttDelta(SiteIdOf(site_a), SiteIdOf(site_b),
                                   delta_us);
}

bool GeoTestbed::IsLive(const std::string& site) {
  NodeEntry* entry = FindEntry(site);
  return entry != nullptr && !entry->crashed && !entry->down;
}

MicrosecondCount GeoTestbed::LeaseDuration() const {
  return options_.enable_failover
             ? reconfig::FailoverCoordinator::kLeaseDurationUs
             : 0;
}

std::optional<proto::TabletMapReply> GeoTestbed::InstallOnNode(
    NodeEntry& entry, const tablets::TabletMap& map) {
  if (entry.crashed || entry.down || entry.node == nullptr) {
    return std::nullopt;  // Unreachable; it learns the map on recovery.
  }
  proto::TabletMapRequest request;
  request.table = kTableName;
  request.install = true;
  request.map = map;
  request.lease_duration_us = LeaseDuration();
  proto::Message reply = entry.node->Handle(request);
  auto* map_reply = std::get_if<proto::TabletMapReply>(&reply);
  if (map_reply == nullptr) {
    return std::nullopt;
  }
  return std::move(*map_reply);
}

void GeoTestbed::StartReconfiguration() {
  if (coordinator_ == nullptr) {
    map_.version = 1;
    reconfig::ConfigEpoch& config = map_.tablets.front().config;
    config.epoch = 1;
    config.primary = primary_site_;
    config.members.clear();
    config.sync_members.clear();
    for (const NodeEntry& entry : nodes_) {
      config.members.push_back(entry.site);
    }
    // Section 6.4 sync-replica order: England (primary), then US, then
    // India — mirrors the tablet roles the constructor set up.
    if (options_.sync_replica_count >= 2) {
      config.sync_members.push_back(kUs);
    }
    if (options_.sync_replica_count >= 3) {
      config.sync_members.push_back(kIndia);
    }
    coordinator_ = std::make_unique<reconfig::FailoverCoordinator>(
        reconfig::FailoverCoordinator::Options{
            .sync_member_target =
                static_cast<int>(config.sync_members.size())});
    for (NodeEntry& entry : nodes_) {
      InstallOnNode(entry, map_);
    }
    if (options_.metrics != nullptr) {
      epoch_gauge_ = options_.metrics->GetGauge("pileus_reconfig_epoch");
      failover_counter_ =
          options_.metrics->GetCounter("pileus_reconfig_failovers_total");
      unavailability_histogram_ = options_.metrics->GetHistogram(
          "pileus_reconfig_crash_to_promotion_us");
      epoch_gauge_->Set(static_cast<int64_t>(config.epoch));
    }
  }
  if (options_.enable_failover && !heartbeat_task_.active()) {
    heartbeat_task_ = env_.SchedulePeriodic(
        reconfig::FailoverCoordinator::kHeartbeatPeriodUs,
        reconfig::FailoverCoordinator::kHeartbeatPeriodUs,
        [this] { RunHeartbeatRound(); });
  }
}

void GeoTestbed::RunHeartbeatRound() {
  const MicrosecondCount now = env_.clock()->NowMicros();
  for (NodeEntry& entry : nodes_) {
    if (!current_config().IsMember(entry.site)) {
      continue;
    }
    // The coordinator's heartbeat doubles as the lease renewal: a
    // same-version re-install extends the primary's write lease, and the
    // reply reports the member's durable WAL tail for promotion ranking.
    if (entry.crashed || entry.down || entry.node == nullptr) {
      coordinator_->OnHeartbeatMiss(entry.site, now);
      continue;
    }
    proto::TabletMapRequest heartbeat;
    heartbeat.table = kTableName;
    heartbeat.install = true;
    heartbeat.map = map_;
    heartbeat.lease_duration_us = LeaseDuration();
    proto::Message reply = entry.node->Handle(heartbeat);
    const auto* map_reply = std::get_if<proto::TabletMapReply>(&reply);
    if (map_reply == nullptr) {
      coordinator_->OnHeartbeatMiss(entry.site, now);
      continue;
    }
    coordinator_->OnHeartbeatAck(entry.site, now,
                                 map_reply->durable_timestamp);
  }
  if (std::optional<tablets::TabletMap> next =
          coordinator_->MaybePlanFailover(map_)) {
    Status st = ExecuteFailover(*next);
    if (!st.ok()) {
      PILEUS_LOG(kWarning) << "failover to "
                           << next->tablets.front().config.primary
                           << " failed: " << st << "; will retry";
    }
  }
}

Status GeoTestbed::TriggerFailover(const std::string& new_primary_site) {
  NodeEntry* target = FindEntry(new_primary_site);
  if (target == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "no storage node at " + new_primary_site);
  }
  if (target->crashed || target->down) {
    return Status(StatusCode::kUnavailable,
                  "cannot promote dead node " + new_primary_site);
  }
  StartReconfiguration();
  if (new_primary_site == primary_site_) {
    return Status::Ok();  // Already holds the role.
  }
  // Any live member may backfill the sync set, heartbeats or not.
  std::optional<tablets::TabletMap> next = coordinator_->PlanMove(
      map_, new_primary_site,
      [this](const std::string& site) { return IsLive(site); });
  if (!next.has_value()) {
    return Status(StatusCode::kInvalidArgument,
                  new_primary_site + " is not a member");
  }
  return ExecuteFailover(*next);
}

Status GeoTestbed::ExecuteFailover(const tablets::TabletMap& next) {
  const reconfig::ConfigEpoch& config = next.tablets.front().config;
  NodeEntry* target = FindEntry(config.primary);
  if (target == nullptr || target->crashed || target->down) {
    return Status(StatusCode::kUnavailable,
                  "planned primary " + config.primary + " is unreachable");
  }
  // 1. Promote: the new primary installs the map first, so it assigns
  //    timestamps above everything it has applied before anyone can route a
  //    Put at it. The install is a successful contact, so detection of the
  //    new primary starts fresh.
  if (std::optional<proto::TabletMapReply> reply =
          InstallOnNode(*target, next)) {
    coordinator_->OnHeartbeatAck(target->site, env_.clock()->NowMicros(),
                                 reply->durable_timestamp);
  }
  // 2. Catch up members that are newly designated sync replicas BEFORE the
  //    install flips their role: a sync replica must hold the complete
  //    committed prefix or strong reads against it would miss writes.
  const reconfig::ConfigEpoch& old_config = current_config();
  for (const std::string& member : config.sync_members) {
    if (old_config.IsSyncMember(member) || member == old_config.primary) {
      continue;  // Already complete (old sync member or demoted primary).
    }
    NodeEntry* entry = FindEntry(member);
    if (entry == nullptr || entry->crashed || entry->down) {
      continue;
    }
    (void)PullInProcess(*entry, *target);
  }
  // 3. Install on the remaining live members. This demotes — and thereby
  //    fences — the old primary when it is still alive (a deliberate move);
  //    a crashed one is re-fenced from its journaled config on restart.
  for (NodeEntry& entry : nodes_) {
    if (&entry == target) {
      continue;
    }
    InstallOnNode(entry, next);
  }
  // 4. Commit.
  NodeEntry* old_primary = FindEntry(old_config.primary);
  primary_site_ = config.primary;
  map_ = next;
  ++failovers_;
  if (failover_counter_ != nullptr) {
    failover_counter_->Increment();
  }
  if (epoch_gauge_ != nullptr) {
    epoch_gauge_->Set(static_cast<int64_t>(current_config().epoch));
  }
  if (unavailability_histogram_ != nullptr && old_primary != nullptr &&
      old_primary->crashed && old_primary->crashed_at_us >= 0) {
    unavailability_histogram_->Record(env_.clock()->NowMicros() -
                                      old_primary->crashed_at_us);
  }
  PILEUS_LOG(kInfo) << "reconfigured: " << current_config().ToString();
  return Status::Ok();
}

void GeoTestbed::StartReplication() {
  for (NodeEntry& entry : nodes_) {
    if (entry.pull_task.active()) {
      continue;
    }
    NodeEntry* entry_ptr = &entry;
    entry.pull_task = env_.SchedulePeriodic(
        options_.replication_period_us, options_.replication_period_us,
        [this, entry_ptr] { RunPullRound(*entry_ptr); });
  }
}

Status GeoTestbed::CatchUpSecondaries() {
  NodeEntry* primary = FindEntry(primary_site_);
  for (NodeEntry& entry : nodes_) {
    if (!entry.crashed &&
        !entry.node->FindTablet(kTableName, "")->authoritative()) {
      PILEUS_RETURN_IF_ERROR(PullInProcess(entry, *primary));
    }
  }
  return Status::Ok();
}

Status GeoTestbed::PullInProcess(NodeEntry& entry, NodeEntry& source) {
  replication::BlockingPuller puller(
      entry.agent.get(), [node = source.node.get()](
                             const proto::SyncRequest& request) {
        return replication::ToSyncReply(node->Handle(request));
      });
  return puller.PullOnce().status();
}

void GeoTestbed::RunPullRound(NodeEntry& entry) {
  if (entry.down || entry.crashed) {
    return;  // A dead node does not replicate.
  }
  if (entry.node->FindTablet(kTableName, "")->authoritative()) {
    return;  // The primary (and sync replicas) never pull.
  }
  NodeEntry* primary = FindEntry(primary_site_);
  assert(primary != nullptr);
  if (primary->down || primary->crashed) {
    return;  // Nothing to pull from; try again next period.
  }
  // Replication traffic obeys the same fault rules as client traffic: a
  // dropped or corrupted leg wastes the round (retried next period), gray
  // slowness stretches it.
  sim::FaultDecision to_primary;
  sim::FaultDecision to_secondary;
  if (faults_.Affects(entry.site, primary->site) ||
      faults_.Affects(primary->site, entry.site)) {
    to_primary = faults_.OnMessage(entry.site, primary->site, env_.rng());
    to_secondary = faults_.OnMessage(primary->site, entry.site, env_.rng());
  }
  if (to_primary.drop || to_primary.corrupt || to_secondary.drop ||
      to_secondary.corrupt) {
    return;
  }
  const proto::SyncRequest request = entry.agent->NextRequest();
  auto& latency = env_.latency_model();
  const MicrosecondCount ow1 =
      ScaleLatency(latency.SampleOneWay(entry.site_id, primary->site_id,
                                        env_.rng()),
                   to_primary.latency_multiplier);
  const double reply_multiplier = to_secondary.latency_multiplier;
  NodeEntry* entry_ptr = &entry;
  env_.ScheduleAfter(ow1, [this, entry_ptr, primary, request,
                           reply_multiplier] {
    if (primary->down || primary->crashed) {
      return;  // Died while the request was in flight.
    }
    // Request arrives at the primary: capture the reply there.
    Result<proto::SyncReply> reply =
        replication::ToSyncReply(primary->node->Handle(request));
    ++replication_rounds_;
    auto& lat = env_.latency_model();
    const MicrosecondCount ow2 = ScaleLatency(
        lat.SampleOneWay(primary->site_id, entry_ptr->site_id, env_.rng()),
        reply_multiplier);
    env_.ScheduleAfter(ow2, [this, entry_ptr, reply = std::move(reply)] {
      if (entry_ptr->down || entry_ptr->crashed || !reply.ok()) {
        return;  // Crashed while the reply was in flight, or no reply.
      }
      // A durable tablet journals the pulled versions as it applies them,
      // and the agent syncs the journal: they survive a crash just like
      // primary writes.
      const Result<bool> more = entry_ptr->agent->OnReply(reply.value());
      if (more.ok() && more.value()) {
        RunPullRound(*entry_ptr);  // Immediately start another round.
      }
    });
  });
}

void GeoTestbed::SetNodeDown(const std::string& site, bool down) {
  NodeEntry* entry = FindEntry(site);
  assert(entry != nullptr);
  entry->down = down;
}

void GeoTestbed::CrashNode(const std::string& site) {
  NodeEntry* entry = FindEntry(site);
  assert(entry != nullptr && "cannot crash a client-only site");
  if (entry->crashed) {
    return;
  }
  // The node goes silent: every message touching it now drops, so clients
  // see only deadline expiries (contrast SetNodeDown's fast kUnavailable).
  faults_.CrashNode(site);
  entry->crashed = true;
  entry->crashed_at_us = env_.clock()->NowMicros();
  // Volatile state dies with the process. The tablet's journal on disk
  // survives.
  entry->agent.reset();
  entry->node.reset();
}

bool GeoTestbed::IsNodeCrashed(const std::string& site) {
  NodeEntry* entry = FindEntry(site);
  return entry != nullptr && entry->crashed;
}

Status GeoTestbed::RestartNode(const std::string& site) {
  NodeEntry* entry = FindEntry(site);
  if (entry == nullptr) {
    return Status(StatusCode::kInvalidArgument, "no storage node at " + site);
  }
  if (!entry->crashed) {
    return Status(StatusCode::kInvalidArgument,
                  "node " + site + " is not crashed");
  }
  // Rebuild the node empty, as a restarted process would, and recover it as
  // a plain secondary first: promotion after replay lets SetPrimary seed the
  // timestamp allocator above everything replayed.
  PILEUS_RETURN_IF_ERROR(BuildNode(*entry, /*is_primary=*/false));
  if (coordinator_ != nullptr) {
    // Recovery re-installed the journaled config fenced, so a restarted
    // ex-primary rejects Puts with kNotPrimary until the coordinator speaks.
    // Adopt the live map now (a newer version demotes a stale ex-primary to
    // secondary; the same version just clears the expired lease).
    entry->node->InstallTabletMap(map_, /*lease_expiry_us=*/0);
  } else {
    entry->node->FindTablet(kTableName, "")->SetPrimary(site == primary_site_);
  }
  entry->crashed = false;
  entry->crashed_at_us = -1;
  faults_.RecoverNode(site);
  return Status::Ok();
}

proto::Message GeoTestbed::Serve(NodeEntry& entry,
                                 const proto::Message& request,
                                 MicrosecondCount* extra_delay_us) {
  *extra_delay_us = 0;
  if (entry.down || entry.crashed) {
    // `crashed` is normally unreachable (the injector drops the message
    // first) but guards direct Serve callers against a destroyed node.
    proto::ErrorReply err;
    err.code = StatusCode::kUnavailable;
    err.message = "node " + entry.site + " is down";
    return err;
  }
  proto::Message reply = entry.node->Handle(request);

  // Admitted-but-queued requests genuinely take longer: the admission
  // controller's measured queue delay joins the server-side delay, so
  // overload shows up in virtual-time latencies, not just in counters.
  std::visit(
      [extra_delay_us](const auto& m) {
        if constexpr (requires { m.queue_delay_us; }) {
          *extra_delay_us += m.queue_delay_us;
        }
      },
      reply);

  // Section 6.4: with multiple sync replicas, a Put or Delete at the
  // primary is acked only after every sync replica applied it. The
  // client-visible extra delay is the slowest replica's round trip.
  if (options_.sync_replica_count <= 1 || entry.site != primary_site_) {
    return reply;
  }
  const auto* put_reply = std::get_if<proto::PutReply>(&reply);
  if (put_reply == nullptr) {
    return reply;
  }
  proto::ObjectVersion accepted;
  accepted.timestamp = put_reply->timestamp;
  if (const auto* put = std::get_if<proto::PutRequest>(&request)) {
    accepted.key = put->key;
    accepted.value = put->value;
  } else if (const auto* del = std::get_if<proto::DeleteRequest>(&request)) {
    accepted.key = del->key;
    accepted.is_tombstone = true;
  } else {
    return reply;
  }
  auto& latency = env_.latency_model();
  MicrosecondCount slowest = 0;
  for (NodeEntry& other : nodes_) {
    if (&other == &entry || other.down || other.crashed) {
      continue;
    }
    storage::Tablet* tablet = other.node->FindTablet(kTableName, "");
    if (tablet == nullptr || !tablet->is_sync_replica()) {
      continue;
    }
    (void)tablet->ApplyReplicatedPut(accepted);
    const MicrosecondCount rtt =
        latency.SampleOneWay(entry.site_id, other.site_id, env_.rng()) +
        latency.SampleOneWay(other.site_id, entry.site_id, env_.rng());
    slowest = std::max(slowest, rtt);
  }
  *extra_delay_us += slowest;
  return reply;
}

std::unique_ptr<GeoClient> GeoTestbed::MakeClient(
    const std::string& site, core::PileusClient::Options options) {
  const sim::SiteId client_site = SiteIdOf(site);
  assert(client_site >= 0 && "unknown site");

  // Put-retry backoffs advance virtual time (and with it replication,
  // probes, and recovery) instead of busy-looping at one instant.
  if (!options.sleep_fn) {
    options.sleep_fn = [this](MicrosecondCount us) { env_.RunFor(us); };
  }

  core::TableView view;
  view.table_name = kTableName;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    NodeEntry& entry = nodes_[i];
    NodeEntry* entry_ptr = &entry;
    core::Replica replica;
    replica.name = entry.site;
    replica.authoritative =
        entry.node->FindTablet(kTableName, "")->authoritative();
    replica.connection = std::make_shared<SimConnection>(
        this, &env_, client_site, site, entry.site_id, entry.site,
        [this, entry_ptr](const proto::Message& request,
                          MicrosecondCount* extra) {
          return Serve(*entry_ptr, request, extra);
        });
    view.replicas.push_back(std::move(replica));
    if (entry.site == primary_site_) {
      view.primary_index = static_cast<int>(i);
    }
  }

  auto geo_client = std::unique_ptr<GeoClient>(new GeoClient());
  geo_client->site_name_ = site;
  geo_client->site_ = client_site;
  geo_client->testbed_ = this;
  geo_client->fanout_ = std::make_unique<GeoClient::SimFanout>(&env_);
  geo_client->client_ = std::make_unique<core::PileusClient>(
      std::move(view), env_.clock(), options, geo_client->fanout_.get());
  return geo_client;
}

}  // namespace pileus::experiments
