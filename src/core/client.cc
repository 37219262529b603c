#include "src/core/client.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "src/common/logging.h"

namespace pileus::core {

Status TableView::Validate() const {
  if (table_name.empty()) {
    return Status(StatusCode::kInvalidArgument, "table has no name");
  }
  if (replicas.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "table '" + table_name + "' has no replicas");
  }
  if (primary_index < 0 ||
      primary_index >= static_cast<int>(replicas.size())) {
    return Status(StatusCode::kInvalidArgument,
                  "table '" + table_name + "' has no valid primary index");
  }
  if (!replicas[primary_index].authoritative) {
    return Status(StatusCode::kInvalidArgument,
                  "primary replica must be authoritative");
  }
  for (const Replica& replica : replicas) {
    if (replica.name.empty() || replica.connection == nullptr) {
      return Status(StatusCode::kInvalidArgument,
                    "replica missing name or connection");
    }
  }
  return Status::Ok();
}

std::vector<ReplicaView> TableView::MakeReplicaViews() const {
  std::vector<ReplicaView> views;
  views.reserve(replicas.size());
  for (const Replica& replica : replicas) {
    views.push_back(ReplicaView{replica.name, replica.authoritative});
  }
  return views;
}

std::string_view ReadStrategyName(ReadStrategy strategy) {
  switch (strategy) {
    case ReadStrategy::kPileus:
      return "Pileus";
    case ReadStrategy::kPrimary:
      return "Primary";
    case ReadStrategy::kRandom:
      return "Random";
    case ReadStrategy::kClosest:
      return "Closest";
  }
  return "Unknown";
}

PileusClient::PileusClient(TableView table, const Clock* clock)
    : PileusClient(std::move(table), clock, Options{}, nullptr) {}

PileusClient::PileusClient(TableView table, const Clock* clock,
                           Options options, FanoutCaller* fanout)
    : table_(std::move(table)),
      clock_(clock),
      options_(std::move(options)),
      fanout_(fanout),
      own_monitor_(clock, options_.monitor),
      monitor_(options_.shared_monitor != nullptr ? options_.shared_monitor
                                                   : &own_monitor_),
      own_retry_budget_(options_.retry_budget),
      retry_budget_(options_.shared_retry_budget != nullptr
                        ? options_.shared_retry_budget
                        : &own_retry_budget_),
      replica_views_(table_.MakeReplicaViews()),
      rng_(options_.seed),
      current_primary_index_(table_.primary_index) {
  assert(table_.Validate().ok() && "invalid TableView");
  assert((options_.parallel_fanout <= 1 || fanout_ != nullptr) &&
         "parallel_fanout > 1 requires a FanoutCaller");
  InitInstruments();
}

void PileusClient::InitInstruments() {
  telemetry::MetricsRegistry* registry = options_.metrics;
  if (registry == nullptr) {
    return;
  }
  const std::string_view table = table_.table_name;
  const auto counter = [&](std::string_view base) {
    return registry->GetCounter(
        telemetry::WithLabels(base, {{"table", table}}));
  };
  const auto rank_counter = [&](std::string_view base, std::string_view rank) {
    return registry->GetCounter(
        telemetry::WithLabels(base, {{"table", table}, {"rank", rank}}));
  };
  instruments_.gets = counter("pileus_client_gets_total");
  instruments_.ranges = counter("pileus_client_ranges_total");
  instruments_.puts = counter("pileus_client_puts_total");
  instruments_.deletes = counter("pileus_client_deletes_total");
  instruments_.probes = counter("pileus_client_probes_total");
  instruments_.get_errors = counter("pileus_client_get_errors_total");
  instruments_.put_errors = counter("pileus_client_put_errors_total");
  instruments_.retries = counter("pileus_client_retries_total");
  instruments_.put_redirects = counter("pileus_client_put_redirects_total");
  instruments_.messages = counter("pileus_client_messages_total");
  instruments_.utility_micros = counter("pileus_client_utility_micros_total");
  for (int rank = 0; rank < Instruments::kTrackedRanks; ++rank) {
    const std::string label = std::to_string(rank);
    instruments_.met_by_rank[rank] =
        rank_counter("pileus_client_sla_met_total", label);
    instruments_.target_by_rank[rank] =
        rank_counter("pileus_client_sla_target_total", label);
  }
  instruments_.met_none = rank_counter("pileus_client_sla_met_total", "none");
  instruments_.met_overflow =
      rank_counter("pileus_client_sla_met_total", "8plus");
  instruments_.target_overflow =
      rank_counter("pileus_client_sla_target_total", "8plus");
  instruments_.cache_served = counter("pileus_client_cache_served_total");
  for (int rank = 0; rank < Instruments::kTrackedRanks; ++rank) {
    instruments_.cache_served_by_rank[rank] = rank_counter(
        "pileus_client_sla_cache_served_total", std::to_string(rank));
  }
  instruments_.cache_served_overflow =
      rank_counter("pileus_client_sla_cache_served_total", "8plus");
  instruments_.overload_rejections =
      counter("pileus_client_overload_rejections_total");
  instruments_.retry_budget_denied =
      counter("pileus_client_retry_budget_denied_total");
  instruments_.degraded_cache_served =
      counter("pileus_client_degraded_cache_served_total");
  instruments_.get_latency_us = registry->GetHistogram(
      telemetry::WithLabels("pileus_client_get_latency_us", {{"table", table}}));
  instruments_.put_latency_us = registry->GetHistogram(
      telemetry::WithLabels("pileus_client_put_latency_us", {{"table", table}}));
}

void PileusClient::CountReadOutcome(const GetOutcome& outcome) {
  if (options_.metrics == nullptr) {
    return;
  }
  if (outcome.target_rank >= 0) {
    (outcome.target_rank < Instruments::kTrackedRanks
         ? instruments_.target_by_rank[outcome.target_rank]
         : instruments_.target_overflow)
        ->Increment();
  }
  if (outcome.met_rank >= 0) {
    (outcome.met_rank < Instruments::kTrackedRanks
         ? instruments_.met_by_rank[outcome.met_rank]
         : instruments_.met_overflow)
        ->Increment();
    if (outcome.utility > 0.0) {
      instruments_.utility_micros->Increment(
          static_cast<uint64_t>(outcome.utility * 1e6 + 0.5));
    }
  } else {
    instruments_.met_none->Increment();
  }
  if (outcome.messages_sent > 0) {
    instruments_.messages->Increment(
        static_cast<uint64_t>(outcome.messages_sent));
  }
  if (outcome.retried) {
    instruments_.retries->Increment();
  }
  instruments_.get_latency_us->Record(outcome.rtt_us);
}

void PileusClient::EmitReadTrace(telemetry::TraceOp op, const Session& session,
                                 std::string_view key, const Sla& sla,
                                 const GetOutcome& outcome,
                                 const Timestamp& read_ts, bool ok) {
  if (options_.trace_sink == nullptr) {
    return;
  }
  telemetry::TraceEvent event;
  event.op = op;
  event.time_us = clock_->NowMicros();
  event.table = table_.table_name;
  event.key = std::string(key);
  event.node = outcome.node_name;
  event.node_index = outcome.node_index;
  event.target_rank = outcome.target_rank;
  event.met_rank = outcome.met_rank;
  // The guarantee whose minimum acceptable timestamp the reply is judged
  // against: the met subSLA when one was met, otherwise the top-ranked one
  // the caller most wanted.
  const int judged_rank = outcome.met_rank >= 0 ? outcome.met_rank : 0;
  if (judged_rank < static_cast<int>(sla.size())) {
    const Guarantee& guarantee = sla[judged_rank].consistency;
    if (outcome.met_rank >= 0) {
      event.consistency = guarantee.ToString();
    }
    event.min_acceptable =
        op == telemetry::TraceOp::kRange
            ? session.MinReadTimestampForScan(guarantee, event.time_us)
            : session.MinReadTimestamp(guarantee, key, event.time_us);
  }
  event.utility = outcome.utility;
  event.rtt_us = outcome.rtt_us;
  event.read_timestamp = read_ts;
  event.from_primary = outcome.from_primary;
  event.retried = outcome.retried;
  event.ok = ok;
  options_.trace_sink->OnTrace(event);
}

void PileusClient::EmitReadRecord(AuditOp op, const Session& session,
                                  std::string_view key,
                                  std::string_view end_key,
                                  MicrosecondCount begin_us, const Sla& sla,
                                  const GetOutcome& outcome, bool ok,
                                  const proto::GetReply* reply,
                                  const proto::RangeReply* range) {
  if (options_.op_observer == nullptr) {
    return;
  }
  OpRecord record;
  record.op = op;
  record.session_id = session.id();
  record.table = table_.table_name;
  record.key = std::string(key);
  record.end_key = std::string(end_key);
  record.begin_us = begin_us;
  record.end_us = clock_->NowMicros();
  record.ok = ok;
  record.node = outcome.node_name;
  record.target_rank = outcome.target_rank;
  record.claimed_met_rank = outcome.met_rank;
  if (outcome.met_rank >= 0 &&
      outcome.met_rank < static_cast<int>(sla.size())) {
    record.claimed_guarantee = sla[outcome.met_rank].consistency;
    record.claimed_latency_bound_us = sla[outcome.met_rank].latency_us;
  }
  record.from_primary = outcome.from_primary;
  record.retried = outcome.retried;
  if (reply != nullptr) {
    record.found = reply->found;
    record.value = reply->value;
    record.value_timestamp = reply->value_timestamp;
    record.high_timestamp = reply->high_timestamp;
  }
  if (range != nullptr) {
    record.items = range->items;
    record.high_timestamp = range->high_timestamp;
  }
  options_.op_observer->OnOp(record);
}

void PileusClient::EmitWriteRecord(AuditOp op, const Session& session,
                                   std::string_view key,
                                   MicrosecondCount begin_us, bool ok,
                                   const Timestamp& assigned) {
  if (options_.op_observer == nullptr) {
    return;
  }
  OpRecord record;
  record.op = op;
  record.session_id = session.id();
  record.table = table_.table_name;
  record.key = std::string(key);
  record.begin_us = begin_us;
  record.end_us = clock_->NowMicros();
  record.ok = ok;
  record.node = table_.replicas[current_primary_index_].name;
  record.from_primary = true;
  record.write_timestamp = assigned;
  options_.op_observer->OnOp(record);
}

Result<Session> PileusClient::BeginSession(const Sla& default_sla) const {
  Status st = default_sla.Validate();
  if (!st.ok()) {
    return st;
  }
  return Session(default_sla);
}

Result<GetResult> PileusClient::Get(Session& session, std::string_view key) {
  return DoGet(session, key, session.default_sla());
}

Result<GetResult> PileusClient::Get(Session& session, std::string_view key,
                                    const Sla& sla) {
  Status st = sla.Validate();
  if (!st.ok()) {
    return st;
  }
  return DoGet(session, key, sla);
}

int PileusClient::PickFixedStrategyNode() {
  switch (options_.strategy) {
    case ReadStrategy::kPrimary:
      return current_primary_index_;
    case ReadStrategy::kRandom:
      return static_cast<int>(rng_.NextUint64(table_.replicas.size()));
    case ReadStrategy::kClosest: {
      // Lowest mean monitored latency; unmeasured nodes report 0, so they get
      // tried first and the estimate warms up quickly.
      int best = 0;
      MicrosecondCount best_latency =
          monitor_->MeanLatency(table_.replicas[0].name);
      for (size_t i = 1; i < table_.replicas.size(); ++i) {
        const MicrosecondCount lat =
            monitor_->MeanLatency(table_.replicas[i].name);
        if (lat < best_latency) {
          best_latency = lat;
          best = static_cast<int>(i);
        }
      }
      return best;
    }
    case ReadStrategy::kPileus:
      break;
  }
  assert(false && "PickFixedStrategyNode called for Pileus strategy");
  return current_primary_index_;
}

void PileusClient::NoteReplyConfig(const proto::Message& message) {
  std::visit(
      [this](const auto& m) {
        if constexpr (requires { m.config_epoch; m.primary_hint; }) {
          monitor_->RecordConfig(m.config_epoch, m.primary_hint);
        }
      },
      message);
}

int PileusClient::FindReplicaIndex(std::string_view name) const {
  for (size_t i = 0; i < table_.replicas.size(); ++i) {
    if (table_.replicas[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void PileusClient::MaybeAdoptConfig() {
  const Monitor::ConfigView config = monitor_->CurrentConfig();
  if (config.epoch <= applied_config_epoch_) {
    return;
  }
  const int index = FindReplicaIndex(config.primary);
  if (index < 0) {
    // The new primary is outside this client's replica set (partial view);
    // leave the epoch unapplied so a later, resolvable config still takes.
    return;
  }
  applied_config_epoch_ = config.epoch;
  if (index == current_primary_index_) {
    return;
  }
  current_primary_index_ = index;
  for (size_t i = 0; i < replica_views_.size(); ++i) {
    replica_views_[i].authoritative = static_cast<int>(i) == index;
  }
}

int PileusClient::AbsorbReplyEvidence(int node_index, const TimedReply& timed,
                                      bool record_latency) {
  const std::string& name = table_.replicas[node_index].name;
  // Latency evidence is useful even for timeouts (the sample equals the
  // deadline, pushing PNodeLat down for thresholds below it).
  if (record_latency) {
    monitor_->RecordLatency(name, timed.rtt_us);
  }
  if (!timed.reply.ok()) {
    // Transport-level failure (unreachable, reset, deadline with no answer).
    monitor_->RecordFailure(name);
    return -1;
  }
  const proto::Message& message = timed.reply.value();
  NoteReplyConfig(message);
  if (const auto* err = std::get_if<proto::ErrorReply>(&message)) {
    if (err->code == StatusCode::kOverloaded) {
      // The node is up but shedding: start its backoff window so selection
      // discounts it, without denting PNodeUp (it did answer).
      monitor_->RecordOverload(
          name, static_cast<MicrosecondCount>(err->retry_after_ms) *
                    kMicrosecondsPerMillisecond);
      overload_rejections_.fetch_add(1, std::memory_order_relaxed);
      if (instruments_.overload_rejections != nullptr) {
        instruments_.overload_rejections->Increment();
      }
      return static_cast<int>(err->retry_after_ms);
    }
    // The node answered, so it is up - unless it reported itself unavailable.
    if (err->code == StatusCode::kUnavailable) {
      monitor_->RecordFailure(name);
    } else {
      monitor_->RecordSuccess(name);
    }
    return -1;
  }
  monitor_->RecordSuccess(name);
  if (const auto* get = std::get_if<proto::GetReply>(&message)) {
    monitor_->RecordHighTimestamp(name, get->high_timestamp);
    monitor_->RecordQueueDelay(name, get->queue_delay_us);
  } else if (const auto* put = std::get_if<proto::PutReply>(&message)) {
    monitor_->RecordHighTimestamp(name, put->high_timestamp);
    monitor_->RecordQueueDelay(name, put->queue_delay_us);
  } else if (const auto* probe = std::get_if<proto::ProbeReply>(&message)) {
    monitor_->RecordHighTimestamp(name, probe->high_timestamp);
    monitor_->RecordQueueDelay(name, probe->queue_delay_us);
  } else if (const auto* range = std::get_if<proto::RangeReply>(&message)) {
    monitor_->RecordHighTimestamp(name, range->high_timestamp);
    monitor_->RecordQueueDelay(name, range->queue_delay_us);
  }
  return -1;
}

MicrosecondCount PileusClient::JitteredBackoff(MicrosecondCount nominal_us,
                                               int retry_after_ms) {
  MicrosecondCount base = nominal_us;
  if (retry_after_ms > 0) {
    base = std::max(base, static_cast<MicrosecondCount>(retry_after_ms) *
                              kMicrosecondsPerMillisecond);
  }
  // Full waits from synchronized clients would re-stampede a recovering
  // node, so each waits a uniformly random 50-100% of the base.
  return static_cast<MicrosecondCount>(static_cast<double>(base) *
                                       (0.5 + 0.5 * rng_.NextDouble()));
}

void PileusClient::AdmitToCache(std::string_view key,
                                const proto::GetReply& reply) {
  if (options_.cache == nullptr) {
    return;
  }
  // A not-found reply is positive evidence of absence: the node's prefix
  // holds nothing live for the key at or below its high timestamp. The
  // value timestamp carries the tombstone's update timestamp when the key
  // was deleted (Zero when it never existed).
  options_.cache->Admit(table_.table_name, key,
                        reply.found ? std::string_view(reply.value)
                                    : std::string_view(),
                        reply.value_timestamp, /*is_tombstone=*/!reply.found,
                        reply.high_timestamp);
}

int PileusClient::DetermineMetRank(const Sla& sla, const Session& session,
                                   std::string_view key,
                                   const proto::GetReply& reply,
                                   MicrosecondCount total_rtt_us,
                                   MicrosecondCount now_us) const {
  for (size_t rank = 0; rank < sla.size(); ++rank) {
    const SubSla& sub = sla[rank];
    if (total_rtt_us > sub.latency_us) {
      continue;
    }
    if (sub.consistency.RequiresAuthoritative()) {
      if (reply.served_by_primary) {
        return static_cast<int>(rank);
      }
      continue;
    }
    const Timestamp min_read =
        session.MinReadTimestamp(sub.consistency, key, now_us);
    if (reply.high_timestamp >= min_read) {
      return static_cast<int>(rank);
    }
  }
  return -1;
}

Result<GetResult> PileusClient::DoGet(Session& session, std::string_view key,
                                      const Sla& sla) {
  MaybeAdoptConfig();
  ++gets_issued_;
  if (instruments_.gets != nullptr) {
    instruments_.gets->Increment();
  }
  const MicrosecondCount deadline_us = sla.MaxLatency();
  const MicrosecondCount start_us = clock_->NowMicros();

  proto::GetRequest request;
  request.table = table_.table_name;
  request.key = std::string(key);
  request.tenant = options_.tenant;
  request.deadline_us = deadline_us;

  GetOutcome outcome;
  outcome.messages_sent = 0;

  // --- Cache pseudo-replica (DESIGN.md "Client cache") ---
  // An entry is eligible only past the session's hand-off floor: a session
  // resumed on this frontend must not trust cache state older than
  // everything it had already observed elsewhere.
  std::optional<cache::ClientCache::Entry> cached;
  if (options_.cache != nullptr &&
      options_.strategy == ReadStrategy::kPileus) {
    cached = options_.cache->Lookup(table_.table_name, key);
    if (cached.has_value() &&
        cached->valid_through < session.cache_floor()) {
      cached.reset();
    }
  }

  // --- Choose target node(s) ---
  std::vector<int> targets;
  if (options_.strategy == ReadStrategy::kPileus) {
    CacheView cache_view;
    const CacheView* cache_view_ptr = nullptr;
    if (cached.has_value()) {
      cache_view.high_timestamp = cached->valid_through;
      cache_view.latency_us = options_.cache->options().serve_latency_us;
      cache_view_ptr = &cache_view;
    }
    const SelectionResult sel =
        SelectTarget(sla, replica_views_, cache_view_ptr, session, key,
                     start_us, *monitor_, options_.selection, &rng_);
    outcome.target_rank = sel.target_rank;

    if (sel.cache_selected) {
      // Serve locally. Synthesize the reply the entry invariant asserts and
      // re-verify the claim with the same DetermineMetRank as a network
      // reply, at execution time; the audit checker later re-verifies it
      // against the committed history like any other read.
      proto::GetReply reply;
      reply.found = !cached->is_tombstone;
      reply.value = cached->value;
      reply.value_timestamp = cached->timestamp;
      reply.high_timestamp = cached->valid_through;
      reply.served_by_primary = false;
      const MicrosecondCount now_us = clock_->NowMicros();
      const int met =
          DetermineMetRank(sla, session, key, reply, now_us - start_us,
                           now_us);
      if (met >= 0) {
        outcome.met_rank = met;
        outcome.utility = sla[met].utility;
        outcome.rtt_us = now_us - start_us;
        outcome.node_index = -1;
        outcome.node_name = std::string(kCacheNodeName);
        outcome.from_cache = true;
        outcome.messages_sent = 0;

        GetResult result;
        result.found = reply.found;
        result.value = reply.value;
        result.timestamp = reply.value_timestamp;
        result.outcome = outcome;
        if (!result.timestamp.IsZero()) {
          session.RecordGet(key, result.timestamp);
        }
        retry_budget_->RecordSuccess();
        cache_serves_.fetch_add(1, std::memory_order_relaxed);
        if (instruments_.cache_served != nullptr) {
          instruments_.cache_served->Increment();
          (met < Instruments::kTrackedRanks
               ? instruments_.cache_served_by_rank[met]
               : instruments_.cache_served_overflow)
              ->Increment();
        }
        CountReadOutcome(outcome);
        EmitReadTrace(telemetry::TraceOp::kGet, session, key, sla, outcome,
                      reply.high_timestamp, /*ok=*/true);
        EmitReadRecord(AuditOp::kGet, session, key, {}, start_us, sla,
                       outcome, /*ok=*/true, &reply, nullptr);
        return result;
      }
      // The claim selection promised no longer holds at execution time
      // (e.g. a bounded floor advanced past valid_through between the two
      // clock reads); fall through to the network choice.
    }
    targets.push_back(sel.node_index);
    // Parallel Gets (Section 6.3): fan out across additional tied candidates.
    for (int candidate : sel.candidates) {
      if (static_cast<int>(targets.size()) >= options_.parallel_fanout) {
        break;
      }
      if (candidate != sel.node_index) {
        targets.push_back(candidate);
      }
    }
  } else {
    targets.push_back(PickFixedStrategyNode());
  }

  // The admission context travels with the request: the subSLA rank this
  // read aims for (its utility decides how early the server sheds it) and
  // whether only an authoritative answer can satisfy it.
  const int aim_rank = outcome.target_rank >= 0 ? outcome.target_rank : 0;
  request.utility_micros = static_cast<uint32_t>(
      std::min(sla[aim_rank].utility, 4000.0) * 1e6 + 0.5);
  request.strong_read = sla[aim_rank].consistency.RequiresAuthoritative();
  const proto::Message request_message = request;

  // --- Issue the read(s) ---
  std::vector<TimedReply> replies;
  if (targets.size() == 1) {
    replies.push_back(
        table_.replicas[targets[0]].connection->Call(request_message,
                                                     deadline_us));
  } else {
    std::vector<NodeConnection*> connections;
    connections.reserve(targets.size());
    for (int t : targets) {
      connections.push_back(table_.replicas[t].connection.get());
    }
    replies = fanout_->CallAll(connections, request_message, deadline_us);
  }
  outcome.messages_sent += static_cast<int>(targets.size());
  messages_sent_ += targets.size();

  bool overload_seen = false;
  int last_retry_after_ms = -1;
  for (size_t i = 0; i < targets.size(); ++i) {
    const int hint = AbsorbReplyEvidence(targets[i], replies[i]);
    if (hint >= 0) {
      overload_seen = true;
      last_retry_after_ms = std::max(last_retry_after_ms, hint);
    }
  }

  // --- Pick the winning reply: best met subSLA, then lowest RTT ---
  const MicrosecondCount eval_now = clock_->NowMicros();
  int winner = -1;
  int winner_met = -1;
  for (size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].reply.ok()) {
      continue;
    }
    const auto* get_reply =
        std::get_if<proto::GetReply>(&replies[i].reply.value());
    if (get_reply == nullptr) {
      continue;  // ErrorReply (wrong node, missing table, ...).
    }
    // Every well-formed reply is key-covering evidence, not just the winner.
    AdmitToCache(key, *get_reply);
    const int met = DetermineMetRank(sla, session, key, *get_reply,
                                     replies[i].rtt_us, eval_now);
    const bool better =
        winner < 0 ||
        (met >= 0 && (winner_met < 0 || met < winner_met)) ||
        (met == winner_met && replies[i].rtt_us < replies[winner].rtt_us);
    if (better) {
      winner = static_cast<int>(i);
      winner_met = met;
    }
  }

  // --- Availability retries (Section 3.3): the targeted node(s) failed
  // outright; try the remaining replicas while deadline budget remains ---
  if (winner < 0 && options_.retry_other_replicas_on_failure &&
      options_.strategy == ReadStrategy::kPileus) {
    // Untried replicas, most promising (lowest mean monitored latency)
    // first; unmeasured nodes sort first and get explored.
    std::vector<int> untried;
    for (int i = 0; i < static_cast<int>(table_.replicas.size()); ++i) {
      if (std::find(targets.begin(), targets.end(), i) == targets.end()) {
        untried.push_back(i);
      }
    }
    std::sort(untried.begin(), untried.end(), [&](int a, int b) {
      return monitor_->MeanLatency(table_.replicas[a].name) <
             monitor_->MeanLatency(table_.replicas[b].name);
    });
    for (int idx : untried) {
      const MicrosecondCount elapsed = clock_->NowMicros() - start_us;
      const MicrosecondCount remaining = deadline_us - elapsed;
      if (remaining <= 0) {
        break;
      }
      // Every extra attempt spends retry budget: a brown-out must not turn
      // failed reads into an amplifying storm (DESIGN.md Section 11).
      if (!retry_budget_->TryAcquire()) {
        if (instruments_.retry_budget_denied != nullptr) {
          instruments_.retry_budget_denied->Increment();
        }
        break;
      }
      // Deadline propagation: the server sees what is actually left, not the
      // original budget, so it can shed reads its queue can no longer meet.
      proto::GetRequest retry_request = request;
      retry_request.deadline_us = remaining;
      TimedReply attempt = table_.replicas[idx].connection->Call(
          proto::Message(retry_request), remaining);
      ++outcome.messages_sent;
      ++messages_sent_;
      const int hint = AbsorbReplyEvidence(idx, attempt);
      if (hint >= 0) {
        overload_seen = true;
        last_retry_after_ms = std::max(last_retry_after_ms, hint);
      }
      if (!attempt.reply.ok()) {
        continue;
      }
      const auto* get_reply =
          std::get_if<proto::GetReply>(&attempt.reply.value());
      if (get_reply == nullptr) {
        continue;
      }
      AdmitToCache(key, *get_reply);
      // The app-visible latency of this Get includes the failed attempts.
      const MicrosecondCount total =
          std::max(attempt.rtt_us, clock_->NowMicros() - start_us);
      targets.push_back(idx);
      replies.emplace_back(std::move(attempt.reply), total);
      winner = static_cast<int>(replies.size()) - 1;
      winner_met = DetermineMetRank(sla, session, key, *get_reply, total,
                                    clock_->NowMicros());
      outcome.retried = true;
      break;
    }
  }

  // --- Optional fallback retry at the primary (Section 5.4 discussion) ---
  if (options_.fallback_to_primary_retry && winner_met < 0) {
    MicrosecondCount elapsed = clock_->NowMicros() - start_us;
    MicrosecondCount remaining = deadline_us - elapsed;
    const bool primary_already_tried =
        std::find(targets.begin(), targets.end(), current_primary_index_) !=
        targets.end();
    // A retry_after hint is honored when the wait still fits inside the
    // deadline: arriving after the primary's queue drained beats arriving
    // during the drain and being shed again.
    if (remaining > 0 && !primary_already_tried && last_retry_after_ms > 0 &&
        options_.sleep_fn) {
      const MicrosecondCount wait = JitteredBackoff(0, last_retry_after_ms);
      if (wait < remaining) {
        options_.sleep_fn(wait);
        elapsed = clock_->NowMicros() - start_us;
        remaining = deadline_us - elapsed;
      }
    }
    if (remaining > 0 && !primary_already_tried &&
        retry_budget_->TryAcquire()) {
      proto::GetRequest retry_request = request;
      retry_request.deadline_us = remaining;
      TimedReply retry = table_.replicas[current_primary_index_]
                             .connection->Call(proto::Message(retry_request),
                                               remaining);
      ++outcome.messages_sent;
      ++messages_sent_;
      const int hint = AbsorbReplyEvidence(current_primary_index_, retry);
      if (hint >= 0) {
        overload_seen = true;
      }
      if (retry.reply.ok()) {
        if (const auto* get_reply =
                std::get_if<proto::GetReply>(&retry.reply.value())) {
          AdmitToCache(key, *get_reply);
          const MicrosecondCount total = elapsed + retry.rtt_us;
          const int met = DetermineMetRank(sla, session, key, *get_reply,
                                           total, clock_->NowMicros());
          if (met >= 0 || winner < 0) {
            outcome.retried = true;
            outcome.met_rank = met;
            outcome.utility = met >= 0 ? sla[met].utility : 0.0;
            outcome.rtt_us = total;
            outcome.node_index = current_primary_index_;
            outcome.node_name = table_.replicas[current_primary_index_].name;
            outcome.from_primary = get_reply->served_by_primary;

            GetResult result;
            result.found = get_reply->found;
            result.value = get_reply->value;
            result.timestamp = get_reply->value_timestamp;
            result.outcome = outcome;
            if (!result.timestamp.IsZero()) {
              session.RecordGet(key, result.timestamp);
            }
            retry_budget_->RecordSuccess();
            CountReadOutcome(outcome);
            EmitReadTrace(telemetry::TraceOp::kGet, session, key, sla,
                          outcome, get_reply->high_timestamp, /*ok=*/true);
            EmitReadRecord(AuditOp::kGet, session, key, {}, start_us, sla,
                           outcome, /*ok=*/true, get_reply, nullptr);
            return result;
          }
        }
      }
    }
  }

  if (winner < 0) {
    // --- Degradation ladder's last rung (DESIGN.md Section 11) ---
    // Every network attempt failed and at least one node said kOverloaded:
    // serve from the cache at whatever (downgraded) rank the entry still
    // meets, rather than surfacing failure. The claim is honest — it passes
    // through the same DetermineMetRank (with the full elapsed time, so only
    // ranks whose latency bound still holds qualify) and is audited like any
    // network reply.
    if (overload_seen && options_.degraded_cache_serve &&
        options_.cache != nullptr &&
        options_.strategy == ReadStrategy::kPileus) {
      std::optional<cache::ClientCache::Entry> entry =
          options_.cache->Lookup(table_.table_name, key);
      if (entry.has_value() &&
          entry->valid_through >= session.cache_floor()) {
        proto::GetReply reply;
        reply.found = !entry->is_tombstone;
        reply.value = entry->value;
        reply.value_timestamp = entry->timestamp;
        reply.high_timestamp = entry->valid_through;
        reply.served_by_primary = false;
        const MicrosecondCount now_us = clock_->NowMicros();
        const int met = DetermineMetRank(sla, session, key, reply,
                                         now_us - start_us, now_us);
        if (met >= 0) {
          outcome.met_rank = met;
          outcome.utility = sla[met].utility;
          outcome.rtt_us = now_us - start_us;
          outcome.node_index = -1;
          outcome.node_name = std::string(kCacheNodeName);
          outcome.from_cache = true;
          outcome.retried = true;

          GetResult result;
          result.found = reply.found;
          result.value = reply.value;
          result.timestamp = reply.value_timestamp;
          result.outcome = outcome;
          if (!result.timestamp.IsZero()) {
            session.RecordGet(key, result.timestamp);
          }
          degraded_cache_serves_.fetch_add(1, std::memory_order_relaxed);
          cache_serves_.fetch_add(1, std::memory_order_relaxed);
          if (instruments_.degraded_cache_served != nullptr) {
            instruments_.degraded_cache_served->Increment();
          }
          if (instruments_.cache_served != nullptr) {
            instruments_.cache_served->Increment();
            (met < Instruments::kTrackedRanks
                 ? instruments_.cache_served_by_rank[met]
                 : instruments_.cache_served_overflow)
                ->Increment();
          }
          CountReadOutcome(outcome);
          EmitReadTrace(telemetry::TraceOp::kGet, session, key, sla, outcome,
                        reply.high_timestamp, /*ok=*/true);
          EmitReadRecord(AuditOp::kGet, session, key, {}, start_us, sla,
                         outcome, /*ok=*/true, &reply, nullptr);
          return result;
        }
      }
    }
    // Nothing usable came back inside the SLA's overall deadline.
    if (instruments_.get_errors != nullptr) {
      instruments_.get_errors->Increment();
      if (outcome.messages_sent > 0) {
        instruments_.messages->Increment(
            static_cast<uint64_t>(outcome.messages_sent));
      }
    }
    outcome.rtt_us = clock_->NowMicros() - start_us;
    EmitReadTrace(telemetry::TraceOp::kGet, session, key, sla, outcome,
                  Timestamp::Zero(), /*ok=*/false);
    EmitReadRecord(AuditOp::kGet, session, key, {}, start_us, sla, outcome,
                   /*ok=*/false, nullptr, nullptr);
    return Status(StatusCode::kUnavailable,
                  "no replica answered within the SLA deadline");
  }

  const auto& get_reply =
      std::get<proto::GetReply>(replies[winner].reply.value());
  outcome.met_rank = winner_met;
  outcome.utility = winner_met >= 0 ? sla[winner_met].utility : 0.0;
  outcome.rtt_us = replies[winner].rtt_us;
  outcome.node_index = targets[winner];
  outcome.node_name = table_.replicas[targets[winner]].name;
  outcome.from_primary = get_reply.served_by_primary;

  GetResult result;
  result.found = get_reply.found;
  result.value = get_reply.value;
  result.timestamp = get_reply.value_timestamp;
  result.outcome = outcome;
  // Record the observed version - including a tombstone's timestamp on a
  // not-found reply - so monotonic reads can never "resurrect" a deleted
  // value from a staler replica later in the session.
  if (!result.timestamp.IsZero()) {
    session.RecordGet(key, result.timestamp);
  }
  retry_budget_->RecordSuccess();
  CountReadOutcome(outcome);
  EmitReadTrace(telemetry::TraceOp::kGet, session, key, sla, outcome,
                get_reply.high_timestamp, /*ok=*/true);
  EmitReadRecord(AuditOp::kGet, session, key, {}, start_us, sla, outcome,
                 /*ok=*/true, &get_reply, nullptr);
  return result;
}

Result<RangeResult> PileusClient::GetRange(Session& session,
                                           std::string_view begin,
                                           std::string_view end,
                                           uint32_t limit) {
  return DoGetRange(session, begin, end, limit, session.default_sla());
}

Result<RangeResult> PileusClient::GetRange(Session& session,
                                           std::string_view begin,
                                           std::string_view end,
                                           uint32_t limit, const Sla& sla) {
  Status st = sla.Validate();
  if (!st.ok()) {
    return st;
  }
  return DoGetRange(session, begin, end, limit, sla);
}

Result<RangeResult> PileusClient::DoGetRange(Session& session,
                                             std::string_view begin,
                                             std::string_view end,
                                             uint32_t limit, const Sla& sla) {
  MaybeAdoptConfig();
  ++gets_issued_;
  if (instruments_.ranges != nullptr) {
    instruments_.ranges->Increment();
  }
  const MicrosecondCount deadline_us = sla.MaxLatency();
  const MicrosecondCount start_us = clock_->NowMicros();

  proto::RangeRequest request;
  request.table = table_.table_name;
  request.begin = std::string(begin);
  request.end = std::string(end);
  request.limit = limit;
  request.tenant = options_.tenant;

  const MinReadTimestampFn scan_min = [&session,
                                       this](const Guarantee& guarantee) {
    return session.MinReadTimestampForScan(guarantee, clock_->NowMicros());
  };

  // Attempt order: the utility-maximizing node first (fixed strategies use
  // their usual pick), then - if the node fails outright and budget remains -
  // the other replicas.
  std::vector<int> order;
  GetOutcome outcome;
  outcome.messages_sent = 0;
  if (options_.strategy == ReadStrategy::kPileus) {
    const SelectionResult sel = SelectTarget(
        sla, replica_views_, scan_min, *monitor_, options_.selection, &rng_);
    outcome.target_rank = sel.target_rank;
    order.push_back(sel.node_index);
    if (options_.retry_other_replicas_on_failure) {
      for (int candidate : sel.candidates) {
        if (std::find(order.begin(), order.end(), candidate) == order.end()) {
          order.push_back(candidate);
        }
      }
      for (int i = 0; i < static_cast<int>(table_.replicas.size()); ++i) {
        if (std::find(order.begin(), order.end(), i) == order.end()) {
          order.push_back(i);
        }
      }
    }
  } else {
    order.push_back(PickFixedStrategyNode());
  }

  // Admission context, as in DoGet: the targeted rank's utility and
  // strong-read marker travel with the scan.
  const int aim_rank = outcome.target_rank >= 0 ? outcome.target_rank : 0;
  request.utility_micros = static_cast<uint32_t>(
      std::min(sla[aim_rank].utility, 4000.0) * 1e6 + 0.5);
  request.strong_read = sla[aim_rank].consistency.RequiresAuthoritative();

  for (size_t attempt = 0; attempt < order.size(); ++attempt) {
    const int node_index = order[attempt];
    const MicrosecondCount elapsed = clock_->NowMicros() - start_us;
    const MicrosecondCount remaining = deadline_us - elapsed;
    if (remaining <= 0) {
      break;
    }
    // Extra attempts spend retry budget, like every other retry path.
    if (attempt > 0 && !retry_budget_->TryAcquire()) {
      if (instruments_.retry_budget_denied != nullptr) {
        instruments_.retry_budget_denied->Increment();
      }
      break;
    }
    request.deadline_us = remaining;  // Deadline propagation.
    TimedReply timed = table_.replicas[node_index].connection->Call(
        proto::Message(request), remaining);
    ++outcome.messages_sent;
    ++messages_sent_;
    AbsorbReplyEvidence(node_index, timed);
    if (!timed.reply.ok()) {
      continue;
    }
    auto* range_reply = std::get_if<proto::RangeReply>(&timed.reply.value());
    if (range_reply == nullptr) {
      continue;  // ErrorReply.
    }
    const MicrosecondCount total =
        std::max(timed.rtt_us, clock_->NowMicros() - start_us);

    // Determine the met subSLA for the whole scan.
    outcome.met_rank = -1;
    for (size_t rank = 0; rank < sla.size(); ++rank) {
      const SubSla& sub = sla[rank];
      if (total > sub.latency_us) {
        continue;
      }
      if (sub.consistency.RequiresAuthoritative()) {
        if (range_reply->served_by_primary) {
          outcome.met_rank = static_cast<int>(rank);
          break;
        }
        continue;
      }
      if (range_reply->high_timestamp >= scan_min(sub.consistency)) {
        outcome.met_rank = static_cast<int>(rank);
        break;
      }
    }
    outcome.utility =
        outcome.met_rank >= 0 ? sla[outcome.met_rank].utility : 0.0;
    outcome.rtt_us = total;
    outcome.node_index = node_index;
    outcome.node_name = table_.replicas[node_index].name;
    outcome.from_primary = range_reply->served_by_primary;
    outcome.retried = attempt > 0;

    RangeResult result;
    result.truncated = range_reply->truncated;
    result.outcome = outcome;
    for (const proto::ObjectVersion& item : range_reply->items) {
      session.RecordGet(item.key, item.timestamp);
      if (options_.cache != nullptr) {
        // Each returned item is key-covering evidence bounded by the scan's
        // high timestamp (scans exclude tombstones, so items are live).
        options_.cache->Admit(table_.table_name, item.key, item.value,
                              item.timestamp, item.is_tombstone,
                              range_reply->high_timestamp);
      }
    }
    retry_budget_->RecordSuccess();
    CountReadOutcome(outcome);
    EmitReadTrace(telemetry::TraceOp::kRange, session, begin, sla, outcome,
                  range_reply->high_timestamp, /*ok=*/true);
    EmitReadRecord(AuditOp::kRange, session, begin, end, start_us, sla,
                   outcome, /*ok=*/true, nullptr, range_reply);
    // The reply is ours: hand its items over instead of copying them (the
    // audit record above has already taken its copy).
    result.items = std::move(range_reply->items);
    return result;
  }
  if (instruments_.get_errors != nullptr) {
    instruments_.get_errors->Increment();
    if (outcome.messages_sent > 0) {
      instruments_.messages->Increment(
          static_cast<uint64_t>(outcome.messages_sent));
    }
  }
  outcome.rtt_us = clock_->NowMicros() - start_us;
  EmitReadTrace(telemetry::TraceOp::kRange, session, begin, sla, outcome,
                Timestamp::Zero(), /*ok=*/false);
  EmitReadRecord(AuditOp::kRange, session, begin, end, start_us, sla,
                 outcome, /*ok=*/false, nullptr, nullptr);
  return Status(StatusCode::kUnavailable,
                "no replica answered the scan within the SLA deadline");
}

Result<PutResult> PileusClient::DoWrite(const proto::Message& request,
                                        Session& session,
                                        std::string_view key,
                                        std::string_view op_name,
                                        telemetry::TraceOp trace_op) {
  const MicrosecondCount start_us = clock_->NowMicros();
  const AuditOp audit_op = trace_op == telemetry::TraceOp::kDelete
                               ? AuditOp::kDelete
                               : AuditOp::kPut;
  const auto emit_trace = [&](const Timestamp& assigned, int attempts,
                              MicrosecondCount rtt_us, bool ok) {
    EmitWriteRecord(audit_op, session, key, start_us, ok, assigned);
    if (options_.trace_sink == nullptr) {
      return;
    }
    telemetry::TraceEvent event;
    event.op = trace_op;
    event.time_us = clock_->NowMicros();
    event.table = table_.table_name;
    event.key = std::string(key);
    event.node = table_.replicas[current_primary_index_].name;
    event.node_index = current_primary_index_;
    event.rtt_us = rtt_us;
    event.read_timestamp = assigned;  // Update timestamp the primary assigned.
    event.from_primary = true;
    event.retried = attempts > 1;
    event.ok = ok;
    options_.trace_sink->OnTrace(event);
  };
  const int max_attempts = std::max(1, options_.put_max_attempts);
  MicrosecondCount backoff = options_.put_backoff_initial_us;
  Status last(StatusCode::kUnavailable, "write never attempted");
  bool skip_backoff = false;
  int pending_retry_after_ms = 0;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      // Every extra attempt — ordinary retries and kNotPrimary redirects
      // alike — draws from the shared retry budget, so the attempt counter
      // bounds one operation and the budget bounds the client as a whole.
      if (!retry_budget_->TryAcquire()) {
        if (instruments_.retry_budget_denied != nullptr) {
          instruments_.retry_budget_denied->Increment();
        }
        break;
      }
      if (!skip_backoff) {
        // Jittered exponential backoff stretched to any server retry_after
        // hint: arriving after the queue drained beats being shed again.
        const MicrosecondCount wait =
            JitteredBackoff(backoff, pending_retry_after_ms);
        if (options_.sleep_fn) {
          options_.sleep_fn(wait);
        }
        backoff = std::min(
            options_.put_backoff_max_us,
            static_cast<MicrosecondCount>(static_cast<double>(backoff) *
                                          options_.put_backoff_multiplier));
      }
    }
    skip_backoff = false;
    pending_retry_after_ms = 0;
    // Re-resolve the primary before every attempt: while this write was
    // backing off, probes or other traffic may have delivered a newer config
    // (the normal way a client discovers a failover when the old primary is
    // no longer answering at all).
    MaybeAdoptConfig();
    TimedReply timed =
        table_.replicas[current_primary_index_].connection->Call(
            request, options_.put_timeout_us);
    ++messages_sent_;
    if (instruments_.messages != nullptr) {
      instruments_.messages->Increment();
    }
    // Every attempt feeds the monitor: transport failures count against the
    // primary's PNodeUp / circuit breaker, successes repair them.
    const int hint = AbsorbReplyEvidence(current_primary_index_, timed,
                                         options_.record_put_latency);
    if (!timed.reply.ok()) {
      last = timed.reply.status();
      PILEUS_LOG(kDebug) << op_name << " attempt " << attempt << "/"
                         << max_attempts << " failed: " << last;
      continue;  // Transport failure: retriable.
    }
    const proto::Message& message = timed.reply.value();
    if (const auto* err = std::get_if<proto::ErrorReply>(&message)) {
      last = Status(err->code, err->message);
      if (err->code == StatusCode::kUnavailable) {
        continue;  // Node answered but cannot serve right now: retriable.
      }
      if (err->code == StatusCode::kOverloaded) {
        // Shed by admission control: retriable, waiting out the hint first.
        // Writes are shed only when the queue is truly full, so the queue
        // draining is exactly what the hint predicts.
        pending_retry_after_ms = hint;
        continue;
      }
      if (err->code == StatusCode::kNotPrimary) {
        // The role moved (Section 6.2). The rejection carries the installed
        // epoch and primary; AbsorbReplyEvidence already fed it to the
        // monitor, so adopting re-routes this same attempt budget. A
        // successful redirect needs no backoff - the new primary is healthy,
        // only our routing was stale. When the bounce teaches us nothing
        // (no config piggyback, or a primary we are already routing to) the
        // error is as final as any other semantic rejection: a blind retry
        // against the same node cannot succeed.
        const int before = current_primary_index_;
        MaybeAdoptConfig();
        if (current_primary_index_ != before) {
          skip_backoff = true;
          if (instruments_.put_redirects != nullptr) {
            instruments_.put_redirects->Increment();
          }
          continue;
        }
      }
      // Semantic error (bad table, missing tablet, ...): final.
      if (instruments_.put_errors != nullptr) {
        instruments_.put_errors->Increment();
      }
      emit_trace(Timestamp::Zero(), attempt, clock_->NowMicros() - start_us,
                 /*ok=*/false);
      return last;
    }
    const auto* put_reply = std::get_if<proto::PutReply>(&message);
    if (put_reply == nullptr) {
      if (instruments_.put_errors != nullptr) {
        instruments_.put_errors->Increment();
      }
      emit_trace(Timestamp::Zero(), attempt, clock_->NowMicros() - start_us,
                 /*ok=*/false);
      return Status(StatusCode::kInternal,
                    std::string("unexpected reply type for ") +
                        std::string(op_name));
    }
    session.RecordPut(key, put_reply->timestamp);
    retry_budget_->RecordSuccess();
    if (options_.cache != nullptr) {
      // Write-through with the assigned timestamp as its own bound. The
      // ack's heartbeat high timestamp must NOT serve as valid_through:
      // another client's write may commit between this assignment and the
      // heartbeat read, and the ack says nothing about this key past the
      // assignment itself.
      const auto* put_request = std::get_if<proto::PutRequest>(&request);
      options_.cache->Admit(
          table_.table_name, key,
          put_request != nullptr ? std::string_view(put_request->value)
                                 : std::string_view(),
          put_reply->timestamp,
          /*is_tombstone=*/put_request == nullptr, put_reply->timestamp);
    }

    if (instruments_.put_latency_us != nullptr) {
      instruments_.put_latency_us->Record(timed.rtt_us);
      if (attempt > 1) {
        instruments_.retries->Increment();
      }
    }
    emit_trace(put_reply->timestamp, attempt, timed.rtt_us, /*ok=*/true);

    PutResult result;
    result.timestamp = put_reply->timestamp;
    result.rtt_us = timed.rtt_us;
    return result;
  }
  if (instruments_.put_errors != nullptr) {
    instruments_.put_errors->Increment();
  }
  emit_trace(Timestamp::Zero(), max_attempts,
             clock_->NowMicros() - start_us, /*ok=*/false);
  return last;
}

Result<PutResult> PileusClient::Put(Session& session, std::string_view key,
                                    std::string_view value) {
  ++puts_issued_;
  proto::PutRequest request;
  request.table = table_.table_name;
  request.key = std::string(key);
  request.value = std::string(value);
  request.tenant = options_.tenant;
  request.deadline_us = options_.put_timeout_us;  // Deadline propagation.
  if (instruments_.puts != nullptr) {
    instruments_.puts->Increment();
  }
  return DoWrite(request, session, key, "Put", telemetry::TraceOp::kPut);
}

Result<PutResult> PileusClient::Delete(Session& session,
                                       std::string_view key) {
  ++puts_issued_;
  proto::DeleteRequest request;
  request.table = table_.table_name;
  request.key = std::string(key);
  // The tombstone is this session's write: read-my-writes subsequently
  // requires nodes to have seen the deletion.
  if (instruments_.deletes != nullptr) {
    instruments_.deletes->Increment();
  }
  return DoWrite(request, session, key, "Delete", telemetry::TraceOp::kDelete);
}

Status PileusClient::ProbeNode(int replica_index) {
  if (replica_index < 0 ||
      replica_index >= static_cast<int>(table_.replicas.size())) {
    return Status(StatusCode::kInvalidArgument, "bad replica index");
  }
  proto::ProbeRequest request;
  request.table = table_.table_name;
  TimedReply timed = table_.replicas[replica_index].connection->Call(
      request, options_.probe_timeout_us);
  ++messages_sent_;
  AbsorbReplyEvidence(replica_index, timed);
  if (instruments_.probes != nullptr) {
    instruments_.probes->Increment();
    instruments_.messages->Increment();
  }
  if (options_.trace_sink != nullptr) {
    telemetry::TraceEvent event;
    event.op = telemetry::TraceOp::kProbe;
    event.time_us = clock_->NowMicros();
    event.table = table_.table_name;
    event.node = table_.replicas[replica_index].name;
    event.node_index = replica_index;
    event.rtt_us = timed.rtt_us;
    event.ok = timed.reply.ok();
    if (event.ok) {
      if (const auto* probe =
              std::get_if<proto::ProbeReply>(&timed.reply.value())) {
        event.read_timestamp = probe->high_timestamp;
      }
    }
    options_.trace_sink->OnTrace(event);
  }
  return timed.reply.status();
}

void PileusClient::ProbeStaleNodes() {
  for (size_t i = 0; i < table_.replicas.size(); ++i) {
    if (monitor_->NeedsProbe(table_.replicas[i].name)) {
      Status st = ProbeNode(static_cast<int>(i));
      if (!st.ok()) {
        PILEUS_LOG(kDebug) << "probe of " << table_.replicas[i].name
                           << " failed: " << st;
      }
    }
  }
}

}  // namespace pileus::core
