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
  instruments_.overload_rejections =
      counter("pileus_client_overload_rejections_total");
  instruments_.retry_budget_denied =
      counter("pileus_client_retry_budget_denied_total");
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
  const std::optional<MicrosecondCount> rtt_us =
      record_latency ? std::optional<MicrosecondCount>(timed.rtt_us)
                     : std::nullopt;
  if (!timed.reply.ok()) {
    // Transport-level failure (unreachable, reset, deadline with no answer).
    if (rtt_us.has_value()) {
      monitor_->RecordLatency(name, *rtt_us);
    }
    monitor_->RecordFailure(name);
    return -1;
  }
  const proto::Message& message = timed.reply.value();
  NoteReplyConfig(message);
  // A served reply: all its evidence goes to the monitor in one call.
  const auto absorb = [&](const auto& reply) {
    monitor_->RecordReply(name, rtt_us, reply.high_timestamp,
                          reply.queue_delay_us);
    return -1;
  };
  if (const auto* get = std::get_if<proto::GetReply>(&message)) {
    return absorb(*get);
  }
  if (const auto* range = std::get_if<proto::RangeReply>(&message)) {
    return absorb(*range);
  }
  if (const auto* put = std::get_if<proto::PutReply>(&message)) {
    return absorb(*put);
  }
  if (const auto* probe = std::get_if<proto::ProbeReply>(&message)) {
    return absorb(*probe);
  }
  if (rtt_us.has_value()) {
    monitor_->RecordLatency(name, *rtt_us);
  }
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
      return -1;
    }
  }
  monitor_->RecordSuccess(name);
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

// --- The read path: one routine behind Get and GetRange ---

// A point Get of one key (Section 3.1).
struct PileusClient::GetOp {
  using Request = proto::GetRequest;
  using Reply = proto::GetReply;
  using Result = GetResult;
  static constexpr telemetry::TraceOp kTraceOp = telemetry::TraceOp::kGet;
  static constexpr AuditOp kAuditOp = AuditOp::kGet;
  static constexpr const char* kUnavailable =
      "no replica answered within the SLA deadline";

  Session& session;
  std::string_view key;

  void FillRequest(Request& request) const { request.key = std::string(key); }

  void FillKeys(OpRecord& record) const { record.key = std::string(key); }

  Timestamp MinReadTimestamp(const Guarantee& guarantee,
                             MicrosecondCount now_us) const {
    return session.MinReadTimestamp(guarantee, key, now_us);
  }

  // Records the observed version - including a tombstone's timestamp on a
  // not-found reply - so monotonic reads can never "resurrect" a deleted
  // value from a staler replica later in the session.
  void RecordInSession(const Reply& reply) const {
    if (!reply.value_timestamp.IsZero()) {
      session.RecordGet(key, reply.value_timestamp);
    }
  }

  void FillRecord(OpRecord& record, const Reply& reply) const {
    record.found = reply.found;
    record.value = reply.value;
    record.value_timestamp = reply.value_timestamp;
    record.high_timestamp = reply.high_timestamp;
  }

  Result TakeResult(Reply& reply, const GetOutcome& outcome) const {
    Result result;
    result.found = reply.found;
    result.value = std::move(reply.value);
    result.timestamp = reply.value_timestamp;
    result.outcome = outcome;
    return result;
  }
};

// A range scan over [key, end). The serving node's high timestamp bounds the
// staleness of every returned item (see Session::MinReadTimestampForScan).
struct PileusClient::RangeOp {
  using Request = proto::RangeRequest;
  using Reply = proto::RangeReply;
  using Result = RangeResult;
  static constexpr telemetry::TraceOp kTraceOp = telemetry::TraceOp::kRange;
  static constexpr AuditOp kAuditOp = AuditOp::kRange;
  static constexpr const char* kUnavailable =
      "no replica answered the scan within the SLA deadline";

  Session& session;
  std::string_view key;  // The scan's begin key.
  std::string_view end;
  uint32_t limit = 0;

  void FillRequest(Request& request) const {
    request.begin = std::string(key);
    request.end = std::string(end);
    request.limit = limit;
  }

  void FillKeys(OpRecord& record) const {
    record.key = std::string(key);
    record.end_key = std::string(end);
  }

  Timestamp MinReadTimestamp(const Guarantee& guarantee,
                             MicrosecondCount now_us) const {
    return session.MinReadTimestampForScan(guarantee, now_us);
  }

  void RecordInSession(const Reply& reply) const {
    session.RecordScan(reply.items);
  }

  void FillRecord(OpRecord& record, const Reply& reply) const {
    record.items.reserve(reply.items.size());
    for (const proto::VersionPtr& item : reply.items) {
      record.items.push_back(*item);
    }
    record.high_timestamp = reply.high_timestamp;
  }

  // The reply is ours: its items are handed over instead of copied (the
  // audit record has already taken its copy).
  Result TakeResult(Reply& reply, const GetOutcome& outcome) const {
    Result result;
    result.items = std::move(reply.items);
    result.truncated = reply.truncated;
    result.outcome = outcome;
    return result;
  }
};

template <typename Op>
void PileusClient::EmitReadRecord(const Op& op, MicrosecondCount begin_us,
                                  const Sla& sla, const GetOutcome& outcome,
                                  const typename Op::Reply* reply) {
  if (options_.op_observer == nullptr) {
    return;
  }
  OpRecord record;
  record.op = Op::kAuditOp;
  record.session_id = op.session.id();
  record.table = table_.table_name;
  op.FillKeys(record);
  record.begin_us = begin_us;
  record.end_us = clock_->NowMicros();
  record.ok = reply != nullptr;
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
    op.FillRecord(record, *reply);
  }
  options_.op_observer->OnOp(record);
}

int PileusClient::DetermineMetRank(const Sla& sla,
                                   const MinReadTimestampFn& min_read_timestamp,
                                   const Timestamp& high_timestamp,
                                   bool served_by_primary,
                                   MicrosecondCount rtt_us) {
  for (size_t rank = 0; rank < sla.size(); ++rank) {
    const SubSla& sub = sla[rank];
    if (rtt_us > sub.latency_us) {
      continue;
    }
    if (sub.consistency.RequiresAuthoritative()) {
      if (served_by_primary) {
        return static_cast<int>(rank);
      }
      continue;
    }
    if (high_timestamp >= min_read_timestamp(sub.consistency)) {
      return static_cast<int>(rank);
    }
  }
  return -1;
}

template <typename Op>
Result<typename Op::Result> PileusClient::Read(const Sla& sla, const Op& op) {
  using Reply = typename Op::Reply;
  MaybeAdoptConfig();
  ++gets_issued_;
  telemetry::Counter* const issued =
      Op::kTraceOp == telemetry::TraceOp::kGet ? instruments_.gets
                                               : instruments_.ranges;
  if (issued != nullptr) {
    issued->Increment();
  }
  const MicrosecondCount deadline_us = sla.MaxLatency();
  const MicrosecondCount start_us = clock_->NowMicros();
  const bool pileus = options_.strategy == ReadStrategy::kPileus;

  // Minimum acceptable read timestamps are evaluated at `eval_us`: the op's
  // start while selecting, the judging time while judging a claim.
  MicrosecondCount eval_us = start_us;
  const MinReadTimestampFn min_read = [&op, &eval_us](const Guarantee& g) {
    return op.MinReadTimestamp(g, eval_us);
  };
  const auto met_rank = [&](const Reply& reply, MicrosecondCount rtt_us) {
    eval_us = clock_->NowMicros();
    return DetermineMetRank(sla, min_read, reply.high_timestamp,
                            reply.served_by_primary, rtt_us);
  };

  GetOutcome outcome;
  outcome.messages_sent = 0;

  // --- Select (Figure 8) ---
  // `targets` lists every replica called, in call order: the op's tried-set.
  std::vector<int> targets;
  if (pileus) {
    const SelectionResult sel = SelectTarget(
        sla, replica_views_, min_read, *monitor_, options_.selection, &rng_);
    outcome.target_rank = sel.target_rank;
    targets.push_back(sel.node_index);
    // Parallel reads (Section 6.3): fan out across additional candidates.
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
  proto::Message message{std::in_place_type<typename Op::Request>};
  auto& request = std::get<typename Op::Request>(message);
  request.table = table_.table_name;
  request.tenant = options_.tenant;
  request.deadline_us = deadline_us;
  const int aim_rank = outcome.target_rank >= 0 ? outcome.target_rank : 0;
  request.utility_micros = static_cast<uint32_t>(
      std::min(sla[aim_rank].utility, 4000.0) * 1e6 + 0.5);
  request.strong_read = sla[aim_rank].consistency.RequiresAuthoritative();
  op.FillRequest(request);

  // --- Send to the chosen node and its fan-out partners ---
  std::vector<TimedReply> replies;  // replies[i] answers targets[i].
  if (targets.size() == 1) {
    replies.push_back(
        table_.replicas[targets[0]].connection->Call(message, deadline_us));
  } else {
    std::vector<NodeConnection*> connections;
    connections.reserve(targets.size());
    for (int t : targets) {
      connections.push_back(table_.replicas[t].connection.get());
    }
    replies = fanout_->CallAll(connections, message, deadline_us);
  }
  outcome.messages_sent += static_cast<int>(targets.size());
  messages_sent_ += targets.size();
  const size_t first_round = targets.size();

  // --- Judge (Figure 9): every call feeds the monitor, and the winner has
  // the best met subSLA, then the lowest RTT. `rtt_us` is the latency the
  // application saw for that call, failed attempts before it included. ---
  int winner = -1;
  int winner_met = -1;
  const auto judge = [&](size_t i, MicrosecondCount rtt_us) {
    AbsorbReplyEvidence(targets[i], replies[i]);
    replies[i].rtt_us = rtt_us;
    if (!replies[i].reply.ok()) {
      return;
    }
    const auto* reply = std::get_if<Reply>(&replies[i].reply.value());
    if (reply == nullptr) {
      return;  // ErrorReply (wrong node, overloaded, missing table, ...).
    }
    const int met = met_rank(*reply, rtt_us);
    if (winner < 0 || (met >= 0 && (winner_met < 0 || met < winner_met)) ||
        (met == winner_met && rtt_us < replies[winner].rtt_us)) {
      winner = static_cast<int>(i);
      winner_met = met;
    }
  };
  for (size_t i = 0; i < first_round; ++i) {
    judge(i, replies[i].rtt_us);
  }

  // One more call, to `node`, with what is left of the deadline. False when
  // no time or retry budget remains.
  const auto retry = [&](int node) {
    const MicrosecondCount remaining =
        deadline_us - (clock_->NowMicros() - start_us);
    if (remaining <= 0) {
      return false;
    }
    // Every extra call spends retry budget: a brown-out must not turn failed
    // reads into an amplifying storm (DESIGN.md Section 11).
    if (!retry_budget_->TryAcquire()) {
      if (instruments_.retry_budget_denied != nullptr) {
        instruments_.retry_budget_denied->Increment();
      }
      return false;
    }
    // Deadline propagation: the server sees what is actually left, not the
    // original budget, so it can shed reads its queue can no longer meet.
    request.deadline_us = remaining;
    targets.push_back(node);
    replies.push_back(table_.replicas[node].connection->Call(message,
                                                             remaining));
    ++outcome.messages_sent;
    ++messages_sent_;
    judge(replies.size() - 1,
          std::max(replies.back().rtt_us, clock_->NowMicros() - start_us));
    return true;
  };

  // --- Availability retries (Section 3.3): nothing usable came back; try
  // the untried replicas, most promising (lowest mean monitored latency)
  // first, so unmeasured nodes sort first and get explored ---
  if (winner < 0 && pileus && options_.retry_other_replicas_on_failure) {
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
    for (int node : untried) {
      if (!retry(node) || winner >= 0) {
        break;
      }
    }
  }

  if (winner >= 0) {
    auto& reply = std::get<Reply>(replies[winner].reply.value());
    outcome.met_rank = winner_met;
    outcome.utility = winner_met >= 0 ? sla[winner_met].utility : 0.0;
    outcome.rtt_us = replies[winner].rtt_us;
    outcome.node_index = targets[winner];
    outcome.node_name = table_.replicas[targets[winner]].name;
    outcome.from_primary = reply.served_by_primary;
    outcome.retried = static_cast<size_t>(winner) >= first_round;
    return FinishRead(op, sla, start_us, outcome, reply);
  }

  // --- Failure finish: nothing usable came back inside the deadline ---
  if (instruments_.get_errors != nullptr) {
    instruments_.get_errors->Increment();
    if (outcome.messages_sent > 0) {
      instruments_.messages->Increment(
          static_cast<uint64_t>(outcome.messages_sent));
    }
  }
  outcome.rtt_us = clock_->NowMicros() - start_us;
  EmitReadTrace(Op::kTraceOp, op.session, op.key, sla, outcome,
                Timestamp::Zero(), /*ok=*/false);
  EmitReadRecord(op, start_us, sla, outcome, nullptr);
  return Status(StatusCode::kUnavailable, Op::kUnavailable);
}

template <typename Op>
typename Op::Result PileusClient::FinishRead(const Op& op, const Sla& sla,
                                             MicrosecondCount start_us,
                                             const GetOutcome& outcome,
                                             typename Op::Reply& reply) {
  op.RecordInSession(reply);
  retry_budget_->RecordSuccess();
  CountReadOutcome(outcome);
  EmitReadTrace(Op::kTraceOp, op.session, op.key, sla, outcome,
                reply.high_timestamp, /*ok=*/true);
  EmitReadRecord(op, start_us, sla, outcome, &reply);
  return op.TakeResult(reply, outcome);
}

Result<GetResult> PileusClient::Get(Session& session, std::string_view key) {
  return Read(session.default_sla(), GetOp{session, key});
}

Result<GetResult> PileusClient::Get(Session& session, std::string_view key,
                                    const Sla& sla) {
  Status st = sla.Validate();
  if (!st.ok()) {
    return st;
  }
  return Read(sla, GetOp{session, key});
}

Result<RangeResult> PileusClient::GetRange(Session& session,
                                           std::string_view begin,
                                           std::string_view end,
                                           uint32_t limit) {
  return Read(session.default_sla(), RangeOp{session, begin, end, limit});
}

Result<RangeResult> PileusClient::GetRange(Session& session,
                                           std::string_view begin,
                                           std::string_view end,
                                           uint32_t limit, const Sla& sla) {
  Status st = sla.Validate();
  if (!st.ok()) {
    return st;
  }
  return Read(sla, RangeOp{session, begin, end, limit});
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
  MicrosecondCount backoff = kPutBackoffInitialUs;
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
            kPutBackoffMaxUs,
            static_cast<MicrosecondCount>(static_cast<double>(backoff) *
                                          kPutBackoffMultiplier));
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
                                         /*record_latency=*/false);
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
      request, kProbeTimeoutUs);
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
