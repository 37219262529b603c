#include "src/core/monitor.h"

#include <algorithm>

namespace pileus::core {

Monitor::NodeState& Monitor::StateFor(std::string_view node) {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    it = nodes_.emplace(std::string(node),
                        NodeState(options_.latency_window))
             .first;
  }
  return it->second;
}

const Monitor::NodeState* Monitor::FindState(std::string_view node) const {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : &it->second;
}

void Monitor::RecordLatencyLocked(NodeState& state, MicrosecondCount now_us,
                                  MicrosecondCount rtt_us) {
  state.latencies.Record(now_us, rtt_us);
  state.last_contact_us = now_us;
  ++samples_recorded_;
}

void Monitor::RecordLatency(std::string_view node, MicrosecondCount rtt_us) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordLatencyLocked(StateFor(node), clock_->NowMicros(), rtt_us);
}

void Monitor::RecordHighTimestampLocked(NodeState& state,
                                        MicrosecondCount now_us,
                                        const Timestamp& high) {
  // High timestamps only move forward; keep the max ever observed.
  if (high > state.high_timestamp) {
    state.high_timestamp = high;
    state.high_observed_at_us = now_us;
  }
  state.last_contact_us = now_us;
}

void Monitor::RecordHighTimestamp(std::string_view node,
                                  const Timestamp& high) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordHighTimestampLocked(StateFor(node), clock_->NowMicros(), high);
}

void Monitor::RecordConfig(uint64_t epoch, std::string_view primary) {
  if (epoch == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch <= config_epoch_) {
    return;  // Stale or already-known epoch.
  }
  config_epoch_ = epoch;
  config_primary_ = std::string(primary);
}

Monitor::ConfigView Monitor::CurrentConfig() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ConfigView{config_epoch_, config_primary_};
}

void Monitor::RecordSuccessLocked(NodeState& state, MicrosecondCount now_us) {
  state.outcomes.Record(now_us, 1);
  // Any answer closes the breaker: a half-open probation probe succeeded, or
  // the node recovered on its own before the cooldown ended.
  state.consecutive_failures = 0;
  state.breaker_open_until_us = 0;
}

void Monitor::RecordSuccess(std::string_view node) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordSuccessLocked(StateFor(node), clock_->NowMicros());
}

void Monitor::RecordFailure(std::string_view node) {
  std::lock_guard<std::mutex> lock(mu_);
  NodeState& state = StateFor(node);
  const MicrosecondCount now = clock_->NowMicros();
  state.outcomes.Record(now, 0);
  // A failure is still contact for probing purposes: the prober keeps
  // checking for recovery at its normal cadence, not in a tight loop.
  state.last_contact_us = now;
  ++state.consecutive_failures;
  const bool was_open = state.breaker_open_until_us != 0;
  // Trip on reaching the threshold, and re-arm the full cooldown when a
  // half-open probation probe fails again.
  if (state.consecutive_failures >= kBreakerFailureThreshold) {
    if (!was_open) {
      ++breaker_trips_;
    }
    state.breaker_open_until_us = now + kBreakerCooldownUs;
  }
}

void Monitor::RecordOverload(std::string_view node,
                             MicrosecondCount retry_after_us) {
  std::lock_guard<std::mutex> lock(mu_);
  NodeState& state = StateFor(node);
  const MicrosecondCount now = clock_->NowMicros();
  const MicrosecondCount backoff =
      retry_after_us > 0 ? retry_after_us : kDefaultOverloadBackoffUs;
  state.overloaded_until_us = std::max(state.overloaded_until_us, now + backoff);
  // The node answered (with a rejection), so this is contact — the prober
  // need not also hammer it — but deliberately not a breaker-closing
  // success: a half-open breaker should wait for a served reply.
  state.last_contact_us = now;
  ++overload_rejections_;
}

void Monitor::RecordQueueDelayLocked(NodeState& state,
                                     MicrosecondCount delay_us) {
  state.queue_delay_ewma_us =
      kQueueDelayAlpha * static_cast<double>(delay_us) +
      (1.0 - kQueueDelayAlpha) * state.queue_delay_ewma_us;
  state.has_queue_delay = true;
}

void Monitor::RecordQueueDelay(std::string_view node,
                               MicrosecondCount delay_us) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordQueueDelayLocked(StateFor(node), delay_us);
}

void Monitor::RecordReply(std::string_view node,
                          std::optional<MicrosecondCount> rtt_us,
                          const Timestamp& high,
                          MicrosecondCount queue_delay_us) {
  std::lock_guard<std::mutex> lock(mu_);
  NodeState& state = StateFor(node);
  const MicrosecondCount now = clock_->NowMicros();
  if (rtt_us.has_value()) {
    RecordLatencyLocked(state, now, *rtt_us);
  }
  RecordSuccessLocked(state, now);
  RecordHighTimestampLocked(state, now, high);
  RecordQueueDelayLocked(state, queue_delay_us);
}

bool Monitor::OverloadedLocked(const NodeState* state,
                               MicrosecondCount now_us) {
  return state != nullptr && now_us < state->overloaded_until_us;
}

bool Monitor::IsOverloaded(std::string_view node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return OverloadedLocked(FindState(node), clock_->NowMicros());
}

double Monitor::OverloadFactor(bool overloaded, double utility) {
  if (!overloaded) {
    return 1.0;
  }
  const double u = std::clamp(utility, 0.0, 1.0);
  return kOverloadPenalty + (1.0 - kOverloadPenalty) * u;
}

MicrosecondCount Monitor::QueueDelayLocked(const NodeState* state) {
  return state == nullptr || !state->has_queue_delay
             ? 0
             : static_cast<MicrosecondCount>(state->queue_delay_ewma_us);
}

MicrosecondCount Monitor::QueueDelayUs(std::string_view node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return QueueDelayLocked(FindState(node));
}

Monitor::BreakerState Monitor::BreakerLocked(const NodeState* state,
                                             MicrosecondCount now_us) const {
  if (state == nullptr || state->breaker_open_until_us == 0) {
    return BreakerState::kClosed;
  }
  return now_us < state->breaker_open_until_us ? BreakerState::kOpen
                                               : BreakerState::kHalfOpen;
}

Monitor::BreakerState Monitor::Breaker(std::string_view node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return BreakerLocked(FindState(node), clock_->NowMicros());
}

double Monitor::PNodeUpLocked(const NodeState* state,
                              MicrosecondCount now) const {
  if (state == nullptr) {
    return 1.0;
  }
  // An open breaker overrides the windowed estimate: the node is known-bad
  // until the cooldown expires, however good its older samples look.
  if (BreakerLocked(state, now) == BreakerState::kOpen) {
    return 0.0;
  }
  // Samples are 0 (failure) or 1 (success): the fraction strictly below 1 is
  // the failure rate. An empty window means no evidence: assume up.
  return 1.0 - state->outcomes.FractionBelow(now, 1, /*empty_estimate=*/0.0);
}

double Monitor::PNodeUp(std::string_view node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return PNodeUpLocked(FindState(node), clock_->NowMicros());
}

double Monitor::PNodeLatLocked(const NodeState* state, MicrosecondCount now,
                               MicrosecondCount latency_us) const {
  if (state == nullptr) {
    return kUnknownLatencyEstimate;
  }
  return state->latencies.FractionBelow(now, latency_us,
                                        kUnknownLatencyEstimate);
}

double Monitor::PNodeLat(std::string_view node,
                         MicrosecondCount latency_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  return PNodeLatLocked(FindState(node), clock_->NowMicros(), latency_us);
}

Monitor::NodeEstimate Monitor::Estimate(std::string_view node,
                                        std::span<const SubSla> subslas,
                                        std::span<double> p_lat) const {
  std::lock_guard<std::mutex> lock(mu_);
  const NodeState* state = FindState(node);
  const MicrosecondCount now = clock_->NowMicros();
  NodeEstimate estimate;
  estimate.breaker_open = BreakerLocked(state, now) == BreakerState::kOpen;
  estimate.high_timestamp = KnownHighTimestampLocked(state, now);
  estimate.queue_delay_us = QueueDelayLocked(state);
  estimate.p_up = PNodeUpLocked(state, now);
  estimate.overloaded = OverloadedLocked(state, now);
  estimate.mean_latency_us = MeanLatencyLocked(state, now);
  for (size_t i = 0; i < subslas.size(); ++i) {
    const MicrosecondCount budget = std::max<MicrosecondCount>(
        0, subslas[i].latency_us - estimate.queue_delay_us);
    p_lat[i] = PNodeLatLocked(state, now, budget);
  }
  return estimate;
}

double Monitor::PNodeCons(std::string_view node,
                          const Timestamp& min_read_timestamp) const {
  return KnownHighTimestamp(node) >= min_read_timestamp ? 1.0 : 0.0;
}

Timestamp Monitor::KnownHighTimestampLocked(const NodeState* state,
                                            MicrosecondCount now_us) const {
  if (state == nullptr) {
    return Timestamp::Zero();
  }
  Timestamp high = state->high_timestamp;
  if (options_.predict_high_timestamp && state->high_observed_at_us >= 0) {
    // Extrapolate: the node's high timestamp has (probably) kept advancing
    // since we last heard from it, at the pace of wall time (true for an
    // idle primary's heartbeats).
    high.physical_us += now_us - state->high_observed_at_us;
  }
  return high;
}

Timestamp Monitor::KnownHighTimestamp(std::string_view node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return KnownHighTimestampLocked(FindState(node), clock_->NowMicros());
}

MicrosecondCount Monitor::MeanLatencyLocked(const NodeState* state,
                                            MicrosecondCount now_us) {
  return state == nullptr ? 0 : state->latencies.Mean(now_us);
}

MicrosecondCount Monitor::MeanLatency(std::string_view node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return MeanLatencyLocked(FindState(node), clock_->NowMicros());
}

std::vector<Monitor::NodeSnapshot> Monitor::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  const MicrosecondCount now = clock_->NowMicros();
  std::vector<NodeSnapshot> out;
  out.reserve(nodes_.size());
  // nodes_ is an ordered map, so the result is sorted by name already.
  for (const auto& [name, state] : nodes_) {
    NodeSnapshot snap;
    snap.node = name;
    snap.latency_samples = state.latencies.SampleCount(now);
    snap.mean_latency_us = state.latencies.Mean(now);
    snap.p50_latency_us = state.latencies.Quantile(now, 0.50);
    snap.p95_latency_us = state.latencies.Quantile(now, 0.95);
    snap.p99_latency_us = state.latencies.Quantile(now, 0.99);
    snap.high_timestamp = state.high_timestamp;
    snap.high_observed_at_us = state.high_observed_at_us;
    snap.last_contact_us = state.last_contact_us;
    snap.breaker = BreakerLocked(&state, now);
    snap.p_up = snap.breaker == BreakerState::kOpen
                    ? 0.0
                    : 1.0 - state.outcomes.FractionBelow(
                                now, 1, /*empty_estimate=*/0.0);
    snap.consecutive_failures = state.consecutive_failures;
    snap.overloaded = now < state.overloaded_until_us;
    snap.queue_delay_us =
        static_cast<MicrosecondCount>(state.queue_delay_ewma_us);
    out.push_back(std::move(snap));
  }
  return out;
}

bool Monitor::NeedsProbe(std::string_view node) const {
  std::lock_guard<std::mutex> lock(mu_);
  const NodeState* state = FindState(node);
  if (state == nullptr) {
    return true;
  }
  const MicrosecondCount now = clock_->NowMicros();
  switch (BreakerLocked(state, now)) {
    case BreakerState::kOpen:
      return false;  // Pointless during the cooldown.
    case BreakerState::kHalfOpen:
      return true;  // Probation probe decides recovery.
    case BreakerState::kClosed:
      break;
  }
  return now - state->last_contact_us >= options_.probe_interval_us;
}

std::string_view BreakerStateName(Monitor::BreakerState state) {
  switch (state) {
    case Monitor::BreakerState::kClosed:
      return "closed";
    case Monitor::BreakerState::kOpen:
      return "open";
    case Monitor::BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

}  // namespace pileus::core
