// Client-side monitor of storage nodes (paper Section 4.5).
//
// For every replica of a table the monitor records (a) a sliding window of
// round-trip latencies and (b) the maximum high timestamp it has observed.
// Both are fed by normal Gets/Puts (piggybacking) and by active probes for
// nodes that have not been contacted recently. From this state it computes
// the probability estimates the selection algorithm consumes:
//
//   PNodeLat(node, L)  - fraction of windowed RTTs below L;
//   PNodeCons(node, m) - 1 if the node's last known high timestamp >= the
//                        minimum acceptable read timestamp m, else 0. High
//                        timestamps only grow, so stale knowledge is a safe
//                        underestimate;
//   PNodeSla           - the product of the two.
//
// The optional high-timestamp predictor implements the Section 6.1 extension
// ("clients could potentially predict a node's high timestamp"): it
// extrapolates the observed high timestamp forward by the time elapsed since
// the observation.
//
// Thread safety: fully synchronized. The monitor is the one piece of client
// state shared between the application thread and a background prober
// (core::ThreadedProber), so all reads and updates take an internal lock.

#ifndef PILEUS_SRC_CORE_MONITOR_H_
#define PILEUS_SRC_CORE_MONITOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/timestamp.h"
#include "src/core/sla.h"
#include "src/util/sliding_window.h"

namespace pileus::core {

class Monitor {
 public:
  struct Options {
    SlidingWindow::Options latency_window;
    // A node unvisited for this long should be probed.
    MicrosecondCount probe_interval_us = SecondsToMicroseconds(10);
    // Section 6.1 extension: extrapolate high timestamps between syncs,
    // crediting all elapsed wall time (the node keeps pace with wall time,
    // as an idle primary's heartbeats do).
    bool predict_high_timestamp = false;
  };

  // PNodeLat for a node with no samples: optimistic so new nodes get tried.
  static constexpr double kUnknownLatencyEstimate = 1.0;
  // Per-replica circuit breaker: this many *consecutive* transport failures
  // open the breaker. While open, PNodeUp reports 0 and NeedsProbe stays
  // false, so selection deprioritizes the replica and probes stop hammering
  // it. After the cooldown the breaker is half-open: exactly the probation
  // probes run (NeedsProbe true again) and the next success closes it; the
  // next failure re-opens it for another full cooldown.
  static constexpr int kBreakerFailureThreshold = 3;
  static constexpr MicrosecondCount kBreakerCooldownUs =
      SecondsToMicroseconds(5);
  // Overload evidence (DESIGN.md Section 11). While a node is inside the
  // backoff window of a kOverloaded rejection, non-authoritative subSLA
  // utilities are scaled by POverload(): a rank with utility u keeps
  //   kOverloadPenalty + (1 - kOverloadPenalty) * min(1, u)
  // of its expected utility, so low-utility reads re-route to other replicas
  // first while strong and high-utility reads stick with the node the server
  // protects anyway.
  static constexpr double kOverloadPenalty = 0.2;
  // Backoff window applied when a rejection carries no retry_after hint.
  static constexpr MicrosecondCount kDefaultOverloadBackoffUs =
      100 * kMicrosecondsPerMillisecond;
  // EWMA smoothing factor for server-reported queue delays.
  static constexpr double kQueueDelayAlpha = 0.3;

  enum class BreakerState {
    kClosed = 0,    // Healthy: requests flow normally.
    kOpen = 1,      // Tripped: selection avoids the node until the cooldown.
    kHalfOpen = 2,  // Cooldown over: probation probes decide open vs closed.
  };

  explicit Monitor(const Clock* clock) : Monitor(clock, Options{}) {}
  Monitor(const Clock* clock, Options options)
      : clock_(clock), options_(options) {}

  // --- Feeding the monitor ---

  void RecordLatency(std::string_view node, MicrosecondCount rtt_us);
  void RecordHighTimestamp(std::string_view node, const Timestamp& high);

  // Configuration evidence (Section 6.2): replies piggyback the epoch and
  // primary of the serving node's tablet for the request's key. Monotonic -
  // a stale epoch (delayed reply from a demoted node) never rolls the view
  // back. Epoch 0 (unconfigured) is ignored.
  void RecordConfig(uint64_t epoch, std::string_view primary);

  // Reachability evidence: successes are normal replies, failures are
  // transport errors (unreachable, connection reset, deadline expired with
  // no answer). Drives PNodeUp so selection routes around dead nodes while
  // probes keep checking for recovery.
  void RecordSuccess(std::string_view node);
  void RecordFailure(std::string_view node);

  // Overload evidence (DESIGN.md Section 11). A kOverloaded rejection puts
  // the node in a backoff window of `retry_after_us` (the reply's hint; 0
  // falls back to kDefaultOverloadBackoffUs) during which IsOverloaded()
  // is true and POverload() discounts non-authoritative utilities. The node
  // answered, so this neither trips the breaker nor dents PNodeUp.
  void RecordOverload(std::string_view node, MicrosecondCount retry_after_us);

  // Server-measured queue delay piggybacked on a reply; smoothed into an
  // EWMA that selection subtracts from each rank's latency budget.
  void RecordQueueDelay(std::string_view node, MicrosecondCount delay_us);

  // Everything a served reply tells the monitor, under one lock and one
  // clock reading: RecordLatency (skipped when `rtt_us` is empty),
  // RecordSuccess, RecordHighTimestamp and RecordQueueDelay, in that order.
  // Leaves the same state and samples_recorded() as the four calls.
  void RecordReply(std::string_view node,
                   std::optional<MicrosecondCount> rtt_us,
                   const Timestamp& high, MicrosecondCount queue_delay_us);

  // --- Probability estimates (Section 4.5) ---

  double PNodeLat(std::string_view node, MicrosecondCount latency_us) const;

  // min_read_timestamp comes from Session::MinReadTimestamp. Strong reads are
  // decided by authoritativeness in the selection layer, not here.
  double PNodeCons(std::string_view node,
                   const Timestamp& min_read_timestamp) const;

  // Fraction of recent operations against the node that got any answer at
  // all; 1.0 for nodes with no recorded outcomes.
  double PNodeUp(std::string_view node) const;

  double PNodeSla(std::string_view node, const Timestamp& min_read_timestamp,
                  MicrosecondCount latency_us) const {
    return PNodeCons(node, min_read_timestamp) * PNodeLat(node, latency_us) *
           PNodeUp(node);
  }

  // True while the node is inside an overload backoff window.
  bool IsOverloaded(std::string_view node) const;

  // Utility multiplier the degradation ladder applies to a non-authoritative
  // subSLA with utility `utility` at this node: 1.0 when not overloaded.
  double POverload(std::string_view node, double utility) const {
    return OverloadFactor(IsOverloaded(node), utility);
  }
  static double OverloadFactor(bool overloaded, double utility);

  // Smoothed server-reported queue delay; 0 for unknown nodes.
  MicrosecondCount QueueDelayUs(std::string_view node) const;

  // --- Introspection / probing support ---

  // Last known (possibly predicted) high timestamp; Zero when never seen.
  Timestamp KnownHighTimestamp(std::string_view node) const;

  // Mean windowed RTT; 0 when no samples (treated as "unknown, assume near").
  MicrosecondCount MeanLatency(std::string_view node) const;

  // Everything selection (Figure 8) reads about one node, taken under one
  // lock at one clock reading. Each field is what the getter named beside it
  // returns at that instant.
  struct NodeEstimate {
    bool breaker_open = false;                     // BreakerOpen
    Timestamp high_timestamp = Timestamp::Zero();  // KnownHighTimestamp
    MicrosecondCount queue_delay_us = 0;           // QueueDelayUs
    double p_up = 1.0;                             // PNodeUp
    bool overloaded = false;                       // IsOverloaded
    MicrosecondCount mean_latency_us = 0;          // MeanLatency
  };

  // The node's NodeEstimate, plus in `p_lat[i]` (p_lat.size() ==
  // subslas.size()) PNodeLat at subslas[i]'s latency budget: its latency
  // bound less the queue delay, floored at 0. Server-side queueing eats
  // into the budget: a node whose admission queue is already worth 40 ms
  // cannot meet a 50 ms rank unless its RTTs fit in the remaining 10 ms.
  NodeEstimate Estimate(std::string_view node,
                        std::span<const SubSla> subslas,
                        std::span<double> p_lat) const;

  // True when the node has not been contacted within probe_interval, or the
  // node's breaker is half-open (probation probe wanted). False while the
  // breaker is open: during the cooldown probing the node is pointless.
  bool NeedsProbe(std::string_view node) const;

  // Newest table configuration learned from reply piggybacks; epoch 0 until
  // the first configured reply arrives.
  struct ConfigView {
    uint64_t epoch = 0;
    std::string primary;
  };
  ConfigView CurrentConfig() const;

  // Circuit-breaker state for the node (kClosed for unknown nodes).
  BreakerState Breaker(std::string_view node) const;
  bool BreakerOpen(std::string_view node) const {
    return Breaker(node) == BreakerState::kOpen;
  }

  // Point-in-time view of everything the monitor knows about one node:
  // windowed latency quantiles, the last-known high timestamp, reachability,
  // and circuit-breaker state. Consumed by the CLI `stats` command and the
  // telemetry exporters.
  struct NodeSnapshot {
    std::string node;
    size_t latency_samples = 0;
    MicrosecondCount mean_latency_us = 0;
    MicrosecondCount p50_latency_us = 0;
    MicrosecondCount p95_latency_us = 0;
    MicrosecondCount p99_latency_us = 0;
    // As observed (never extrapolated, even with predict_high_timestamp).
    Timestamp high_timestamp = Timestamp::Zero();
    MicrosecondCount high_observed_at_us = -1;
    MicrosecondCount last_contact_us = -1;
    double p_up = 1.0;
    BreakerState breaker = BreakerState::kClosed;
    int consecutive_failures = 0;
    // Overload-control view (DESIGN.md Section 11).
    bool overloaded = false;
    MicrosecondCount queue_delay_us = 0;
  };

  // One NodeSnapshot per known node, sorted by node name.
  std::vector<NodeSnapshot> Snapshot() const;

  uint64_t breaker_trips() const {
    std::lock_guard<std::mutex> lock(mu_);
    return breaker_trips_;
  }

  uint64_t samples_recorded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_recorded_;
  }

  uint64_t overload_rejections() const {
    std::lock_guard<std::mutex> lock(mu_);
    return overload_rejections_;
  }

  const Options& options() const { return options_; }

 private:
  struct NodeState {
    SlidingWindow latencies;
    // Reachability outcomes as 0/1 samples in the same sliding window shape.
    SlidingWindow outcomes;
    Timestamp high_timestamp = Timestamp::Zero();
    MicrosecondCount high_observed_at_us = -1;
    MicrosecondCount last_contact_us = -1;
    // Circuit breaker: consecutive transport failures and the cooldown end.
    // breaker_open_until_us semantics: 0 = closed; now < t = open;
    // now >= t = half-open (awaiting a probation success).
    int consecutive_failures = 0;
    MicrosecondCount breaker_open_until_us = 0;
    // Overload backoff window end (0 = not overloaded) and the smoothed
    // server-reported queue delay.
    MicrosecondCount overloaded_until_us = 0;
    double queue_delay_ewma_us = 0.0;
    bool has_queue_delay = false;

    explicit NodeState(const SlidingWindow::Options& window)
        : latencies(window), outcomes(window) {}
  };

  // The Record* and estimate bodies, for a caller holding mu_. Each public
  // Record* or getter is one lock around one of these (RecordReply and
  // Estimate around several), so no formula exists twice.
  void RecordLatencyLocked(NodeState& state, MicrosecondCount now_us,
                           MicrosecondCount rtt_us);
  void RecordSuccessLocked(NodeState& state, MicrosecondCount now_us);
  void RecordHighTimestampLocked(NodeState& state, MicrosecondCount now_us,
                                 const Timestamp& high);
  void RecordQueueDelayLocked(NodeState& state, MicrosecondCount delay_us);
  // The getters take a null state for a node the monitor has never seen.
  BreakerState BreakerLocked(const NodeState* state,
                             MicrosecondCount now_us) const;
  double PNodeLatLocked(const NodeState* state, MicrosecondCount now_us,
                        MicrosecondCount latency_us) const;
  double PNodeUpLocked(const NodeState* state, MicrosecondCount now_us) const;
  static MicrosecondCount QueueDelayLocked(const NodeState* state);
  Timestamp KnownHighTimestampLocked(const NodeState* state,
                                     MicrosecondCount now_us) const;
  static bool OverloadedLocked(const NodeState* state,
                               MicrosecondCount now_us);
  static MicrosecondCount MeanLatencyLocked(const NodeState* state,
                                            MicrosecondCount now_us);

  NodeState& StateFor(std::string_view node);
  const NodeState* FindState(std::string_view node) const;

  const Clock* clock_;  // Not owned.
  Options options_;
  mutable std::mutex mu_;
  std::map<std::string, NodeState, std::less<>> nodes_;
  uint64_t samples_recorded_ = 0;
  uint64_t breaker_trips_ = 0;
  uint64_t overload_rejections_ = 0;
  // Newest config epoch/primary seen on any reply (0/empty = never).
  uint64_t config_epoch_ = 0;
  std::string config_primary_;
};

// "closed" / "open" / "half-open", for stats output and logs.
std::string_view BreakerStateName(Monitor::BreakerState state);

}  // namespace pileus::core

#endif  // PILEUS_SRC_CORE_MONITOR_H_
