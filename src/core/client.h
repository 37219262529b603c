// The Pileus client library (paper Sections 3, 4.6).
//
// PileusClient implements the application-facing API of Figure 2 for one
// table: sessions with a default SLA, Get with an optional per-operation SLA,
// and Put. For every read, a Get or a GetRange, it
//
//   1. computes each subSLA's minimum acceptable read timestamp from session
//      state (Section 4.4),
//   2. selects the target subSLA and storage node that maximize expected
//      utility using the monitor's latency/staleness estimates (Figure 8),
//   3. issues the read (optionally fanned out to several tied candidates -
//      the Section 6.3 parallel-Gets extension),
//   4. uses the responding node's high timestamp plus the measured round-trip
//      time to determine which subSLA was *actually* met - possibly a higher
//      one than targeted (Figure 9) - and reports it in the condition code.
//
// The client also implements the paper's three fixed comparison strategies
// (Primary / Random / Closest, Section 5.1) behind the same API so the
// benches can measure all four with identical accounting.
//
// Thread safety: Get/Put/BeginSession are meant to be driven by one
// application thread per client (sessions are not synchronized). ProbeNode /
// ProbeStaleNodes may run concurrently on a background prober thread: the
// monitor is internally synchronized and the client's counters are atomic.

#ifndef PILEUS_SRC_CORE_CLIENT_H_
#define PILEUS_SRC_CORE_CLIENT_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/core/audit_hook.h"
#include "src/core/connection.h"
#include "src/core/monitor.h"
#include "src/core/retry_budget.h"
#include "src/core/selection.h"
#include "src/core/session.h"
#include "src/core/sla.h"
#include "src/proto/messages.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace pileus::core {

// One replica of a table as seen by a client.
struct Replica {
  std::string name;
  bool authoritative = false;  // Primary-site member or synchronous replica.
  std::shared_ptr<NodeConnection> connection;
};

// A client's view of one table's configuration (manually configured, like the
// paper's prototype - Section 4.2).
struct TableView {
  std::string table_name;
  std::vector<Replica> replicas;
  int primary_index = -1;  // Where Puts go.

  Status Validate() const;
  std::vector<ReplicaView> MakeReplicaViews() const;
};

// Read-side strategies evaluated in Section 5.1.
enum class ReadStrategy {
  kPileus = 0,   // Utility-maximizing subSLA/node selection.
  kPrimary = 1,  // Always read from the primary (strong).
  kRandom = 2,   // Uniformly random replica (SimpleDB-style eventual).
  kClosest = 3,  // Lowest mean latency replica (eventual).
};
std::string_view ReadStrategyName(ReadStrategy strategy);

// The condition code a Get returns alongside its data (Section 3.3: "the
// caller is informed of which subSLA was satisfied").
struct GetOutcome {
  int target_rank = -1;     // SubSLA the client aimed for (-1: fixed strategy).
  int met_rank = -1;        // SubSLA actually met; -1 if none.
  double utility = 0.0;     // Utility of the met subSLA (0 when none met).
  MicrosecondCount rtt_us = 0;
  int node_index = -1;      // Replica that served the winning reply.
  std::string node_name;    // That replica's name.
  bool from_primary = false;  // Authoritative data: strong-read quality.
  int messages_sent = 1;      // 1 + fan-out extras + retries.
  bool retried = false;       // The result came from a retry: another
                              // replica after the target failed.
};

struct GetResult {
  bool found = false;
  std::string value;
  Timestamp timestamp;  // Update timestamp of the returned version.
  GetOutcome outcome;
};

struct PutResult {
  Timestamp timestamp;  // Update timestamp assigned by the primary.
  MicrosecondCount rtt_us = 0;
};

struct RangeResult {
  // Ascending key order; shares the reply's versions (read-only).
  proto::VersionList items;
  bool truncated = false;
  GetOutcome outcome;
};

class PileusClient {
 public:
  struct Options {
    ReadStrategy strategy = ReadStrategy::kPileus;
    Monitor::Options monitor;
    SelectionOptions selection;
    // Section 6.3: fan a Get or GetRange out to up to this many tied
    // candidates.
    int parallel_fanout = 1;
    // Availability (Section 3.3): when the targeted node fails outright
    // (unreachable / error), try the remaining replicas while deadline
    // budget remains, so "data will be returned as long as some replica can
    // be reached". Applies to the Pileus strategy only - the fixed baseline
    // strategies stay faithful to their single-node behavior.
    bool retry_other_replicas_on_failure = true;
    MicrosecondCount put_timeout_us = SecondsToMicroseconds(10);
    // Write-path resilience: a Put/Delete whose attempt fails at the
    // transport level (unreachable, reset, timeout, corrupt reply) or is
    // answered with an ErrorReply carrying kUnavailable is retried against
    // the primary, up to this many attempts total. Writes are idempotent at
    // the storage layer only in the last-writer-wins sense, so retries are
    // bounded and semantic errors (bad table, internal faults) never retry.
    int put_max_attempts = 3;
    // How the client waits out a backoff. Wall-clock deployments pass a real
    // sleep; the simulation passes a SimEnvironment::RunFor adapter so
    // virtual time (and with it replication / recovery) advances between
    // attempts. nullptr = no wait, retry immediately.
    std::function<void(MicrosecondCount)> sleep_fn;
    // Section 6.1 extension: "clients could share monitoring information
    // with other clients in the same datacenter". When set, this client
    // reads and feeds the shared monitor (not owned; must outlive the
    // client; Monitor is internally synchronized) instead of a private one,
    // so co-located clients skip each other's cold starts.
    Monitor* shared_monitor = nullptr;
    // Telemetry (DESIGN.md "Telemetry"). When `metrics` is set the client
    // registers pileus_client_* metrics labeled with the table name and
    // feeds them on every operation; counter handles are resolved once at
    // construction, so the per-op cost is a few relaxed atomics. When
    // `trace_sink` is set every Get/Put/Delete/Range/Probe emits one
    // telemetry::TraceEvent. Neither is owned; both must outlive the client.
    // nullptr (the default) skips all accounting.
    telemetry::MetricsRegistry* metrics = nullptr;
    telemetry::TraceSink* trace_sink = nullptr;
    // Consistency auditing (DESIGN.md "Consistency auditing"): when set,
    // every Get/Put/Delete/Range emits one OpRecord capturing the
    // client-visible outcome and the claimed subSLA, for offline
    // verification against the primary's commit order. Not owned; must
    // outlive the client.
    OpObserver* op_observer = nullptr;
    // Overload control (DESIGN.md Section 11). `tenant` names the admission
    // token bucket requests draw from at the server (empty = the table's
    // default bucket); benches and multi-tenant deployments set it so one hot
    // workload cannot starve another. Every request also carries the
    // client's remaining deadline, and reads carry the targeted subSLA's
    // utility, so the server can shed the least valuable work first.
    std::string tenant;
    // All retry traffic — Get availability retries, write retries, and
    // kNotPrimary redirects — draws from one RetryBudget refilled only by
    // successes, so a brown-out cannot turn this client into a retry storm.
    // When set, retries draw from this budget instead of a private one (not
    // owned; must outlive the client; internally synchronized). Share one
    // instance across a tenant's clients for a per-tenant bound.
    RetryBudget* shared_retry_budget = nullptr;
    uint64_t seed = 42;
  };

  // Deadline of an active probe (ProbeNode).
  static constexpr MicrosecondCount kProbeTimeoutUs = SecondsToMicroseconds(5);
  // Exponential backoff between write attempts: the n-th wait is
  //   min(max, initial * multiplier^(n-1)) * jitter, jitter ~ U[0.5, 1.0].
  static constexpr MicrosecondCount kPutBackoffInitialUs = 50'000;
  static constexpr double kPutBackoffMultiplier = 2.0;
  static constexpr MicrosecondCount kPutBackoffMaxUs = SecondsToMicroseconds(2);

  // `fanout` may be null when parallel_fanout == 1; it is not owned.
  PileusClient(TableView table, const Clock* clock);
  PileusClient(TableView table, const Clock* clock, Options options,
               FanoutCaller* fanout = nullptr);

  // Validates the SLA and opens a session scoped to this table.
  Result<Session> BeginSession(const Sla& default_sla) const;

  // Get under the session's default SLA.
  Result<GetResult> Get(Session& session, std::string_view key);
  // Get under a per-operation SLA override (Section 3.1).
  Result<GetResult> Get(Session& session, std::string_view key,
                        const Sla& sla);

  Result<PutResult> Put(Session& session, std::string_view key,
                        std::string_view value);

  // Deletes a key by writing a tombstone at the primary. A delete is a
  // write: the session records its timestamp, so a subsequent
  // read-my-writes Get observes the deletion (not-found) rather than a
  // stale value.
  Result<PutResult> Delete(Session& session, std::string_view key);

  // Range scan over [begin, end) (end empty = unbounded), at most `limit`
  // items (0 = unlimited), under the session's default SLA or an override.
  // The whole scan carries one consistency outcome: the serving node's high
  // timestamp bounds the staleness of every returned item, with per-key
  // guarantees generalized conservatively (see
  // Session::MinReadTimestampForScan).
  Result<RangeResult> GetRange(Session& session, std::string_view begin,
                               std::string_view end, uint32_t limit);
  Result<RangeResult> GetRange(Session& session, std::string_view begin,
                               std::string_view end, uint32_t limit,
                               const Sla& sla);

  // Active monitoring (Section 4.5): probe one replica, or every replica the
  // monitor considers stale. Deployments call these from a background thread;
  // the simulation schedules equivalent virtual-time events.
  Status ProbeNode(int replica_index);
  void ProbeStaleNodes();

  Monitor& monitor() { return *monitor_; }
  const Monitor& monitor() const { return *monitor_; }
  RetryBudget& retry_budget() { return *retry_budget_; }
  const RetryBudget& retry_budget() const { return *retry_budget_; }
  const TableView& table() const { return table_; }
  const Options& options() const { return options_; }

  uint64_t gets_issued() const {
    return gets_issued_.load(std::memory_order_relaxed);
  }
  uint64_t puts_issued() const {
    return puts_issued_.load(std::memory_order_relaxed);
  }
  uint64_t messages_sent() const {
    return messages_sent_.load(std::memory_order_relaxed);
  }
  // kOverloaded rejections received across all operations.
  uint64_t overload_rejections() const {
    return overload_rejections_.load(std::memory_order_relaxed);
  }

 private:
  // Per-op adapters for Read: what differs between a point Get and a range
  // scan (request fields, reply type, session fills, result shape,
  // trace and audit op kind). Defined in client.cc.
  struct GetOp;
  struct RangeOp;

  // The one read protocol behind Get and GetRange (DESIGN.md Section 1):
  // select the subSLA and node (Figure 8), send (fanned out per Section
  // 6.3), judge every reply (Figure 9), and retry other replicas when nothing
  // usable came back. Every replica is called at most once per op.
  template <typename Op>
  Result<typename Op::Result> Read(const Sla& sla, const Op& op);
  // Read's one success finish: session and budget updates, counters, trace
  // and audit record, then the result. (Its one failure finish ends Read.)
  template <typename Op>
  typename Op::Result FinishRead(const Op& op, const Sla& sla,
                                 MicrosecondCount start_us,
                                 const GetOutcome& outcome,
                                 typename Op::Reply& reply);

  // Shared Put/Delete path: bounded retries with jittered exponential
  // backoff against the primary, feeding the monitor on every attempt.
  Result<PutResult> DoWrite(const proto::Message& request, Session& session,
                            std::string_view key, std::string_view op_name,
                            telemetry::TraceOp trace_op);

  // Node choice for the fixed strategies.
  int PickFixedStrategyNode();

  // Records latency/high-timestamp evidence from one reply into the monitor,
  // including overload rejections (backoff window + retry_after hint) and
  // piggybacked queue delays. Returns the reply's kOverloaded retry_after_ms
  // hint, or -1 when the reply was not an overload rejection. Write replies
  // pass record_latency = false: with multi-site synchronous Puts (Section
  // 6.4) a Put's RTT includes the sync fan-out and badly overstates the
  // node's Get latency. Puts always contribute high-timestamp evidence.
  int AbsorbReplyEvidence(int node_index, const TimedReply& timed,
                          bool record_latency = true);

  // Jittered wait before a retry: 50-100% of max(nominal backoff, the
  // server's retry_after hint), so hints stretch the wait but synchronized
  // clients still never re-stampede in lockstep (DESIGN.md Section 11).
  MicrosecondCount JitteredBackoff(MicrosecondCount nominal_us,
                                   int retry_after_ms);

  // Feeds a reply's config piggyback (epoch + primary hint) to the monitor.
  void NoteReplyConfig(const proto::Message& message);
  // Re-resolves the primary from the monitor's config view when a newer
  // epoch has been learned: writes and strong reads move to the new primary,
  // and the replica authoritative flags collapse to primary-only (the
  // piggyback says nothing about sync members, so the client stays
  // conservative until told otherwise). No-op when nothing new was learned
  // or the named primary is not in this client's replica set.
  void MaybeAdoptConfig();
  int FindReplicaIndex(std::string_view name) const;

  // Figure 9: the highest-ranked subSLA a reply satisfies, given its high
  // timestamp, whether an authoritative copy served it, and the RTT the
  // application saw; -1 when none. One function judges every read claim,
  // of Gets and scans alike.
  static int DetermineMetRank(const Sla& sla,
                              const MinReadTimestampFn& min_read_timestamp,
                              const Timestamp& high_timestamp,
                              bool served_by_primary,
                              MicrosecondCount rtt_us);

  // Telemetry handles, resolved once at construction when Options::metrics
  // is set. SubSLA ranks above kTrackedRanks-1 share the "8plus" series.
  struct Instruments {
    static constexpr int kTrackedRanks = 8;
    telemetry::Counter* gets = nullptr;
    telemetry::Counter* ranges = nullptr;
    telemetry::Counter* puts = nullptr;
    telemetry::Counter* deletes = nullptr;
    telemetry::Counter* probes = nullptr;
    telemetry::Counter* get_errors = nullptr;
    telemetry::Counter* put_errors = nullptr;
    telemetry::Counter* retries = nullptr;
    // Writes re-routed after a kNotPrimary rejection or a config change
    // (failovers show up here, not in put_errors).
    telemetry::Counter* put_redirects = nullptr;
    telemetry::Counter* messages = nullptr;
    // Delivered utility accumulated in micro-units (utility 1.0 adds 1e6).
    telemetry::Counter* utility_micros = nullptr;
    telemetry::Counter* met_none = nullptr;
    std::array<telemetry::Counter*, kTrackedRanks> met_by_rank{};
    telemetry::Counter* met_overflow = nullptr;
    std::array<telemetry::Counter*, kTrackedRanks> target_by_rank{};
    telemetry::Counter* target_overflow = nullptr;
    // Overload control (DESIGN.md Section 11): kOverloaded rejections
    // received and retries denied by an exhausted budget.
    telemetry::Counter* overload_rejections = nullptr;
    telemetry::Counter* retry_budget_denied = nullptr;
    telemetry::HistogramMetric* get_latency_us = nullptr;
    telemetry::HistogramMetric* put_latency_us = nullptr;
  };
  void InitInstruments();
  void CountReadOutcome(const GetOutcome& outcome);
  // Builds and emits the TraceEvent for a completed (or failed) SLA read.
  void EmitReadTrace(telemetry::TraceOp op, const Session& session,
                     std::string_view key, const Sla& sla,
                     const GetOutcome& outcome, const Timestamp& read_ts,
                     bool ok);
  // Audit records (Options::op_observer). `reply` is the served reply on
  // success and null on failure.
  template <typename Op>
  void EmitReadRecord(const Op& op, MicrosecondCount begin_us, const Sla& sla,
                      const GetOutcome& outcome,
                      const typename Op::Reply* reply);
  void EmitWriteRecord(AuditOp op, const Session& session,
                       std::string_view key, MicrosecondCount begin_us,
                       bool ok, const Timestamp& assigned);

  TableView table_;
  const Clock* clock_;  // Not owned.
  Options options_;
  FanoutCaller* fanout_;  // Not owned; may be null.
  Monitor own_monitor_;
  Monitor* monitor_;  // own_monitor_ or Options::shared_monitor.
  RetryBudget own_retry_budget_;
  RetryBudget* retry_budget_;  // own_ or Options::shared_retry_budget.
  std::vector<ReplicaView> replica_views_;
  Random rng_;
  // Epoch-aware primary tracking (Section 6.2). Where writes currently go:
  // starts at TableView::primary_index and moves when a reply piggybacks a
  // newer config epoch naming another replica as primary; kNotPrimary
  // rejections redirect the same way.
  int current_primary_index_ = -1;
  // Newest config epoch this client has acted on (0 until the first
  // configured reply).
  uint64_t applied_config_epoch_ = 0;
  Instruments instruments_;
  std::atomic<uint64_t> gets_issued_{0};
  std::atomic<uint64_t> puts_issued_{0};
  std::atomic<uint64_t> messages_sent_{0};
  std::atomic<uint64_t> overload_rejections_{0};
};

}  // namespace pileus::core

#endif  // PILEUS_SRC_CORE_CLIENT_H_
