// The paper's worldwide test bed (Section 5.1, Figure 10), reproduced on the
// deterministic simulator.
//
// Topology: the primary storage node in England, secondary nodes on the US
// West Coast and in India, and clients co-located with any node or standalone
// in China. Secondaries pull from the primary once per minute. The RTT matrix
// is derived from the paper's Figure 3 / Table 1 numbers (England-US 147 ms,
// England-India 435 ms, England-China 307 ms, US-China 160 ms, ...).
//
// The testbed wires together every substrate: storage nodes and tablets,
// replication agents driven by virtual-time events, per-client Pileus
// monitors fed by piggybacked measurements and scheduled probe events, the
// multi-site synchronous Put extension (Section 6.4), and scriptable latency
// steps (Figure 13).

#ifndef PILEUS_SRC_EXPERIMENTS_GEO_TESTBED_H_
#define PILEUS_SRC_EXPERIMENTS_GEO_TESTBED_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/client.h"
#include "src/core/connection.h"
#include "src/reconfig/coordinator.h"
#include "src/replication/replication_agent.h"
#include "src/sim/fault_injector.h"
#include "src/sim/sim_environment.h"
#include "src/storage/storage_node.h"
#include "src/tablets/tablet_map.h"
#include "src/telemetry/metrics.h"

namespace pileus::experiments {

// Canonical site names.
inline constexpr const char* kUs = "US";
inline constexpr const char* kEngland = "England";
inline constexpr const char* kIndia = "India";
inline constexpr const char* kChina = "China";
inline constexpr const char* kTableName = "ycsb";

struct GeoTestbedOptions {
  uint64_t seed = 1;
  // Secondaries pull from the primary this often (paper: once per minute).
  MicrosecondCount replication_period_us = SecondsToMicroseconds(60);
  // How often client probe events check Monitor::NeedsProbe.
  MicrosecondCount probe_check_period_us = SecondsToMicroseconds(2);
  sim::LatencyModel::Options latency;
  // Number of authoritative copies (Section 6.4): 1 = England only (the
  // paper's evaluated prototype); 2 adds the US as a synchronous replica;
  // 3 adds India too. Puts are acked only after every sync replica applied.
  int sync_replica_count = 1;
  // When non-empty, every storage node's tablet is durable: it journals its
  // state changes to `<durable_root>/<site>/wal.log` (created on demand),
  // and CrashNode / RestartNode model a real process crash: volatile state
  // is lost and the restarted node recovers from its WAL before
  // replication catches it up.
  std::string durable_root;
  // Live failover (Section 6.2). When true, StartReconfiguration also runs a
  // lease-based coordinator as virtual-time heartbeat events (every
  // reconfig::FailoverCoordinator::kHeartbeatPeriodUs): a primary that
  // misses kMissedHeartbeatsToFail consecutive heartbeats is declared dead
  // (by which point its write lease has expired) and the reachable member
  // with the highest durable timestamp is promoted in a new config epoch.
  bool enable_failover = false;
  // Optional: exports pileus_reconfig_* metrics (epoch gauge, failover
  // counter, crash-to-promotion latency histogram). Not owned.
  telemetry::MetricsRegistry* metrics = nullptr;
  // Overload control (DESIGN.md Section 11): when set, every storage node
  // runs per-tenant admission with these options. Measured queue delays are
  // added to the serve-side virtual-time delay, so admitted-but-queued
  // requests genuinely take longer and shed ones bounce fast.
  std::optional<storage::AdmissionOptions> admission;
};

// A Pileus client running at some site of the testbed, with its connections,
// fan-out caller, and background probe events wired up.
class GeoClient {
 public:
  // Stops probing; probe replies still in flight find the client gone and
  // do nothing.
  ~GeoClient();

  core::PileusClient& client() { return *client_; }
  const std::string& site() const { return site_name_; }

  // Starts/stops the virtual-time background probing loop.
  void StartProbing();
  void StopProbing();

  // Probe messages issued by the background loop (each one round trip).
  uint64_t probes_sent() const { return *probes_sent_; }

 private:
  friend class GeoTestbed;
  GeoClient() = default;

  class SimFanout;

  std::string site_name_;
  sim::SiteId site_ = -1;
  class GeoTestbed* testbed_ = nullptr;
  std::unique_ptr<core::FanoutCaller> fanout_;
  std::unique_ptr<core::PileusClient> client_;
  sim::PeriodicHandle probe_task_;
  // Also the client's liveness token: probe events hold only weak
  // references to it, so an event that fires after the client was destroyed
  // finds it expired and leaves the freed client alone.
  std::shared_ptr<uint64_t> probes_sent_ = std::make_shared<uint64_t>(0);
};

class GeoTestbed {
 public:
  explicit GeoTestbed(GeoTestbedOptions options);
  ~GeoTestbed();

  GeoTestbed(const GeoTestbed&) = delete;
  GeoTestbed& operator=(const GeoTestbed&) = delete;

  sim::SimEnvironment& env() { return env_; }
  const GeoTestbedOptions& options() const { return options_; }

  // Storage node at a site; null for China (client-only).
  storage::StorageNode* node(const std::string& site);
  // The node currently holding the primary role — follows live failovers.
  storage::StorageNode* primary_node() { return node(primary_site_); }

  // Starts the periodic replication pulls (virtual-time events).
  void StartReplication();

  // Pulls every live secondary up to the primary at once, in process: no
  // simulated messages, no virtual time.
  Status CatchUpSecondaries();

  // Creates a client located at `site` (any of the four site names).
  std::unique_ptr<GeoClient> MakeClient(const std::string& site,
                                        core::PileusClient::Options options);

  // Injects/clears an additive RTT delta on the link between two sites
  // (Figure 13's +300 ms steps). Takes effect immediately.
  void SetRttDelta(const std::string& site_a, const std::string& site_b,
                   MicrosecondCount delta_us);

  // Failure injection: a down node answers every request with
  // kUnavailable (after the normal network transit - like a connection
  // refused by the dead node's host). Replication to/from it stalls too.
  void SetNodeDown(const std::string& site, bool down);

  // Scriptable fault injection (drops, gray slowness, partitions,
  // corruption). Every simulated message leg - client requests, replies,
  // probes, replication pulls - consults these rules. Endpoints are site
  // names; clients share their site's name.
  sim::FaultInjector& faults() { return faults_; }

  // Crash: the node goes silent (messages drop; the client sees only
  // deadline expiries) and its volatile state is destroyed, unlike the
  // polite SetNodeDown. RestartNode brings it back empty, replays its WAL
  // (when GeoTestbedOptions::durable_root is set), restores its configured
  // role, and lets replication catch it up from there.
  void CrashNode(const std::string& site);
  Status RestartNode(const std::string& site);
  bool IsNodeCrashed(const std::string& site);

  // Total replication messages exchanged so far (pull round trips).
  uint64_t replication_rounds() const { return replication_rounds_; }

  sim::SiteId SiteIdOf(const std::string& site) const;

  // --- Live reconfiguration (Section 6.2) ---

  // Installs the initial one-tablet map (version 1; its tablet at epoch 1
  // names the current primary, members, and sync roles) on every live
  // storage node and, when GeoTestbedOptions::enable_failover is set,
  // starts the coordinator's virtual-time heartbeat loop. Idempotent;
  // TriggerFailover calls it lazily.
  void StartReconfiguration();

  // Live primary move / manual failover: edits the map so the tablet's next
  // epoch has `new_primary_site` in the role, promotes it, catches up any
  // newly designated sync members, and installs the map on every reachable
  // member (fencing the old primary when it is still alive). Works with or
  // without the heartbeat loop. Fails when the target is crashed or down.
  Status TriggerFailover(const std::string& new_primary_site);

  // The table's tablet config (epoch 0 until StartReconfiguration runs).
  const reconfig::ConfigEpoch& current_config() const {
    return map_.tablets.front().config;
  }
  // Completed failovers/moves (auto-detected and triggered).
  uint64_t failovers() const { return failovers_; }

  const std::string& primary_site() const { return primary_site_; }

 private:
  friend class GeoClient;

  struct NodeEntry {
    std::string site;
    sim::SiteId site_id;
    std::unique_ptr<storage::StorageNode> node;
    std::unique_ptr<replication::ReplicationAgent> agent;  // Secondaries.
    sim::PeriodicHandle pull_task;
    bool down = false;
    // Crashed: node/agent are destroyed (volatile state lost) until
    // RestartNode; only the tablet's journal on disk survives.
    bool crashed = false;
    // Virtual time of the crash (-1 when not crashed); feeds the
    // crash-to-promotion latency histogram.
    MicrosecondCount crashed_at_us = -1;
  };

  // The server-side of one simulated request: dispatch plus, for Puts with
  // multi-site sync replication, the synchronous fan-out. Returns the extra
  // server-side delay (time until the slowest sync replica acked).
  proto::Message Serve(NodeEntry& entry, const proto::Message& request,
                       MicrosecondCount* extra_delay_us);

  NodeEntry* FindEntry(const std::string& site);
  void RunPullRound(NodeEntry& entry);
  // One complete pull cycle of `entry`'s agent from `source`, in process.
  Status PullInProcess(NodeEntry& entry, NodeEntry& source);

  // Gives the site a fresh node with its admission, replication agent and
  // one tablet: in memory, or with a durable_root, journaled under
  // `<durable_root>/<site>/` and recovered (its journaled config
  // re-installed fenced) from whatever an earlier incarnation left there.
  Status BuildNode(NodeEntry& entry, bool is_primary);

  // --- Reconfiguration internals ---
  bool IsLive(const std::string& site);
  // The lease a map install grants (0 without the heartbeat loop).
  MicrosecondCount LeaseDuration() const;
  // Sends `map` (as a TabletMapRequest install carrying LeaseDuration()) to
  // a live node, whose durable tablet journals it. Skips crashed/down nodes
  // (nullopt); they learn the map on recovery.
  std::optional<proto::TabletMapReply> InstallOnNode(
      NodeEntry& entry, const tablets::TabletMap& map);
  // One coordinator heartbeat round: renew leases on live members, feed the
  // detector, and execute any map edit it proposes.
  void RunHeartbeatRound();
  // Promotes, catches up new sync members, installs `next` everywhere
  // (fencing the old primary), and commits it (shared by auto-detection
  // and TriggerFailover).
  Status ExecuteFailover(const tablets::TabletMap& next);

  GeoTestbedOptions options_;
  sim::SimEnvironment env_;
  sim::FaultInjector faults_;
  std::vector<NodeEntry> nodes_;
  std::string primary_site_ = kEngland;
  sim::SiteId china_site_ = -1;
  uint64_t replication_rounds_ = 0;

  // Live reconfiguration state: the table's one-tablet map (installed by
  // StartReconfiguration; version and epoch 0 until then).
  tablets::TabletMap map_;
  std::unique_ptr<reconfig::FailoverCoordinator> coordinator_;
  sim::PeriodicHandle heartbeat_task_;
  uint64_t failovers_ = 0;
  telemetry::Gauge* epoch_gauge_ = nullptr;
  telemetry::Counter* failover_counter_ = nullptr;
  telemetry::HistogramMetric* unavailability_histogram_ = nullptr;
};

}  // namespace pileus::experiments

#endif  // PILEUS_SRC_EXPERIMENTS_GEO_TESTBED_H_
