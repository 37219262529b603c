// A storage node: hosts tablets for any number of tables and serves the
// storage protocol. Nodes know nothing about consistency guarantees or SLAs
// (paper Section 4.1) — all of that lives in the client library.
//
// Thread safety: a single mutex serializes request handling, so the same node
// object can sit behind the threaded in-process transport, the TCP server, or
// be called directly from the single-threaded simulation.

#ifndef PILEUS_SRC_STORAGE_STORAGE_NODE_H_
#define PILEUS_SRC_STORAGE_STORAGE_NODE_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/proto/messages.h"
#include "src/storage/admission.h"
#include "src/storage/tablet.h"
#include "src/tablets/tablet_map.h"
#include "src/telemetry/metrics.h"
#include "src/util/key_range.h"

namespace pileus::storage {

class StorageNode {
 public:
  // `name` identifies the node in monitor state and logs; `site` names its
  // datacenter in the latency model.
  StorageNode(std::string name, std::string site, Clock* clock);

  const std::string& name() const { return name_; }
  const std::string& site() const { return site_; }

  // Registers a tablet. Ranges of one table must not overlap on one node.
  Status AddTablet(std::string_view table, Tablet::Options options);

  // --- Dynamic tablets (DESIGN.md Section 14) ---

  // Installs a tablet map version-monotonically (normally done via a
  // TabletMapRequest with install=true; this entry point serves recovery,
  // which replays journaled configs before the transport exists). Adopting
  // a map applies the per-tablet roles it implies to hosted tablets — a
  // failover (Section 6.2) and the migration cutover both promote and
  // demote through exactly this path — and turns on the write fence:
  // requests for ranges the map assigns elsewhere are rejected with
  // kWrongTablet, writes at a member that does not lead the key's tablet
  // with kNotPrimary, each with the owner as a hint. A `lease_expiry_us` of
  // 0 means the primary role never self-fences; recovery passes an expiry
  // in the past so a restarted ex-primary stays fenced until re-leased.
  // Returns false for version-0, invalid, or stale maps.
  bool InstallTabletMap(const tablets::TabletMap& map,
                        MicrosecondCount lease_expiry_us = 0);

  // The installed tablet map (nullopt when none was ever installed).
  std::optional<tablets::TabletMap> InstalledTabletMap(
      std::string_view table) const;

  // Splits the hosted tablet containing `split_key` in two at that key.
  // Purely local: the caller (coordinator) owns publishing the new map.
  Status SplitTablet(std::string_view table, std::string_view split_key);

  // Removes the hosted tablet with exactly this range (migration source
  // cleanup after the handoff drained).
  Status RemoveTablet(std::string_view table, const KeyRange& range);

  // Per-tablet load snapshot for the rebalancer and the CLI.
  struct LocalTabletStat {
    KeyRange range;
    bool is_primary = false;
    bool is_sync_replica = false;
    uint64_t size_bytes = 0;
    uint64_t ops_total = 0;  // Cumulative; the sampler turns this into ops/s.
    Timestamp high_timestamp;
  };
  std::vector<LocalTabletStat> LocalTabletStats(std::string_view table) const;

  // Generic dispatch: takes any request message, returns the matching reply
  // (or ErrorReply). This is what transports invoke.
  proto::Message Handle(const proto::Message& request);

  // Direct accessors used by replication agents and tests. The returned
  // tablet pointer is stable for the node's lifetime but callers must
  // synchronize through Handle()/WithTablet() in threaded settings.
  Tablet* FindTablet(std::string_view table, std::string_view key);
  const Tablet* FindTablet(std::string_view table, std::string_view key) const;
  std::vector<Tablet*> TabletsForTable(std::string_view table);

  // Runs `fn` under the node's request lock (threaded deployments).
  template <typename Fn>
  auto WithLock(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    return fn();
  }

  // High timestamp of the tablet owning `key` (Zero if absent); convenience
  // for tests and monitors.
  Timestamp HighTimestamp(std::string_view table, std::string_view key) const;

  // Audit ground truth (DESIGN.md "Consistency auditing"): the committed
  // versions across `table`'s tablets, merged into one ascending-timestamp
  // sequence. Taken from the primary, this is the authoritative commit order
  // histories are checked against. `contiguous` (when non-null) is set to
  // false when any tablet's log was compacted, i.e. old committed writes are
  // missing from the export.
  std::vector<proto::ObjectVersion> ExportTableLog(
      std::string_view table, bool* contiguous = nullptr) const;

  // Total Gets/Puts served; used by benches to report message costs.
  uint64_t requests_served() const { return requests_served_; }

  // Registers pileus_storage_* metrics labeled with this node's name and
  // feeds them on every Handle(): per-op served counters, an error counter,
  // and gauges for the node's minimum high timestamp and total update-log
  // size (refreshed after write-path requests). The registry is not owned
  // and must outlive the node.
  void EnableTelemetry(telemetry::MetricsRegistry* registry);

  // Puts every subsequent data-path request through per-tenant admission
  // control (DESIGN.md Section 11). Control traffic — probes, sync pulls,
  // map installs, stats — bypasses admission so monitoring and
  // replication keep working while the node sheds load. Call again with
  // different options to replace the controller (buckets reset).
  void EnableAdmission(AdmissionOptions options);

  // The active controller (nullptr when admission was never enabled).
  AdmissionController* admission() { return admission_.get(); }

  // This node's own condition report for the shared-monitoring aggregator
  // (DESIGN.md Section 12): high timestamp (minimum across `table`'s
  // tablets, age 0 — it is measured right now) and the current admission
  // queue delay of `tenant`'s bucket. sample_count stays 0: a node cannot
  // measure its own round-trip latency, so the digest carries no latency
  // evidence from self-reports. Returns an empty condition (node name only)
  // when the node hosts no tablets of `table`.
  monitoring::NodeCondition SelfCondition(std::string_view table,
                                          std::string_view tenant = {});

 private:
  // A table's placement state: the installed map and the write lease of
  // whichever tablets the map makes this node lead.
  struct InstalledMap {
    tablets::TabletMap map;
    // Virtual-clock instant past which this node stops accepting writes for
    // tablets it leads (lease fencing, Section 6.2). 0 = no lease.
    MicrosecondCount lease_expiry_us = 0;
  };

  proto::Message HandleLocked(const proto::Message& request);
  proto::Message HandleTabletMapLocked(const proto::TabletMapRequest& request);
  Status SplitTabletLocked(std::string_view table, std::string_view split_key);
  bool InstallTabletMapLocked(const tablets::TabletMap& map,
                              MicrosecondCount lease_expiry_us);
  // Applies the roles the map assigns this node to hosted tablets whose
  // range matches a map entry (primary iff named primary, sync replica iff
  // listed; a non-member is demoted outright).
  void ApplyTabletMapRolesLocked(const tablets::TabletMap& map);
  // The one placement fence: non-null when the installed tablet map assigns
  // `key`'s range to other nodes (kWrongTablet, with the map version), or,
  // for writes, when this node does not lead the range or its lease has
  // lapsed (kNotPrimary). Both carry the tablet's epoch and primary as the
  // redirect hint.
  std::optional<proto::Message> CheckTabletRoutingLocked(
      std::string_view table, std::string_view key, bool write) const;
  // Stamps the reply's config_epoch/primary_hint fields (data-path replies
  // and kNotPrimary errors) from the installed map entry owning the
  // request's key; no-op when the table has no map.
  void StampPlacementLocked(const proto::Message& request,
                            proto::Message& reply) const;
  // Counts `request`/`reply` into the telemetry counters; no-op when
  // EnableTelemetry was never called. Called with mu_ held.
  void CountRequestLocked(const proto::Message& request,
                          const proto::Message& reply);
  // Runs `request` through the admission controller. Returns the rejection
  // reply when the request was shed, nullopt when it was admitted (with the
  // measured queue delay in `*decision`) or is control traffic.
  std::optional<proto::Message> AdmitLocked(const proto::Message& request,
                                            AdmitDecision* decision);
  // Stamps the reply's queue_delay_us field: the admission decision's delay
  // on data-path replies, the bucket's current delay on probe replies.
  void StampQueueDelayLocked(const proto::Message& request,
                             const AdmitDecision& decision,
                             proto::Message& reply);

  struct Instruments {
    telemetry::Counter* gets = nullptr;
    telemetry::Counter* puts = nullptr;
    telemetry::Counter* deletes = nullptr;
    telemetry::Counter* ranges = nullptr;
    telemetry::Counter* probes = nullptr;
    telemetry::Counter* syncs = nullptr;
    telemetry::Counter* snapshot_gets = nullptr;
    telemetry::Counter* commits = nullptr;
    telemetry::Counter* other = nullptr;
    telemetry::Counter* errors = nullptr;
    telemetry::Counter* not_primary = nullptr;
    telemetry::Gauge* high_timestamp_us = nullptr;
    telemetry::Gauge* log_size = nullptr;
    // Overload-control instruments (DESIGN.md Section 11).
    telemetry::Counter* admitted = nullptr;
    telemetry::Counter* shed_reads = nullptr;
    telemetry::Counter* shed_strong_reads = nullptr;
    telemetry::Counter* shed_writes = nullptr;
    telemetry::Counter* deadline_rejected = nullptr;
    telemetry::HistogramMetric* queue_delay_us = nullptr;
    // Dynamic-tablet instruments (DESIGN.md Section 14).
    telemetry::Counter* tablet_ops = nullptr;
    telemetry::Counter* wrong_tablet = nullptr;
    telemetry::Gauge* tablet_count = nullptr;
    telemetry::Gauge* tablet_bytes = nullptr;
  };

  // Refreshes the tablet count/bytes gauges; no-op without telemetry.
  void RefreshTabletGaugesLocked();

  std::string name_;
  std::string site_;
  Clock* clock_;  // Not owned.
  mutable std::mutex mu_;
  // table name -> tablets sorted by range begin.
  std::map<std::string, std::vector<std::unique_ptr<Tablet>>, std::less<>>
      tablets_;
  // table name -> installed tablet map (absent until the first install).
  std::map<std::string, InstalledMap, std::less<>> tablet_maps_;
  uint64_t requests_served_ = 0;
  Instruments instruments_;
  std::unique_ptr<AdmissionController> admission_;
};

}  // namespace pileus::storage

#endif  // PILEUS_SRC_STORAGE_STORAGE_NODE_H_
