// Storage protocol messages.
//
// Every interaction between the client library, the replication agents, and
// storage nodes uses these request/reply pairs:
//
//   Get    - read a key; the reply carries the node's high timestamp, which
//            the client needs to decide which consistency (and hence which
//            subSLA) was actually delivered (paper Section 4.3, 4.6.2).
//   Put    - write a key; only the tablet's primary accepts it and assigns
//            the update timestamp (Section 4.2).
//   Probe  - monitor ping; returns the node's high timestamp and measures RTT
//            (Section 4.5).
//   Sync   - replication pull: "send versions with timestamps above X, in
//            timestamp order"; an empty reply still advances the secondary's
//            high timestamp via the heartbeat field (Section 4.3).
//   GetAt  - snapshot read at a given timestamp (transactions, tech report
//            [38]); served from the node's bounded version history.
//   Commit - atomic multi-key transactional commit with write-write conflict
//            validation against the snapshot timestamp.
//
// Messages are encoded with src/util/codec.h; every message starts with a
// format version byte so the wire format can evolve.

#ifndef PILEUS_SRC_PROTO_MESSAGES_H_
#define PILEUS_SRC_PROTO_MESSAGES_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/timestamp.h"
#include "src/monitoring/digest.h"
#include "src/reconfig/config_epoch.h"
#include "src/tablets/tablet_map.h"

namespace pileus::proto {

enum class MessageType : uint8_t {
  kGetRequest = 1,
  kGetReply = 2,
  kPutRequest = 3,
  kPutReply = 4,
  kProbeRequest = 5,
  kProbeReply = 6,
  kSyncRequest = 7,
  kSyncReply = 8,
  kGetAtRequest = 9,
  kGetAtReply = 10,
  kCommitRequest = 11,
  kCommitReply = 12,
  kErrorReply = 13,
  kRangeRequest = 14,
  kRangeReply = 15,
  kDeleteRequest = 16,  // Replied to with a PutReply (a delete is a write).
  kStatsRequest = 17,
  kStatsReply = 18,
  // 19 and 20 are retired: they carried the table-wide config install,
  // which failover replaced with tablet-map installs. Decoders reject them.
  kMonitorReport = 21,
  kDigestSubscribe = 22,
  kDigestPush = 23,
  kTabletMapRequest = 24,
  kTabletMapReply = 25,
};

// One version of one object: the tablet-store tuple of Section 4.3.
// A tombstone records a deletion: it occupies a position in the timestamp
// order (so replication and session guarantees treat deletes like any other
// write) but carries no value.
struct ObjectVersion {
  std::string key;
  std::string value;
  Timestamp timestamp;
  bool is_tombstone = false;

  bool operator==(const ObjectVersion&) const = default;
};

struct GetRequest {
  std::string table;
  std::string key;
  // Admission-control context (DESIGN.md Section 11). `tenant` names the
  // token bucket the request draws from (empty = the table's default bucket).
  // `deadline_us` is the client's remaining latency budget; a node whose
  // queue delay already exceeds it rejects instead of serving a useless
  // reply. `utility_micros` is the utility of the subSLA rank the client is
  // targeting, in millionths (1'000'000 = utility 1.0): under pressure the
  // node sheds low-utility reads first. `strong_read` marks reads the client
  // issued to meet an authoritative-only guarantee; they are protected until
  // the queue is nearly full, like writes.
  std::string tenant;
  MicrosecondCount deadline_us = 0;  // 0 = no deadline.
  uint32_t utility_micros = 1'000'000;
  bool strong_read = false;
};

struct GetReply {
  bool found = false;
  std::string value;
  Timestamp value_timestamp;       // Update timestamp of the returned version.
  Timestamp high_timestamp;        // Node's high timestamp (Section 4.3).
  bool served_by_primary = false;  // Lets clients skip redundant strong reads
                                   // (Section 2.3 speculative pattern).
  // Configuration piggyback (Section 6.2): the epoch and primary of the
  // tablet that owns the key in the serving node's installed tablet map.
  // 0/empty when the node never installed a map (legacy static placement).
  uint64_t config_epoch = 0;
  std::string primary_hint;
  // Server-measured admission queue delay at serve time: how far behind its
  // admitted-op budget the node was (DESIGN.md Section 11). Clients feed it
  // to the monitor so selection can steer around queuing replicas before
  // they start shedding.
  MicrosecondCount queue_delay_us = 0;
};

struct PutRequest {
  std::string table;
  std::string key;
  std::string value;
  // Admission-control context; see GetRequest. Writes carry no utility or
  // strong-read marker because they are always shed last.
  std::string tenant;
  MicrosecondCount deadline_us = 0;  // 0 = no deadline.
};

struct PutReply {
  Timestamp timestamp;       // Update timestamp assigned by the primary.
  Timestamp high_timestamp;  // Primary's high timestamp after the Put.
  uint64_t config_epoch = 0;  // Owning tablet's epoch (0 = no map).
  std::string primary_hint;   // That tablet's primary.
  MicrosecondCount queue_delay_us = 0;  // Admission queue delay at serve time.
};

struct ProbeRequest {
  std::string table;
};

struct ProbeReply {
  Timestamp high_timestamp;
  bool is_primary = false;
  uint64_t config_epoch = 0;  // Owning tablet's epoch (0 = no map).
  std::string primary_hint;   // That tablet's primary.
  // Current admission queue delay for the probed table's bucket, so monitors
  // learn about building pressure even between data-path replies.
  MicrosecondCount queue_delay_us = 0;
};

struct SyncRequest {
  std::string table;
  Timestamp after;          // Send versions with timestamp > after.
  uint32_t max_versions = 0;  // 0 = unlimited.
  // Optional key-range filter (wire v6): a migration catch-up pull wants
  // exactly one tablet's versions, not the whole table. Empty range with
  // has_range=false preserves the whole-table pull.
  bool has_range = false;
  std::string range_begin;
  std::string range_end;
};

struct SyncReply {
  std::vector<ObjectVersion> versions;  // In ascending timestamp order.
  // Everything with timestamp <= heartbeat has been included (or was sent
  // earlier); the receiver may advance its high timestamp to this value even
  // when `versions` is empty (idle-primary heartbeat, Section 4.3).
  Timestamp heartbeat;
  bool has_more = false;
  uint64_t config_epoch = 0;  // Owning tablet's epoch (0 = no map).
  std::string primary_hint;   // That tablet's primary.
};

struct GetAtRequest {
  std::string table;
  std::string key;
  Timestamp snapshot;  // Return the latest version with timestamp <= snapshot.
};

struct GetAtReply {
  bool found = false;
  std::string value;
  Timestamp value_timestamp;
  // False when the node's history no longer reaches back to the snapshot.
  bool snapshot_available = true;
};

struct CommitRequest {
  std::string table;
  Timestamp snapshot;                   // Transaction snapshot timestamp.
  std::vector<std::string> read_keys;   // For optional read validation.
  std::vector<ObjectVersion> writes;    // Timestamps ignored on input.
  bool validate_reads = false;
};

struct CommitReply {
  bool committed = false;
  Timestamp commit_timestamp;           // Timestamp of all writes if committed.
  std::string conflict_key;             // First conflicting key if aborted.
};

struct ErrorReply {
  StatusCode code = StatusCode::kInternal;
  std::string message;
  // For kNotPrimary the epoch and primary of the key's tablet in the node's
  // installed map: enough for the client to redirect the write without a
  // directory lookup. 0/empty on other errors or when no map is installed.
  uint64_t config_epoch = 0;
  std::string primary_hint;
  // For kOverloaded: how long the shedding node expects to need before its
  // queue drains below the rejected class's threshold. Clients back off at
  // least this long before retrying the same node. 0 on other errors.
  uint32_t retry_after_ms = 0;
  // For kWrongTablet: the version of the tablet map installed on the fencing
  // node, so the client knows whether a TabletMapRequest will teach it
  // anything new. `primary_hint` then names the fenced range's owner. 0 on
  // other errors (wire v6).
  uint64_t map_version = 0;
};

// Deletes a key by writing a tombstone at the primary. Answered with a
// PutReply carrying the tombstone's update timestamp.
struct DeleteRequest {
  std::string table;
  std::string key;
};

// Range scan over [begin, end) in key order; `end` empty = unbounded.
struct RangeRequest {
  std::string table;
  std::string begin;
  std::string end;
  uint32_t limit = 0;  // 0 = unlimited.
  // Admission-control context; see GetRequest.
  std::string tenant;
  MicrosecondCount deadline_us = 0;  // 0 = no deadline.
  uint32_t utility_micros = 1'000'000;
  bool strong_read = false;
};

struct RangeReply {
  std::vector<ObjectVersion> items;  // Latest versions, ascending key order.
  bool truncated = false;            // The limit cut the scan short.
  // Staleness bound for the *whole* scan: the minimum high timestamp across
  // the tablets that served it.
  Timestamp high_timestamp;
  bool served_by_primary = false;
  uint64_t config_epoch = 0;  // Owning tablet's epoch (0 = no map).
  std::string primary_hint;   // That tablet's primary.
  MicrosecondCount queue_delay_us = 0;  // Admission queue delay at serve time.
};

// Asks a server process for its telemetry in the given export format
// ("summary", "prometheus", or "json"; unknown values fall back to summary).
// Served by the pileus_server daemon wrapper, not by StorageNode itself —
// a bare node answers with an ErrorReply.
struct StatsRequest {
  std::string format;
};

struct StatsReply {
  std::string text;  // Rendered export in the requested format.
};

// Shared-monitoring control plane (DESIGN.md Section 12, paper Section 6.1).
// A reporter (client Monitor or storage node) ships its per-node condition
// summaries to an aggregator; `seq` is the reporter's monotonic state
// version, so duplicated or reordered reports are rejected instead of
// regressing the merged fleet view. Answered with a DigestPush.
struct MonitorReport {
  std::string reporter;
  uint64_t seq = 0;
  std::string table;
  std::vector<monitoring::NodeCondition> conditions;
};

// Asks the aggregator for the fleet digest when it is newer than
// `have_version`. Answered with a DigestPush (has_digest = false when the
// subscriber is already current).
struct DigestSubscribe {
  std::string table;
  uint64_t have_version = 0;
};

// The aggregator's versioned fleet view, pushed in answer to reports and
// subscriptions. Clients install it as a selection prior
// (core::Monitor::InstallDigest).
struct DigestPush {
  bool has_digest = false;
  monitoring::ConditionDigest digest;
};

// Tablet-map control plane (DESIGN.md Section 14). Asks a storage node (or
// the coordinator) for its installed tablet map when it is newer than
// `have_version`; answered with a TabletMapReply. Control traffic: exempt
// from admission, so fenced clients can always re-route.
struct TabletMapRequest {
  std::string table;
  uint64_t have_version = 0;
  // Install request (coordinator → storage node): adopt `map` when it is not
  // older than the installed one. Queries leave this false. A same-version
  // re-install is how a failover coordinator heartbeats (Section 6.2).
  bool install = false;
  tablets::TabletMap map;  // Meaningful only for installs.
  // Write lease granted with an accepted install to a node that leads a
  // tablet in `map`, measured from receipt; a re-install renews it. Past it
  // the node answers writes with kNotPrimary. 0 = no lease (the role never
  // self-fences; used without a failover coordinator).
  MicrosecondCount lease_duration_us = 0;
  // Admin verb (pileus_cli): when non-empty, split the hosted tablet
  // containing this key before answering. Purely local — a
  // coordinator-managed fleet splits through its coordinator instead, which
  // also retiles the map.
  std::string split_key;
};

struct TabletMapReply {
  // For installs: the map was adopted (or already installed). Queries always
  // accept.
  bool accepted = false;
  // False when the node has no map newer than `have_version` (the map field
  // is then default-constructed).
  bool has_map = false;
  tablets::TabletMap map;
  // Newest update timestamp this node has durably applied across the
  // table's tablets; drives the failover coordinator's promotion choice
  // (highest durable tail wins).
  Timestamp durable_timestamp;
};

using Message =
    std::variant<GetRequest, GetReply, PutRequest, PutReply, ProbeRequest,
                 ProbeReply, SyncRequest, SyncReply, GetAtRequest, GetAtReply,
                 CommitRequest, CommitReply, ErrorReply, RangeRequest,
                 RangeReply, DeleteRequest, StatsRequest, StatsReply,
                 MonitorReport, DigestSubscribe, DigestPush, TabletMapRequest,
                 TabletMapReply>;

MessageType TypeOf(const Message& message);
std::string_view MessageTypeName(MessageType type);

// True for request types admission control governs (Get / GetAt / Range /
// Put / Delete / Commit). Control traffic — probes, sync pulls, map
// installs, stats — is exempt, so monitoring and replication keep working
// while a node sheds load. Fault-injecting transports use this to decide
// which messages an overload rule may shed (DESIGN.md Section 11).
bool IsDataPathRequest(const Message& message);

// The rejection an overloaded node answers a shed request with.
Message MakeOverloadedReply(uint32_t retry_after_ms);

// Serializes `message` (type tag + version + body) into a byte string.
std::string EncodeMessage(const Message& message);

// Parses a byte string produced by EncodeMessage.
Result<Message> DecodeMessage(std::string_view bytes);

}  // namespace pileus::proto

#endif  // PILEUS_SRC_PROTO_MESSAGES_H_
