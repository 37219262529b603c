#include "src/proto/messages.h"

#include "src/util/codec.h"
#include "src/util/crc32.h"

namespace pileus::proto {

namespace {

// Bumped when any message body layout changes. Version 2 added the CRC-32
// trailer so corrupted frames are rejected deterministically instead of
// decoding into garbage field values. Version 3 added the configuration
// piggyback (config_epoch + primary_hint) to data-path replies and the
// table-wide config install/query pair (Section 6.2). Version 4
// added the admission-control fields: tenant/deadline/utility context on
// data-path requests, queue_delay_us on data-path replies, and the
// retry_after_ms hint on ErrorReply (DESIGN.md Section 11). Version 5
// added the shared-monitoring control plane messages: MonitorReport /
// DigestSubscribe / DigestPush carrying fleet ConditionDigests (DESIGN.md
// Section 12). Version 6 added the dynamic-tablet control plane: the
// TabletMapRequest/TabletMapReply pair, the optional key-range filter on
// SyncRequest (migration catch-up pulls), and the map_version hint on
// ErrorReply for kWrongTablet fences (DESIGN.md Section 14). Version 7
// retired the table-wide config install pair (tags 19/20): failover installs
// tablet maps, so TabletMapRequest gained the write lease and TabletMapReply
// the durable timestamp that ranks promotion candidates.
constexpr uint8_t kWireVersion = 7;

// Varint-encoded microsecond counts (deadlines, queue delays) share one
// decode path so every site gets the same overflow check.
Status DecodeMicros(Decoder& dec, MicrosecondCount* out) {
  uint64_t raw;
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&raw));
  if (raw > static_cast<uint64_t>(INT64_MAX)) {
    return Status(StatusCode::kCorruption, "microsecond count overflow");
  }
  *out = static_cast<MicrosecondCount>(raw);
  return Status::Ok();
}

Status DecodeUint32(Decoder& dec, uint32_t* out, const char* what) {
  uint64_t raw;
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&raw));
  if (raw > UINT32_MAX) {
    return Status(StatusCode::kCorruption, what);
  }
  *out = static_cast<uint32_t>(raw);
  return Status::Ok();
}

void EncodeObjectVersion(Encoder& enc, const ObjectVersion& v) {
  enc.PutLengthPrefixed(v.key);
  enc.PutLengthPrefixed(v.value);
  enc.PutTimestamp(v.timestamp);
  enc.PutBool(v.is_tombstone);
}

Status DecodeObjectVersion(Decoder& dec, ObjectVersion* v) {
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&v->key));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&v->value));
  PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&v->timestamp));
  return dec.GetBool(&v->is_tombstone);
}

void EncodeBody(Encoder& enc, const GetRequest& m) {
  enc.PutLengthPrefixed(m.table);
  enc.PutLengthPrefixed(m.key);
  enc.PutLengthPrefixed(m.tenant);
  enc.PutVarint64(static_cast<uint64_t>(m.deadline_us));
  enc.PutVarint64(m.utility_micros);
  enc.PutBool(m.strong_read);
}

void EncodeBody(Encoder& enc, const GetReply& m) {
  enc.PutBool(m.found);
  enc.PutLengthPrefixed(m.value);
  enc.PutTimestamp(m.value_timestamp);
  enc.PutTimestamp(m.high_timestamp);
  enc.PutBool(m.served_by_primary);
  enc.PutVarint64(m.config_epoch);
  enc.PutLengthPrefixed(m.primary_hint);
  enc.PutVarint64(static_cast<uint64_t>(m.queue_delay_us));
}

void EncodeBody(Encoder& enc, const PutRequest& m) {
  enc.PutLengthPrefixed(m.table);
  enc.PutLengthPrefixed(m.key);
  enc.PutLengthPrefixed(m.value);
  enc.PutLengthPrefixed(m.tenant);
  enc.PutVarint64(static_cast<uint64_t>(m.deadline_us));
}

void EncodeBody(Encoder& enc, const PutReply& m) {
  enc.PutTimestamp(m.timestamp);
  enc.PutTimestamp(m.high_timestamp);
  enc.PutVarint64(m.config_epoch);
  enc.PutLengthPrefixed(m.primary_hint);
  enc.PutVarint64(static_cast<uint64_t>(m.queue_delay_us));
}

void EncodeBody(Encoder& enc, const ProbeRequest& m) {
  enc.PutLengthPrefixed(m.table);
}

void EncodeBody(Encoder& enc, const ProbeReply& m) {
  enc.PutTimestamp(m.high_timestamp);
  enc.PutBool(m.is_primary);
  enc.PutVarint64(m.config_epoch);
  enc.PutLengthPrefixed(m.primary_hint);
  enc.PutVarint64(static_cast<uint64_t>(m.queue_delay_us));
}

void EncodeBody(Encoder& enc, const SyncRequest& m) {
  enc.PutLengthPrefixed(m.table);
  enc.PutTimestamp(m.after);
  enc.PutVarint64(m.max_versions);
  enc.PutBool(m.has_range);
  enc.PutLengthPrefixed(m.range_begin);
  enc.PutLengthPrefixed(m.range_end);
}

void EncodeBody(Encoder& enc, const SyncReply& m) {
  enc.PutVarint64(m.versions.size());
  for (const ObjectVersion& v : m.versions) {
    EncodeObjectVersion(enc, v);
  }
  enc.PutTimestamp(m.heartbeat);
  enc.PutBool(m.has_more);
  enc.PutVarint64(m.config_epoch);
  enc.PutLengthPrefixed(m.primary_hint);
}

void EncodeBody(Encoder& enc, const GetAtRequest& m) {
  enc.PutLengthPrefixed(m.table);
  enc.PutLengthPrefixed(m.key);
  enc.PutTimestamp(m.snapshot);
}

void EncodeBody(Encoder& enc, const GetAtReply& m) {
  enc.PutBool(m.found);
  enc.PutLengthPrefixed(m.value);
  enc.PutTimestamp(m.value_timestamp);
  enc.PutBool(m.snapshot_available);
}

void EncodeBody(Encoder& enc, const CommitRequest& m) {
  enc.PutLengthPrefixed(m.table);
  enc.PutTimestamp(m.snapshot);
  enc.PutVarint64(m.read_keys.size());
  for (const std::string& k : m.read_keys) {
    enc.PutLengthPrefixed(k);
  }
  enc.PutVarint64(m.writes.size());
  for (const ObjectVersion& v : m.writes) {
    EncodeObjectVersion(enc, v);
  }
  enc.PutBool(m.validate_reads);
}

void EncodeBody(Encoder& enc, const CommitReply& m) {
  enc.PutBool(m.committed);
  enc.PutTimestamp(m.commit_timestamp);
  enc.PutLengthPrefixed(m.conflict_key);
}

void EncodeBody(Encoder& enc, const RangeRequest& m) {
  enc.PutLengthPrefixed(m.table);
  enc.PutLengthPrefixed(m.begin);
  enc.PutLengthPrefixed(m.end);
  enc.PutVarint64(m.limit);
  enc.PutLengthPrefixed(m.tenant);
  enc.PutVarint64(static_cast<uint64_t>(m.deadline_us));
  enc.PutVarint64(m.utility_micros);
  enc.PutBool(m.strong_read);
}

void EncodeBody(Encoder& enc, const RangeReply& m) {
  enc.PutVarint64(m.items.size());
  for (const ObjectVersion& v : m.items) {
    EncodeObjectVersion(enc, v);
  }
  enc.PutBool(m.truncated);
  enc.PutTimestamp(m.high_timestamp);
  enc.PutBool(m.served_by_primary);
  enc.PutVarint64(m.config_epoch);
  enc.PutLengthPrefixed(m.primary_hint);
  enc.PutVarint64(static_cast<uint64_t>(m.queue_delay_us));
}

void EncodeBody(Encoder& enc, const DeleteRequest& m) {
  enc.PutLengthPrefixed(m.table);
  enc.PutLengthPrefixed(m.key);
}

void EncodeBody(Encoder& enc, const StatsRequest& m) {
  enc.PutLengthPrefixed(m.format);
}

void EncodeBody(Encoder& enc, const StatsReply& m) {
  enc.PutLengthPrefixed(m.text);
}

void EncodeBody(Encoder& enc, const ErrorReply& m) {
  enc.PutVarint64(static_cast<uint64_t>(m.code));
  enc.PutLengthPrefixed(m.message);
  enc.PutVarint64(m.config_epoch);
  enc.PutLengthPrefixed(m.primary_hint);
  enc.PutVarint64(m.retry_after_ms);
  enc.PutVarint64(m.map_version);
}

void EncodeBody(Encoder& enc, const MonitorReport& m) {
  enc.PutLengthPrefixed(m.reporter);
  enc.PutVarint64(m.seq);
  enc.PutLengthPrefixed(m.table);
  enc.PutVarint64(m.conditions.size());
  for (const monitoring::NodeCondition& c : m.conditions) {
    monitoring::EncodeNodeCondition(enc, c);
  }
}

void EncodeBody(Encoder& enc, const DigestSubscribe& m) {
  enc.PutLengthPrefixed(m.table);
  enc.PutVarint64(m.have_version);
}

void EncodeBody(Encoder& enc, const DigestPush& m) {
  enc.PutBool(m.has_digest);
  monitoring::EncodeConditionDigest(enc, m.digest);
}

void EncodeBody(Encoder& enc, const TabletMapRequest& m) {
  enc.PutLengthPrefixed(m.table);
  enc.PutVarint64(m.have_version);
  enc.PutBool(m.install);
  tablets::EncodeTabletMap(enc, m.map);
  enc.PutLengthPrefixed(m.split_key);
  enc.PutVarint64(static_cast<uint64_t>(m.lease_duration_us));
}

void EncodeBody(Encoder& enc, const TabletMapReply& m) {
  enc.PutBool(m.accepted);
  enc.PutBool(m.has_map);
  tablets::EncodeTabletMap(enc, m.map);
  enc.PutTimestamp(m.durable_timestamp);
}

Status DecodeBody(Decoder& dec, GetRequest* m) {
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->table));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->key));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->tenant));
  PILEUS_RETURN_IF_ERROR(DecodeMicros(dec, &m->deadline_us));
  PILEUS_RETURN_IF_ERROR(
      DecodeUint32(dec, &m->utility_micros, "utility overflow"));
  return dec.GetBool(&m->strong_read);
}

Status DecodeBody(Decoder& dec, GetReply* m) {
  PILEUS_RETURN_IF_ERROR(dec.GetBool(&m->found));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->value));
  PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&m->value_timestamp));
  PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&m->high_timestamp));
  PILEUS_RETURN_IF_ERROR(dec.GetBool(&m->served_by_primary));
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&m->config_epoch));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->primary_hint));
  return DecodeMicros(dec, &m->queue_delay_us);
}

Status DecodeBody(Decoder& dec, PutRequest* m) {
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->table));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->key));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->value));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->tenant));
  return DecodeMicros(dec, &m->deadline_us);
}

Status DecodeBody(Decoder& dec, PutReply* m) {
  PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&m->timestamp));
  PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&m->high_timestamp));
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&m->config_epoch));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->primary_hint));
  return DecodeMicros(dec, &m->queue_delay_us);
}

Status DecodeBody(Decoder& dec, ProbeRequest* m) {
  return dec.GetLengthPrefixedString(&m->table);
}

Status DecodeBody(Decoder& dec, ProbeReply* m) {
  PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&m->high_timestamp));
  PILEUS_RETURN_IF_ERROR(dec.GetBool(&m->is_primary));
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&m->config_epoch));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->primary_hint));
  return DecodeMicros(dec, &m->queue_delay_us);
}

Status DecodeBody(Decoder& dec, SyncRequest* m) {
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->table));
  PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&m->after));
  uint64_t max_versions;
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&max_versions));
  if (max_versions > UINT32_MAX) {
    return Status(StatusCode::kCorruption, "max_versions overflow");
  }
  m->max_versions = static_cast<uint32_t>(max_versions);
  PILEUS_RETURN_IF_ERROR(dec.GetBool(&m->has_range));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->range_begin));
  return dec.GetLengthPrefixedString(&m->range_end);
}

Status DecodeBody(Decoder& dec, SyncReply* m) {
  uint64_t count;
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&count));
  // Sanity cap: a version entry needs at least 4 bytes on the wire.
  if (count > dec.remaining()) {
    return Status(StatusCode::kCorruption, "sync reply version count too big");
  }
  m->versions.resize(count);
  for (ObjectVersion& v : m->versions) {
    PILEUS_RETURN_IF_ERROR(DecodeObjectVersion(dec, &v));
  }
  PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&m->heartbeat));
  PILEUS_RETURN_IF_ERROR(dec.GetBool(&m->has_more));
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&m->config_epoch));
  return dec.GetLengthPrefixedString(&m->primary_hint);
}

Status DecodeBody(Decoder& dec, GetAtRequest* m) {
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->table));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->key));
  return dec.GetTimestamp(&m->snapshot);
}

Status DecodeBody(Decoder& dec, GetAtReply* m) {
  PILEUS_RETURN_IF_ERROR(dec.GetBool(&m->found));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->value));
  PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&m->value_timestamp));
  return dec.GetBool(&m->snapshot_available);
}

Status DecodeBody(Decoder& dec, CommitRequest* m) {
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->table));
  PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&m->snapshot));
  uint64_t reads;
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&reads));
  if (reads > dec.remaining()) {
    return Status(StatusCode::kCorruption, "commit read count too big");
  }
  m->read_keys.resize(reads);
  for (std::string& k : m->read_keys) {
    PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&k));
  }
  uint64_t writes;
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&writes));
  if (writes > dec.remaining()) {
    return Status(StatusCode::kCorruption, "commit write count too big");
  }
  m->writes.resize(writes);
  for (ObjectVersion& v : m->writes) {
    PILEUS_RETURN_IF_ERROR(DecodeObjectVersion(dec, &v));
  }
  return dec.GetBool(&m->validate_reads);
}

Status DecodeBody(Decoder& dec, CommitReply* m) {
  PILEUS_RETURN_IF_ERROR(dec.GetBool(&m->committed));
  PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&m->commit_timestamp));
  return dec.GetLengthPrefixedString(&m->conflict_key);
}

Status DecodeBody(Decoder& dec, RangeRequest* m) {
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->table));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->begin));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->end));
  uint64_t limit;
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&limit));
  if (limit > UINT32_MAX) {
    return Status(StatusCode::kCorruption, "range limit overflow");
  }
  m->limit = static_cast<uint32_t>(limit);
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->tenant));
  PILEUS_RETURN_IF_ERROR(DecodeMicros(dec, &m->deadline_us));
  PILEUS_RETURN_IF_ERROR(
      DecodeUint32(dec, &m->utility_micros, "utility overflow"));
  return dec.GetBool(&m->strong_read);
}

Status DecodeBody(Decoder& dec, RangeReply* m) {
  uint64_t count;
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&count));
  if (count > dec.remaining()) {
    return Status(StatusCode::kCorruption, "range reply count too big");
  }
  m->items.resize(count);
  for (ObjectVersion& v : m->items) {
    PILEUS_RETURN_IF_ERROR(DecodeObjectVersion(dec, &v));
  }
  PILEUS_RETURN_IF_ERROR(dec.GetBool(&m->truncated));
  PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&m->high_timestamp));
  PILEUS_RETURN_IF_ERROR(dec.GetBool(&m->served_by_primary));
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&m->config_epoch));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->primary_hint));
  return DecodeMicros(dec, &m->queue_delay_us);
}

Status DecodeBody(Decoder& dec, DeleteRequest* m) {
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->table));
  return dec.GetLengthPrefixedString(&m->key);
}

Status DecodeBody(Decoder& dec, StatsRequest* m) {
  return dec.GetLengthPrefixedString(&m->format);
}

Status DecodeBody(Decoder& dec, StatsReply* m) {
  return dec.GetLengthPrefixedString(&m->text);
}

Status DecodeBody(Decoder& dec, ErrorReply* m) {
  uint64_t code;
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&code));
  if (code > static_cast<uint64_t>(kMaxStatusCode)) {
    return Status(StatusCode::kCorruption, "unknown status code");
  }
  m->code = static_cast<StatusCode>(code);
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->message));
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&m->config_epoch));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->primary_hint));
  PILEUS_RETURN_IF_ERROR(
      DecodeUint32(dec, &m->retry_after_ms, "retry_after overflow"));
  return dec.GetVarint64(&m->map_version);
}

Status DecodeBody(Decoder& dec, MonitorReport* m) {
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->reporter));
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&m->seq));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->table));
  uint64_t count;
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&count));
  if (count > dec.remaining()) {
    return Status(StatusCode::kCorruption, "report condition count too big");
  }
  m->conditions.resize(count);
  for (monitoring::NodeCondition& c : m->conditions) {
    PILEUS_RETURN_IF_ERROR(monitoring::DecodeNodeCondition(dec, &c));
  }
  return Status::Ok();
}

Status DecodeBody(Decoder& dec, DigestSubscribe* m) {
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->table));
  return dec.GetVarint64(&m->have_version);
}

Status DecodeBody(Decoder& dec, DigestPush* m) {
  PILEUS_RETURN_IF_ERROR(dec.GetBool(&m->has_digest));
  return monitoring::DecodeConditionDigest(dec, &m->digest);
}

Status DecodeBody(Decoder& dec, TabletMapRequest* m) {
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->table));
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&m->have_version));
  PILEUS_RETURN_IF_ERROR(dec.GetBool(&m->install));
  PILEUS_RETURN_IF_ERROR(tablets::DecodeTabletMap(dec, &m->map));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->split_key));
  return DecodeMicros(dec, &m->lease_duration_us);
}

Status DecodeBody(Decoder& dec, TabletMapReply* m) {
  PILEUS_RETURN_IF_ERROR(dec.GetBool(&m->accepted));
  PILEUS_RETURN_IF_ERROR(dec.GetBool(&m->has_map));
  PILEUS_RETURN_IF_ERROR(tablets::DecodeTabletMap(dec, &m->map));
  return dec.GetTimestamp(&m->durable_timestamp);
}

template <typename T>
Result<Message> DecodeInto(Decoder& dec) {
  T m;
  Status st = DecodeBody(dec, &m);
  if (!st.ok()) {
    return st;
  }
  if (!dec.AtEnd()) {
    return Status(StatusCode::kCorruption, "trailing bytes after message");
  }
  return Message(std::move(m));
}

}  // namespace

MessageType TypeOf(const Message& message) {
  return std::visit(
      [](const auto& m) -> MessageType {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, GetRequest>) {
          return MessageType::kGetRequest;
        } else if constexpr (std::is_same_v<T, GetReply>) {
          return MessageType::kGetReply;
        } else if constexpr (std::is_same_v<T, PutRequest>) {
          return MessageType::kPutRequest;
        } else if constexpr (std::is_same_v<T, PutReply>) {
          return MessageType::kPutReply;
        } else if constexpr (std::is_same_v<T, ProbeRequest>) {
          return MessageType::kProbeRequest;
        } else if constexpr (std::is_same_v<T, ProbeReply>) {
          return MessageType::kProbeReply;
        } else if constexpr (std::is_same_v<T, SyncRequest>) {
          return MessageType::kSyncRequest;
        } else if constexpr (std::is_same_v<T, SyncReply>) {
          return MessageType::kSyncReply;
        } else if constexpr (std::is_same_v<T, GetAtRequest>) {
          return MessageType::kGetAtRequest;
        } else if constexpr (std::is_same_v<T, GetAtReply>) {
          return MessageType::kGetAtReply;
        } else if constexpr (std::is_same_v<T, CommitRequest>) {
          return MessageType::kCommitRequest;
        } else if constexpr (std::is_same_v<T, CommitReply>) {
          return MessageType::kCommitReply;
        } else if constexpr (std::is_same_v<T, RangeRequest>) {
          return MessageType::kRangeRequest;
        } else if constexpr (std::is_same_v<T, RangeReply>) {
          return MessageType::kRangeReply;
        } else if constexpr (std::is_same_v<T, DeleteRequest>) {
          return MessageType::kDeleteRequest;
        } else if constexpr (std::is_same_v<T, StatsRequest>) {
          return MessageType::kStatsRequest;
        } else if constexpr (std::is_same_v<T, StatsReply>) {
          return MessageType::kStatsReply;
        } else if constexpr (std::is_same_v<T, MonitorReport>) {
          return MessageType::kMonitorReport;
        } else if constexpr (std::is_same_v<T, DigestSubscribe>) {
          return MessageType::kDigestSubscribe;
        } else if constexpr (std::is_same_v<T, DigestPush>) {
          return MessageType::kDigestPush;
        } else if constexpr (std::is_same_v<T, TabletMapRequest>) {
          return MessageType::kTabletMapRequest;
        } else if constexpr (std::is_same_v<T, TabletMapReply>) {
          return MessageType::kTabletMapReply;
        } else {
          return MessageType::kErrorReply;
        }
      },
      message);
}

bool IsDataPathRequest(const Message& message) {
  switch (TypeOf(message)) {
    case MessageType::kGetRequest:
    case MessageType::kGetAtRequest:
    case MessageType::kRangeRequest:
    case MessageType::kPutRequest:
    case MessageType::kDeleteRequest:
    case MessageType::kCommitRequest:
      return true;
    default:
      return false;
  }
}

Message MakeOverloadedReply(uint32_t retry_after_ms) {
  ErrorReply reply;
  reply.code = StatusCode::kOverloaded;
  reply.message = "request shed by overload fault injection";
  reply.retry_after_ms = retry_after_ms;
  return reply;
}

std::string_view MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kGetRequest:
      return "GetRequest";
    case MessageType::kGetReply:
      return "GetReply";
    case MessageType::kPutRequest:
      return "PutRequest";
    case MessageType::kPutReply:
      return "PutReply";
    case MessageType::kProbeRequest:
      return "ProbeRequest";
    case MessageType::kProbeReply:
      return "ProbeReply";
    case MessageType::kSyncRequest:
      return "SyncRequest";
    case MessageType::kSyncReply:
      return "SyncReply";
    case MessageType::kGetAtRequest:
      return "GetAtRequest";
    case MessageType::kGetAtReply:
      return "GetAtReply";
    case MessageType::kCommitRequest:
      return "CommitRequest";
    case MessageType::kCommitReply:
      return "CommitReply";
    case MessageType::kErrorReply:
      return "ErrorReply";
    case MessageType::kRangeRequest:
      return "RangeRequest";
    case MessageType::kRangeReply:
      return "RangeReply";
    case MessageType::kDeleteRequest:
      return "DeleteRequest";
    case MessageType::kStatsRequest:
      return "StatsRequest";
    case MessageType::kStatsReply:
      return "StatsReply";
    case MessageType::kMonitorReport:
      return "MonitorReport";
    case MessageType::kDigestSubscribe:
      return "DigestSubscribe";
    case MessageType::kDigestPush:
      return "DigestPush";
    case MessageType::kTabletMapRequest:
      return "TabletMapRequest";
    case MessageType::kTabletMapReply:
      return "TabletMapReply";
  }
  return "Unknown";
}

std::string EncodeMessage(const Message& message) {
  Encoder enc;
  enc.PutUint8(static_cast<uint8_t>(TypeOf(message)));
  enc.PutUint8(kWireVersion);
  std::visit([&enc](const auto& m) { EncodeBody(enc, m); }, message);
  // CRC-32 trailer over everything above; a flipped byte anywhere in the
  // frame (type, version, or body) fails the check on decode.
  std::string out = enc.Release();
  const uint32_t crc = Crc32(out);
  Encoder trailer;
  trailer.PutFixed32(crc);
  out += trailer.buffer();
  return out;
}

Result<Message> DecodeMessage(std::string_view bytes) {
  if (bytes.size() < 4) {
    return Status(StatusCode::kCorruption, "frame shorter than its checksum");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - 4);
  {
    Decoder crc_dec(bytes.substr(bytes.size() - 4));
    uint32_t stored_crc = 0;
    PILEUS_RETURN_IF_ERROR(crc_dec.GetFixed32(&stored_crc));
    if (Crc32(body) != stored_crc) {
      return Status(StatusCode::kCorruption, "message checksum mismatch");
    }
  }
  Decoder dec(body);
  uint8_t type_byte;
  Status st = dec.GetUint8(&type_byte);
  if (!st.ok()) {
    return st;
  }
  uint8_t version;
  st = dec.GetUint8(&version);
  if (!st.ok()) {
    return st;
  }
  if (version != kWireVersion) {
    return Status(StatusCode::kCorruption, "unsupported wire version");
  }
  switch (static_cast<MessageType>(type_byte)) {
    case MessageType::kGetRequest:
      return DecodeInto<GetRequest>(dec);
    case MessageType::kGetReply:
      return DecodeInto<GetReply>(dec);
    case MessageType::kPutRequest:
      return DecodeInto<PutRequest>(dec);
    case MessageType::kPutReply:
      return DecodeInto<PutReply>(dec);
    case MessageType::kProbeRequest:
      return DecodeInto<ProbeRequest>(dec);
    case MessageType::kProbeReply:
      return DecodeInto<ProbeReply>(dec);
    case MessageType::kSyncRequest:
      return DecodeInto<SyncRequest>(dec);
    case MessageType::kSyncReply:
      return DecodeInto<SyncReply>(dec);
    case MessageType::kGetAtRequest:
      return DecodeInto<GetAtRequest>(dec);
    case MessageType::kGetAtReply:
      return DecodeInto<GetAtReply>(dec);
    case MessageType::kCommitRequest:
      return DecodeInto<CommitRequest>(dec);
    case MessageType::kCommitReply:
      return DecodeInto<CommitReply>(dec);
    case MessageType::kErrorReply:
      return DecodeInto<ErrorReply>(dec);
    case MessageType::kRangeRequest:
      return DecodeInto<RangeRequest>(dec);
    case MessageType::kRangeReply:
      return DecodeInto<RangeReply>(dec);
    case MessageType::kDeleteRequest:
      return DecodeInto<DeleteRequest>(dec);
    case MessageType::kStatsRequest:
      return DecodeInto<StatsRequest>(dec);
    case MessageType::kStatsReply:
      return DecodeInto<StatsReply>(dec);
    case MessageType::kMonitorReport:
      return DecodeInto<MonitorReport>(dec);
    case MessageType::kDigestSubscribe:
      return DecodeInto<DigestSubscribe>(dec);
    case MessageType::kDigestPush:
      return DecodeInto<DigestPush>(dec);
    case MessageType::kTabletMapRequest:
      return DecodeInto<TabletMapRequest>(dec);
    case MessageType::kTabletMapReply:
      return DecodeInto<TabletMapReply>(dec);
  }
  return Status(StatusCode::kCorruption, "unknown message type");
}

}  // namespace pileus::proto
