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
// added the fleet-monitoring messages, tags 21 to 23. They were retired
// later without a bump, since no other message's bytes changed. Version 6
// added the dynamic-tablet control plane: the TabletMapRequest /
// TabletMapReply pair, the optional key-range filter on SyncRequest
// (then for migration catch-up pulls, now for ranged agents), and the
// map_version hint on ErrorReply for kWrongTablet fences. Version 7 retired
// the table-wide config install pair (tags 19/20): failover installs
// tablet maps, so TabletMapRequest gained the write lease and TabletMapReply
// the durable timestamp that ranks promotion candidates. Version 8 retired
// the dynamic-tablet fields: TabletMapRequest's split key, TabletMap's
// coordinator epoch and TabletInfo's ops/s.
constexpr uint8_t kWireVersion = 8;

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

size_t VarintBytes(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) {
    ++n;
  }
  return n;
}

// What AppendMessage adds besides a message's strings and versions: the type
// and version bytes, the CRC, and the fixed fields at their widest.
constexpr size_t kFixedFieldsBytes = 64;

// A version's two length-prefixed strings, its timestamp at its widest
// (10 + 5 bytes) and its tombstone flag.
size_t VersionSizeBound(const ObjectVersion& v) {
  return VarintBytes(v.key.size()) + v.key.size() +
         VarintBytes(v.value.size()) + v.value.size() + 16;
}

// How many bytes AppendMessage will append, read from the lengths of the
// strings a message carries, so a frame's buffer is allocated once instead of
// doubling up from a small reserve. Upper bounds for scan and pull replies; a
// short guess for small messages, which at worst regrow once.
size_t EncodedSizeHint(const RangeReply& m) {
  size_t n = kFixedFieldsBytes + m.primary_hint.size();
  for (const VersionPtr& v : m.items) {
    n += VersionSizeBound(*v);
  }
  return n;
}

size_t EncodedSizeHint(const SyncReply& m) {
  size_t n = kFixedFieldsBytes + m.primary_hint.size();
  for (const ObjectVersion& v : m.versions) {
    n += VersionSizeBound(v);
  }
  return n;
}

size_t EncodedSizeHint(const GetReply& m) {
  return kFixedFieldsBytes + m.value.size() + m.primary_hint.size();
}

size_t EncodedSizeHint(const PutRequest& m) {
  return kFixedFieldsBytes + m.table.size() + m.key.size() + m.value.size() +
         m.tenant.size();
}

template <typename T>
size_t EncodedSizeHint(const T&) {
  return kFixedFieldsBytes;
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
  for (const VersionPtr& v : m.items) {
    EncodeObjectVersion(enc, *v);
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

void EncodeBody(Encoder& enc, const TabletMapRequest& m) {
  enc.PutLengthPrefixed(m.table);
  enc.PutVarint64(m.have_version);
  enc.PutBool(m.install);
  tablets::EncodeTabletMap(enc, m.map);
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
  if (count == 0) {
    m->items.clear();
  } else {
    // One block holds every item and the list aliases into it, so a decoded
    // reply allocates per item only what the item's strings need.
    auto block = std::make_shared<ObjectVersion[]>(count);
    m->items.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      PILEUS_RETURN_IF_ERROR(DecodeObjectVersion(dec, &block[i]));
      m->items.emplace_back(block, &block[i]);
    }
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
  if (!IsStatusCode(code)) {
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

Status DecodeBody(Decoder& dec, TabletMapRequest* m) {
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&m->table));
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&m->have_version));
  PILEUS_RETURN_IF_ERROR(dec.GetBool(&m->install));
  PILEUS_RETURN_IF_ERROR(tablets::DecodeTabletMap(dec, &m->map));
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
    case MessageType::kRangeRequest:
    case MessageType::kPutRequest:
    case MessageType::kDeleteRequest:
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
    case MessageType::kTabletMapRequest:
      return "TabletMapRequest";
    case MessageType::kTabletMapReply:
      return "TabletMapReply";
  }
  return "Unknown";
}

void AppendMessage(const Message& message, std::string* out) {
  const size_t start = out->size();
  out->reserve(start + std::visit(
                           [](const auto& m) { return EncodedSizeHint(m); },
                           message));
  Encoder enc(std::move(*out));
  enc.PutUint8(static_cast<uint8_t>(TypeOf(message)));
  enc.PutUint8(kWireVersion);
  std::visit([&enc](const auto& m) { EncodeBody(enc, m); }, message);
  // CRC-32 trailer over everything this call appended; a flipped byte
  // anywhere in the message (type, version, or body) fails the check on
  // decode.
  enc.PutFixed32(Crc32(std::string_view(enc.buffer()).substr(start)));
  *out = enc.Release();
}

std::string EncodeMessage(const Message& message) {
  std::string out;
  AppendMessage(message, &out);
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
  uint8_t type_byte = 0;
  Status st = dec.GetUint8(&type_byte);
  if (!st.ok()) {
    return st;
  }
  uint8_t version = 0;
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
    case MessageType::kTabletMapRequest:
      return DecodeInto<TabletMapRequest>(dec);
    case MessageType::kTabletMapReply:
      return DecodeInto<TabletMapReply>(dec);
  }
  return Status(StatusCode::kCorruption, "unknown message type");
}

}  // namespace pileus::proto
