#include "src/core/session.h"

#include <algorithm>
#include <atomic>

#include "src/util/codec.h"

namespace pileus::core {

namespace {

// Bumped when the serialized session layout changes. Version 2 added the
// session id right after the version byte; version 3 added a client-cache
// floor after the causal maxima, and version 4 dropped it again.
constexpr uint8_t kSessionWireVersion = 4;

template <typename Map>
void EncodeTimestampMap(Encoder& enc, const Map& map) {
  enc.PutVarint64(map.size());
  for (const auto& [key, timestamp] : map) {
    enc.PutLengthPrefixed(key);
    enc.PutTimestamp(timestamp);
  }
}

template <typename Map>
Status DecodeTimestampMap(Decoder& dec, Map* map) {
  uint64_t count = 0;
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&count));
  if (count > dec.remaining()) {
    return Status(StatusCode::kCorruption, "session map count too large");
  }
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    Timestamp timestamp;
    PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&key));
    PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&timestamp));
    // A key listed twice keeps its last timestamp.
    auto it = map->lower_bound(std::string_view(key));
    if (it != map->end() && it->first == std::string_view(key)) {
      it->second = timestamp;
    } else {
      map->emplace_hint(it, key, timestamp);
    }
  }
  return Status::Ok();
}

}  // namespace

Session::Session(const Session& other)
    : default_sla_(other.default_sla_),
      id_(other.id_),
      keys_(std::make_unique<KeyMaps>(*other.keys_)),
      max_read_(other.max_read_),
      max_write_(other.max_write_) {}

Session& Session::operator=(const Session& other) {
  if (this != &other) {
    *this = Session(other);
  }
  return *this;
}

uint64_t Session::NextId() {
  static std::atomic<uint64_t> next_id{1};
  return next_id.fetch_add(1, std::memory_order_relaxed);
}

Timestamp Session::MinReadTimestamp(const Guarantee& guarantee,
                                    std::string_view key,
                                    MicrosecondCount now_us) const {
  switch (guarantee.consistency) {
    case Consistency::kStrong:
      // Strong reads go to an authoritative copy; no secondary qualifies
      // regardless of its high timestamp.
      return Timestamp::Max();
    case Consistency::kCausal:
      // Maximum timestamp of anything read or written in this session.
      return MaxTimestamp(max_read_, max_write_);
    case Consistency::kBounded:
      return Timestamp{std::max<MicrosecondCount>(0, now_us -
                                                         guarantee.bound_us),
                       0};
    case Consistency::kReadMyWrites:
      return LastPutTimestamp(key);
    case Consistency::kMonotonic:
      return LastGetTimestamp(key);
    case Consistency::kEventual:
      return Timestamp::Zero();
  }
  return Timestamp::Zero();
}

Timestamp Session::MinReadTimestampForScan(const Guarantee& guarantee,
                                           MicrosecondCount now_us) const {
  switch (guarantee.consistency) {
    case Consistency::kStrong:
      return Timestamp::Max();
    case Consistency::kCausal:
      return MaxTimestamp(max_read_, max_write_);
    case Consistency::kBounded:
      return Timestamp{std::max<MicrosecondCount>(0, now_us -
                                                         guarantee.bound_us),
                       0};
    case Consistency::kReadMyWrites:
      return max_write_;
    case Consistency::kMonotonic:
      return max_read_;
    case Consistency::kEventual:
      return Timestamp::Zero();
  }
  return Timestamp::Zero();
}

Session::TimestampMap::iterator Session::Raise(TimestampMap& map,
                                               std::string_view key,
                                               const Timestamp& timestamp) {
  auto it = map.lower_bound(key);
  if (it != map.end() && it->first == key) {
    it->second = MaxTimestamp(it->second, timestamp);
    return it;
  }
  return map.emplace_hint(it, key, timestamp);
}

void Session::RecordPut(std::string_view key, const Timestamp& timestamp) {
  Raise(keys_->puts, key, timestamp);
  max_write_ = MaxTimestamp(max_write_, timestamp);
}

void Session::RecordGet(std::string_view key,
                        const Timestamp& version_timestamp) {
  Raise(keys_->gets, key, version_timestamp);
  max_read_ = MaxTimestamp(max_read_, version_timestamp);
}

void Session::RecordScan(std::span<const proto::VersionPtr> items) {
  TimestampMap& gets = keys_->gets;
  // The entry of the previous item; end() until the first is placed.
  auto previous = gets.end();
  for (const proto::VersionPtr& shared : items) {
    const proto::ObjectVersion& item = *shared;
    const std::string_view key = item.key;
    // Where the key sits: the entry after the previous one when the keys
    // ascend with no recorded key between them, else a fresh lookup.
    auto next = previous == gets.end() ? previous : std::next(previous);
    const bool in_order =
        previous != gets.end() && previous->first < key &&
        (next == gets.end() || key <= next->first);
    if (!in_order) {
      next = gets.lower_bound(key);
    }
    if (next != gets.end() && next->first == key) {
      next->second = MaxTimestamp(next->second, item.timestamp);
      previous = next;
    } else {
      previous = gets.emplace_hint(next, key, item.timestamp);
    }
    max_read_ = MaxTimestamp(max_read_, item.timestamp);
  }
}

std::string Session::Serialize() const {
  Encoder enc;
  enc.PutUint8(kSessionWireVersion);
  enc.PutVarint64(id_);
  // The default SLA travels with the session.
  enc.PutVarint64(default_sla_.size());
  for (const SubSla& sub : default_sla_.subslas()) {
    enc.PutUint8(static_cast<uint8_t>(sub.consistency.consistency));
    enc.PutVarintSigned64(sub.consistency.bound_us);
    enc.PutVarintSigned64(sub.latency_us);
    enc.PutDouble(sub.utility);
  }
  EncodeTimestampMap(enc, keys_->puts);
  EncodeTimestampMap(enc, keys_->gets);
  enc.PutTimestamp(max_read_);
  enc.PutTimestamp(max_write_);
  return enc.Release();
}

Result<Session> Session::Deserialize(std::string_view bytes) {
  Decoder dec(bytes);
  uint8_t version = 0;
  PILEUS_RETURN_IF_ERROR(dec.GetUint8(&version));
  if (version != kSessionWireVersion) {
    return Status(StatusCode::kCorruption,
                  "unsupported serialized session version");
  }
  uint64_t id = 0;
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&id));
  uint64_t sub_count = 0;
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&sub_count));
  if (sub_count > dec.remaining()) {
    return Status(StatusCode::kCorruption, "session SLA count too large");
  }
  Sla sla;
  for (uint64_t i = 0; i < sub_count; ++i) {
    uint8_t consistency = 0;
    int64_t bound_us = 0;
    int64_t latency_us = 0;
    double utility = 0.0;
    PILEUS_RETURN_IF_ERROR(dec.GetUint8(&consistency));
    PILEUS_RETURN_IF_ERROR(dec.GetVarintSigned64(&bound_us));
    PILEUS_RETURN_IF_ERROR(dec.GetVarintSigned64(&latency_us));
    PILEUS_RETURN_IF_ERROR(dec.GetDouble(&utility));
    if (consistency > static_cast<uint8_t>(Consistency::kEventual)) {
      return Status(StatusCode::kCorruption,
                    "unknown consistency in serialized session");
    }
    sla.Add(Guarantee{static_cast<Consistency>(consistency), bound_us},
            latency_us, utility);
  }
  PILEUS_RETURN_IF_ERROR(sla.Validate());

  Session session(std::move(sla));
  session.id_ = id;
  PILEUS_RETURN_IF_ERROR(DecodeTimestampMap(dec, &session.keys_->puts));
  PILEUS_RETURN_IF_ERROR(DecodeTimestampMap(dec, &session.keys_->gets));
  PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&session.max_read_));
  PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&session.max_write_));
  if (!dec.AtEnd()) {
    return Status(StatusCode::kCorruption,
                  "trailing bytes in serialized session");
  }
  return session;
}

Timestamp Session::LastPutTimestamp(std::string_view key) const {
  auto it = keys_->puts.find(key);
  return it == keys_->puts.end() ? Timestamp::Zero() : it->second;
}

Timestamp Session::LastGetTimestamp(std::string_view key) const {
  auto it = keys_->gets.find(key);
  return it == keys_->gets.end() ? Timestamp::Zero() : it->second;
}

}  // namespace pileus::core
