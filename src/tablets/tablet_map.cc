#include "src/tablets/tablet_map.h"

#include <algorithm>

namespace pileus::tablets {

std::string TabletInfo::ToString() const {
  std::string out = range.ToString();
  out += " epoch " + std::to_string(config.epoch);
  out += " primary=" + config.primary;
  out += " members=[";
  for (size_t i = 0; i < config.members.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += config.members[i];
  }
  out += "]";
  return out;
}

const TabletInfo* TabletMap::OwnerOf(std::string_view key) const {
  // Entries are sorted by range.begin; find the last entry starting at or
  // below the key and check containment (guards against malformed maps).
  auto it = std::upper_bound(
      tablets.begin(), tablets.end(), key,
      [](std::string_view k, const TabletInfo& t) { return k < t.range.begin; });
  if (it == tablets.begin()) {
    return nullptr;
  }
  --it;
  return it->range.Contains(key) ? &*it : nullptr;
}

Status TabletMap::Validate() const {
  if (tablets.empty()) {
    return Status(StatusCode::kInvalidArgument, "tablet map has no tablets");
  }
  std::vector<KeyRange> ranges;
  ranges.reserve(tablets.size());
  for (const TabletInfo& t : tablets) {
    ranges.push_back(t.range);
    if (t.config.primary.empty()) {
      return Status(StatusCode::kInvalidArgument,
                    "tablet " + t.range.ToString() + " names no primary");
    }
    if (!t.config.IsMember(t.config.primary)) {
      return Status(StatusCode::kInvalidArgument,
                    "tablet " + t.range.ToString() + " primary '" +
                        t.config.primary + "' is not a member");
    }
  }
  for (size_t i = 0; i + 1 < tablets.size(); ++i) {
    if (tablets[i].range.begin > tablets[i + 1].range.begin) {
      return Status(StatusCode::kInvalidArgument,
                    "tablet map entries not sorted by range begin");
    }
  }
  if (!RangesCoverKeySpace(std::move(ranges))) {
    return Status(StatusCode::kInvalidArgument,
                  "tablet ranges do not tile the keyspace");
  }
  return Status::Ok();
}

std::string TabletMap::ToString() const {
  std::string out = "map v" + std::to_string(version) + " table=" + table;
  for (const TabletInfo& t : tablets) {
    out += "\n  " + t.ToString();
  }
  return out;
}

void EncodeTabletInfo(Encoder& enc, const TabletInfo& info) {
  enc.PutLengthPrefixed(info.range.begin);
  enc.PutLengthPrefixed(info.range.end);
  reconfig::EncodeConfigEpoch(enc, info.config);
  enc.PutVarint64(info.size_bytes);
}

Status DecodeTabletInfo(Decoder& dec, TabletInfo* info) {
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&info->range.begin));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&info->range.end));
  PILEUS_RETURN_IF_ERROR(reconfig::DecodeConfigEpoch(dec, &info->config));
  return dec.GetVarint64(&info->size_bytes);
}

void EncodeTabletMap(Encoder& enc, const TabletMap& map) {
  enc.PutLengthPrefixed(map.table);
  enc.PutVarint64(map.version);
  enc.PutVarint64(map.tablets.size());
  for (const TabletInfo& t : map.tablets) {
    EncodeTabletInfo(enc, t);
  }
}

Status DecodeTabletMap(Decoder& dec, TabletMap* map) {
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&map->table));
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&map->version));
  uint64_t count;
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&count));
  // Sanity cap: every tablet entry occupies multiple bytes on the wire.
  if (count > dec.remaining()) {
    return Status(StatusCode::kCorruption, "tablet map entry count too big");
  }
  map->tablets.resize(count);
  for (TabletInfo& t : map->tablets) {
    PILEUS_RETURN_IF_ERROR(DecodeTabletInfo(dec, &t));
  }
  return Status::Ok();
}

}  // namespace pileus::tablets
