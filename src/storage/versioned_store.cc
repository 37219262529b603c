#include "src/storage/versioned_store.h"

#include <algorithm>

namespace pileus::storage {

namespace {

uint64_t VersionBytes(const proto::ObjectVersion& v) {
  return v.key.size() + v.value.size();
}

}  // namespace

bool VersionedStore::Apply(VersionPtr version) {
  auto it = versions_.find(version->key);
  if (it == versions_.end()) {
    bytes_ += VersionBytes(*version);
    versions_.emplace(version->key, std::move(version));
    return true;
  }
  VersionPtr& latest = it->second;
  if (version->timestamp < latest->timestamp) {
    return false;  // Duplicate or stale delivery.
  }
  if (version->timestamp == latest->timestamp) {
    return true;  // Exact duplicate; idempotent.
  }
  bytes_ += VersionBytes(*version);
  bytes_ -= VersionBytes(*latest);
  latest = std::move(version);
  return true;
}

VersionPtr VersionedStore::GetLatest(std::string_view key) const {
  auto it = versions_.find(key);
  if (it == versions_.end()) {
    return nullptr;
  }
  return it->second;
}

std::vector<VersionPtr> VersionedStore::LatestVersionsAfter(
    const Timestamp& after) const {
  std::vector<VersionPtr> out;
  for (const auto& [key, version] : versions_) {
    if (version->timestamp > after) {
      out.push_back(version);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const VersionPtr& a, const VersionPtr& b) {
              if (a->timestamp != b->timestamp) {
                return a->timestamp < b->timestamp;
              }
              return a->key < b->key;
            });
  return out;
}

size_t VersionedStore::CollectTombstones(const Timestamp& horizon) {
  size_t collected = 0;
  for (auto it = versions_.begin(); it != versions_.end();) {
    const proto::ObjectVersion& latest = *it->second;
    if (latest.is_tombstone && latest.timestamp < horizon) {
      bytes_ -= VersionBytes(latest);
      it = versions_.erase(it);
      ++collected;
    } else {
      ++it;
    }
  }
  return collected;
}

proto::VersionList VersionedStore::ScanRange(std::string_view begin,
                                             std::string_view end,
                                             uint32_t limit,
                                             bool* truncated) const {
  proto::VersionList out;
  if (limit != 0) {
    out.reserve(std::min<size_t>(limit, versions_.size()));
  }
  *truncated = false;
  for (auto it = versions_.lower_bound(begin); it != versions_.end(); ++it) {
    if (!end.empty() && it->first >= end) {
      break;
    }
    const VersionPtr& latest = it->second;
    if (latest->is_tombstone) {
      continue;  // Deleted keys do not appear in scans.
    }
    if (limit != 0 && out.size() >= limit) {
      *truncated = true;
      break;
    }
    out.push_back(latest);
  }
  return out;
}

}  // namespace pileus::storage
