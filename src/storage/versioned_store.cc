#include "src/storage/versioned_store.h"

#include <algorithm>
#include <cassert>

namespace pileus::storage {

VersionedStore::VersionedStore(Options options) : options_(options) {
  assert(options_.history_limit >= 1);
}

namespace {

uint64_t VersionBytes(const proto::ObjectVersion& v) {
  return v.key.size() + v.value.size();
}

}  // namespace

bool VersionedStore::Apply(VersionPtr version) {
  auto it = chains_.find(version->key);
  if (it == chains_.end()) {
    bytes_ += VersionBytes(*version);
    Chain chain;
    chain.versions.push_back(version);
    chains_.emplace(version->key, std::move(chain));
    return true;
  }
  Chain& chain = it->second;
  const Timestamp& latest = chain.versions.front()->timestamp;
  if (version->timestamp < latest) {
    return false;  // Duplicate or stale delivery.
  }
  if (version->timestamp == latest) {
    return true;  // Exact duplicate; idempotent.
  }
  bytes_ += VersionBytes(*version);
  chain.versions.insert(chain.versions.begin(), std::move(version));
  if (chain.versions.size() > options_.history_limit) {
    bytes_ -= VersionBytes(*chain.versions.back());
    chain.versions.pop_back();
    chain.pruned = true;
  }
  return true;
}

VersionPtr VersionedStore::GetLatest(std::string_view key) const {
  auto it = chains_.find(key);
  if (it == chains_.end()) {
    return nullptr;
  }
  return it->second.versions.front();
}

VersionedStore::SnapshotResult VersionedStore::GetAt(
    std::string_view key, const Timestamp& snapshot) const {
  SnapshotResult result;
  auto it = chains_.find(key);
  if (it == chains_.end()) {
    // Key never written (as far as this node knows): found=false but the
    // snapshot is answerable.
    return result;
  }
  const Chain& chain = it->second;
  for (const VersionPtr& v : chain.versions) {
    if (v->timestamp <= snapshot) {
      result.found = true;
      result.version = *v;
      return result;
    }
  }
  // Every retained version is newer than the snapshot. If versions were
  // pruned, an older one might have matched; otherwise the key simply did not
  // exist at the snapshot.
  result.snapshot_available = !chain.pruned;
  return result;
}

std::vector<VersionPtr> VersionedStore::LatestVersionsAfter(
    const Timestamp& after, std::string_view from_key) const {
  std::vector<VersionPtr> out;
  for (auto it = chains_.lower_bound(from_key); it != chains_.end(); ++it) {
    const VersionPtr& latest = it->second.versions.front();
    if (latest->timestamp > after) {
      out.push_back(latest);
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
  for (auto it = chains_.begin(); it != chains_.end();) {
    const proto::ObjectVersion& latest = *it->second.versions.front();
    if (latest.is_tombstone && latest.timestamp < horizon) {
      for (const VersionPtr& v : it->second.versions) {
        bytes_ -= VersionBytes(*v);
      }
      it = chains_.erase(it);
      ++collected;
    } else {
      ++it;
    }
  }
  return collected;
}

std::optional<std::string> VersionedStore::MedianKey() const {
  if (chains_.size() < 2) {
    return std::nullopt;
  }
  auto mid = std::next(chains_.begin(), chains_.size() / 2);
  if (mid->first == chains_.begin()->first) {
    return std::nullopt;
  }
  return mid->first;
}

VersionedStore VersionedStore::ExtractUpper(std::string_view split_key) {
  VersionedStore upper(options_);
  auto it = chains_.lower_bound(split_key);
  while (it != chains_.end()) {
    for (const VersionPtr& v : it->second.versions) {
      const uint64_t sz = VersionBytes(*v);
      bytes_ -= sz;
      upper.bytes_ += sz;
    }
    auto node = chains_.extract(it++);
    upper.chains_.insert(std::move(node));
  }
  return upper;
}

proto::VersionList VersionedStore::ScanRange(std::string_view begin,
                                             std::string_view end,
                                             uint32_t limit,
                                             bool* truncated) const {
  proto::VersionList out;
  if (limit != 0) {
    out.reserve(std::min<size_t>(limit, chains_.size()));
  }
  *truncated = false;
  for (auto it = chains_.lower_bound(begin); it != chains_.end(); ++it) {
    if (!end.empty() && it->first >= end) {
      break;
    }
    const VersionPtr& latest = it->second.versions.front();
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
