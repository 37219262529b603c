#include "src/storage/update_log.h"

#include <algorithm>
#include <cassert>

namespace pileus::storage {

void UpdateLog::Append(VersionPtr version) {
  assert((entries_.empty() ||
          entries_.back()->timestamp <= version->timestamp) &&
         "update log requires non-decreasing timestamps");
  entries_.push_back(std::move(version));
}

UpdateLog::ScanResult UpdateLog::Scan(const Timestamp& after,
                                      uint32_t max_versions) const {
  ScanResult result;
  if (after < truncated_through_) {
    result.contiguous = false;
    return result;
  }
  // Binary search for the first entry with timestamp > after.
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), after,
      [](const Timestamp& ts, const VersionPtr& v) {
        return ts < v->timestamp;
      });
  for (; it != entries_.end(); ++it) {
    if (max_versions != 0 && result.versions.size() >= max_versions) {
      // Do not split a same-timestamp run: keep going while the timestamp
      // equals the last emitted one.
      if (result.versions.back().timestamp != (*it)->timestamp) {
        result.has_more = true;
        break;
      }
    }
    result.versions.push_back(**it);
  }
  return result;
}

void UpdateLog::TruncateThrough(const Timestamp& up_to) {
  while (!entries_.empty() && entries_.front()->timestamp <= up_to) {
    entries_.pop_front();
  }
  truncated_through_ = MaxTimestamp(truncated_through_, up_to);
}

std::vector<proto::ObjectVersion> UpdateLog::Export(bool* contiguous) const {
  if (contiguous != nullptr) {
    *contiguous = truncated_through_.IsZero();
  }
  std::vector<proto::ObjectVersion> out;
  out.reserve(entries_.size());
  for (const VersionPtr& v : entries_) {
    out.push_back(*v);
  }
  return out;
}

Timestamp UpdateLog::LastTimestamp() const {
  // A log truncated down to nothing still covers its truncation point.
  return MaxTimestamp(
      entries_.empty() ? Timestamp::Zero() : entries_.back()->timestamp,
      truncated_through_);
}

}  // namespace pileus::storage
