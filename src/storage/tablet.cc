#include "src/storage/tablet.h"

#include <cassert>
#include <utility>

namespace pileus::storage {

Tablet::Tablet(Options options, Clock* clock)
    : options_(std::move(options)), clock_(clock) {
  assert(clock_ != nullptr);
}

void Tablet::SetPrimary(bool is_primary) {
  if (is_primary && !options_.is_primary) {
    // Never assign a timestamp at or below anything this copy has seen.
    last_assigned_ = MaxTimestamp(last_assigned_, high_timestamp_);
  }
  options_.is_primary = is_primary;
}

Timestamp Tablet::AllocateTimestamp() {
  const MicrosecondCount now = clock_->NowMicros();
  Timestamp ts;
  if (now > last_assigned_.physical_us) {
    ts = Timestamp{now, 0};
  } else if (last_assigned_.sequence < UINT32_MAX) {
    ts = Timestamp{last_assigned_.physical_us, last_assigned_.sequence + 1};
  } else {
    ts = Timestamp{last_assigned_.physical_us + 1, 0};
  }
  last_assigned_ = ts;
  return ts;
}

Timestamp Tablet::CurrentHeartbeat() const {
  // Any future Put gets physical_us >= now, hence a timestamp strictly above
  // {now - 1, max}; everything at or below it is already in the log.
  const Timestamp clock_floor{clock_->NowMicros() - 1, UINT32_MAX};
  return MaxTimestamp(clock_floor, last_assigned_);
}

proto::GetReply Tablet::HandleGet(std::string_view key) const {
  proto::GetReply reply;
  reply.high_timestamp = authoritative() ? CurrentHeartbeat() : high_timestamp_;
  reply.served_by_primary = authoritative();
  if (VersionPtr version = store_.GetLatest(key)) {
    // A tombstone answers "not found", but its timestamp still flows back so
    // the caller can see the delete is at least as new as its own writes.
    reply.found = !version->is_tombstone;
    if (reply.found) {
      reply.value = version->value;
    }
    reply.value_timestamp = version->timestamp;
  }
  return reply;
}

Result<proto::PutReply> Tablet::HandleDelete(std::string_view key) {
  if (!options_.is_primary) {
    return Status(StatusCode::kNotPrimary,
                  "Delete sent to non-primary tablet " +
                      options_.range.ToString());
  }
  proto::ObjectVersion built;
  built.key = std::string(key);
  built.timestamp = AllocateTimestamp();
  built.is_tombstone = true;
  const VersionPtr tombstone = MakeVersion(std::move(built));
  store_.Apply(tombstone);
  update_log_.Append(tombstone);
  high_timestamp_ = MaxTimestamp(high_timestamp_, tombstone->timestamp);
  PILEUS_RETURN_IF_ERROR(Record(tombstone));

  proto::PutReply reply;
  reply.timestamp = tombstone->timestamp;
  reply.high_timestamp = CurrentHeartbeat();
  return reply;
}

proto::RangeReply Tablet::HandleRange(std::string_view begin,
                                      std::string_view end,
                                      uint32_t limit) const {
  proto::RangeReply reply;
  reply.high_timestamp =
      authoritative() ? CurrentHeartbeat() : high_timestamp_;
  reply.served_by_primary = authoritative();
  reply.items = store_.ScanRange(begin, end, limit, &reply.truncated);
  return reply;
}

Result<proto::PutReply> Tablet::HandlePut(std::string_view key,
                                          std::string_view value) {
  if (!options_.is_primary) {
    return Status(StatusCode::kNotPrimary,
                  "Put sent to non-primary tablet " + options_.range.ToString());
  }
  proto::ObjectVersion built;
  built.key = std::string(key);
  built.value = std::string(value);
  built.timestamp = AllocateTimestamp();
  const VersionPtr version = MakeVersion(std::move(built));
  store_.Apply(version);
  update_log_.Append(version);
  high_timestamp_ = MaxTimestamp(high_timestamp_, version->timestamp);
  PILEUS_RETURN_IF_ERROR(Record(version));

  proto::PutReply reply;
  reply.timestamp = version->timestamp;
  reply.high_timestamp = CurrentHeartbeat();
  return reply;
}

proto::SyncReply Tablet::HandleSync(const Timestamp& after,
                                    uint32_t max_versions) const {
  proto::SyncReply reply;
  UpdateLog::ScanResult scan = update_log_.Scan(after, max_versions);
  if (!scan.contiguous) {
    // Log truncated below `after`: fall back to a full-state transfer of all
    // latest versions newer than `after`. Correct because the receiver only
    // needs some prefix-consistent superset in timestamp order.
    for (const VersionPtr& version : store_.LatestVersionsAfter(after)) {
      reply.versions.push_back(*version);
    }
    reply.heartbeat = authoritative() ? CurrentHeartbeat() : high_timestamp_;
    return reply;
  }
  reply.versions = std::move(scan.versions);
  reply.has_more = scan.has_more;
  if (scan.has_more) {
    // More to come: the receiver may only advance to the last included
    // timestamp.
    reply.heartbeat = reply.versions.back().timestamp;
  } else {
    reply.heartbeat = authoritative() ? CurrentHeartbeat() : high_timestamp_;
  }
  return reply;
}

Status Tablet::ApplySync(const proto::SyncReply& reply) {
  const Timestamp before = high_timestamp_;
  for (const proto::ObjectVersion& pulled : reply.versions) {
    if (pulled.timestamp <= before) {
      continue;  // Duplicate delivery.
    }
    const VersionPtr version = MakeVersion(pulled);
    store_.Apply(version);
    update_log_.Append(version);
    PILEUS_RETURN_IF_ERROR(Record(version));
  }
  high_timestamp_ = MaxTimestamp(high_timestamp_, reply.heartbeat);
  if (!reply.versions.empty()) {
    high_timestamp_ =
        MaxTimestamp(high_timestamp_, reply.versions.back().timestamp);
  }
  if (journal_ != nullptr && high_timestamp_ != before) {
    return journal_->RecordHeartbeat(*this);
  }
  return Status::Ok();
}

Status Tablet::ApplyReplicatedPut(proto::ObjectVersion built) {
  const VersionPtr version = MakeVersion(std::move(built));
  const bool applied = store_.Apply(version);
  if (applied) {
    update_log_.Append(version);
  }
  high_timestamp_ = MaxTimestamp(high_timestamp_, version->timestamp);
  return applied ? Record(version) : Status::Ok();
}

}  // namespace pileus::storage
