#include "src/persist/wal.h"

#include <utility>
#include <vector>

#include "src/persist/record_log.h"
#include "src/util/codec.h"

namespace pileus::persist {

namespace {

constexpr uint8_t kKindVersion = 1;
constexpr uint8_t kKindHeartbeat = 2;
constexpr uint8_t kKindConfig = 3;
// Kind 4 is retired: it journaled a tablet split. Replay rejects it as
// corruption, since this build cannot rebuild the split child it named.

std::string EncodeVersionPayload(const proto::ObjectVersion& version) {
  Encoder enc;
  enc.PutLengthPrefixed(version.key);
  enc.PutLengthPrefixed(version.value);
  enc.PutTimestamp(version.timestamp);
  enc.PutBool(version.is_tombstone);
  return enc.Release();
}

Status DecodeVersionPayload(std::string_view payload,
                            proto::ObjectVersion* version) {
  Decoder dec(payload);
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&version->key));
  PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&version->value));
  PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&version->timestamp));
  PILEUS_RETURN_IF_ERROR(dec.GetBool(&version->is_tombstone));
  if (!dec.AtEnd()) {
    return Status(StatusCode::kCorruption, "trailing bytes in WAL version");
  }
  return Status::Ok();
}

std::string EncodeHeartbeatPayload(const Timestamp& heartbeat) {
  Encoder enc;
  enc.PutTimestamp(heartbeat);
  return enc.Release();
}

}  // namespace

WriteAheadLog& WriteAheadLog::operator=(WriteAheadLog&& other) noexcept {
  if (this != &other) {
    log_ = std::move(other.log_);
  }
  return *this;
}

Result<WriteAheadLog> WriteAheadLog::Open(const std::string& path) {
  Result<RecordLog> log = RecordLog::Open(path);
  if (!log.ok()) {
    return log.status();
  }
  WriteAheadLog wal;
  wal.log_ = std::move(*log);
  return wal;
}

Status WriteAheadLog::AppendVersion(const proto::ObjectVersion& version) {
  return log_.Append(kKindVersion, EncodeVersionPayload(version));
}

Status WriteAheadLog::AppendHeartbeat(const Timestamp& heartbeat) {
  return log_.Append(kKindHeartbeat, EncodeHeartbeatPayload(heartbeat));
}

Status WriteAheadLog::AppendConfig(const reconfig::ConfigEpoch& config) {
  Encoder enc;
  reconfig::EncodeConfigEpoch(enc, config);
  return log_.Append(kKindConfig, enc.Release());
}

Status WriteAheadLog::Sync() { return log_.Sync(); }

Status WriteAheadLog::Reset() { return log_.Reset(); }

void WriteAheadLog::Close() { log_.Close(); }

Result<WriteAheadLog::ReplayStats> WriteAheadLog::Replay(
    const std::string& path,
    const std::function<void(const proto::ObjectVersion&)>& on_version,
    const std::function<void(const Timestamp&)>& on_heartbeat,
    const std::function<void(const reconfig::ConfigEpoch&)>& on_config) {
  ReplayStats stats;
  Result<RecordLog::ReplayStats> raw = RecordLog::Replay(
      path,
      [&](uint8_t kind, std::string_view payload) -> Status {
        if (kind == kKindVersion) {
          proto::ObjectVersion version;
          PILEUS_RETURN_IF_ERROR(DecodeVersionPayload(payload, &version));
          ++stats.versions;
          if (on_version) {
            on_version(version);
          }
        } else if (kind == kKindHeartbeat) {
          Decoder dec(payload);
          Timestamp heartbeat;
          PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&heartbeat));
          ++stats.heartbeats;
          if (on_heartbeat) {
            on_heartbeat(heartbeat);
          }
        } else {
          Decoder dec(payload);
          reconfig::ConfigEpoch config;
          PILEUS_RETURN_IF_ERROR(reconfig::DecodeConfigEpoch(dec, &config));
          ++stats.configs;
          if (on_config) {
            on_config(config);
          }
        }
        return Status::Ok();
      },
      [](uint8_t kind) {
        return kind == kKindVersion || kind == kKindHeartbeat ||
               kind == kKindConfig;
      });
  if (!raw.ok()) {
    return raw.status();
  }
  stats.tail_torn = raw->tail_torn;
  return stats;
}

Result<std::vector<proto::ObjectVersion>> WriteAheadLog::ReadVersions(
    const std::string& path) {
  std::vector<proto::ObjectVersion> versions;
  Result<ReplayStats> stats = Replay(
      path,
      [&versions](const proto::ObjectVersion& version) {
        versions.push_back(version);
      },
      nullptr);
  if (!stats.ok()) {
    return stats.status();
  }
  return versions;
}

}  // namespace pileus::persist
