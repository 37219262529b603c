#include "src/persist/durable_tablet.h"

#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <string.h>
#include <unistd.h>

#include <utility>
#include <vector>

#include "src/util/codec.h"
#include "src/util/crc32.h"

namespace pileus::persist {

namespace {

constexpr char kCheckpointMagic[4] = {'P', 'L', 'C', 'K'};

Status Errno(const char* what, const std::string& path) {
  return Status(StatusCode::kUnavailable,
                std::string(what) + " '" + path + "': " + strerror(errno));
}

// Checkpoint payload: varint version count, versions, the tablet's high
// timestamp, then the tablet's key range (appended by the dynamic-tablet
// work; checkpoints written before it simply end after the timestamp, and
// the decoder treats the range as optional). File: magic + fixed32 length +
// fixed32 crc + payload, written to a temp file and renamed into place.
std::string EncodeCheckpoint(const std::vector<proto::ObjectVersion>& versions,
                             const Timestamp& high, const KeyRange& range) {
  Encoder enc;
  enc.PutVarint64(versions.size());
  for (const proto::ObjectVersion& v : versions) {
    enc.PutLengthPrefixed(v.key);
    enc.PutLengthPrefixed(v.value);
    enc.PutTimestamp(v.timestamp);
    enc.PutBool(v.is_tombstone);
  }
  enc.PutTimestamp(high);
  enc.PutLengthPrefixed(range.begin);
  enc.PutLengthPrefixed(range.end);
  return enc.Release();
}

// Wraps a checkpoint payload in its framing (magic + length + crc).
std::string FrameCheckpoint(const std::string& payload) {
  std::string file;
  file.reserve(12 + payload.size());
  file.append(kCheckpointMagic, sizeof(kCheckpointMagic));
  Encoder header;
  header.PutFixed32(static_cast<uint32_t>(payload.size()));
  header.PutFixed32(Crc32(payload));
  file.append(header.buffer());
  file.append(payload);
  return file;
}

// Makes a rename into the directory holding `path` durable. Without it a
// crash can forget the rename even after the file's own fsync, and
// Checkpoint() truncates the WAL right after: recovery would then find the
// old checkpoint (or none) and an empty log.
Status SyncParentDirectory(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Errno("open", dir);
  }
  if (::fsync(fd) != 0) {
    const Status status = Errno("fsync", dir);
    ::close(fd);
    return status;
  }
  ::close(fd);
  return Status::Ok();
}

Status WriteFileAtomically(const std::string& path,
                           std::string_view contents) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Errno("open", tmp);
  }
  size_t done = 0;
  while (done < contents.size()) {
    const ssize_t n = ::write(fd, contents.data() + done,
                              contents.size() - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const Status status = Errno("write", tmp);
      ::close(fd);
      return status;
    }
    done += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const Status status = Errno("fsync", tmp);
    ::close(fd);
    return status;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Errno("rename", tmp);
  }
  return SyncParentDirectory(path);
}

struct CheckpointData {
  std::vector<proto::ObjectVersion> versions;
  Timestamp high = Timestamp::Zero();
  // The range the tablet owned when the checkpoint was written. Absent from
  // pre-split-era checkpoints; when present it overrides the caller's
  // configured range (a split may have shrunk the tablet since the caller's
  // seed options were written down).
  bool has_range = false;
  KeyRange range;
};

// Loads a checkpoint; a missing file yields empty data (fresh tablet).
Result<CheckpointData> LoadCheckpoint(const std::string& path) {
  CheckpointData data;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return data;
    }
    return Errno("open", path);
  }
  std::string contents;
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      return Errno("read", path);
    }
    if (n == 0) {
      break;
    }
    contents.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  if (contents.size() < sizeof(kCheckpointMagic) + 8 ||
      memcmp(contents.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
          0) {
    return Status(StatusCode::kCorruption,
                  "checkpoint '" + path + "' has a bad header");
  }
  Decoder header(std::string_view(contents).substr(4, 8));
  uint32_t length = 0;
  uint32_t crc = 0;
  PILEUS_RETURN_IF_ERROR(header.GetFixed32(&length));
  PILEUS_RETURN_IF_ERROR(header.GetFixed32(&crc));
  if (contents.size() != 12 + static_cast<size_t>(length)) {
    return Status(StatusCode::kCorruption,
                  "checkpoint '" + path + "' has a truncated body");
  }
  const std::string_view payload(contents.data() + 12, length);
  if (Crc32(payload) != crc) {
    return Status(StatusCode::kCorruption,
                  "checkpoint '" + path + "' failed its checksum");
  }

  Decoder dec(payload);
  uint64_t count = 0;
  PILEUS_RETURN_IF_ERROR(dec.GetVarint64(&count));
  data.versions.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    proto::ObjectVersion version;
    PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&version.key));
    PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&version.value));
    PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&version.timestamp));
    PILEUS_RETURN_IF_ERROR(dec.GetBool(&version.is_tombstone));
    data.versions.push_back(std::move(version));
  }
  PILEUS_RETURN_IF_ERROR(dec.GetTimestamp(&data.high));
  if (dec.remaining() > 0) {
    PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&data.range.begin));
    PILEUS_RETURN_IF_ERROR(dec.GetLengthPrefixedString(&data.range.end));
    data.has_range = true;
  }
  return data;
}

}  // namespace

Result<std::unique_ptr<DurableTablet>> DurableTablet::Open(Options options,
                                                           Clock* clock) {
  RecoveryInfo recovery;
  const std::string checkpoint_path = options.directory + "/checkpoint.db";
  const std::string wal_path = options.directory + "/wal.log";

  Result<CheckpointData> loaded = LoadCheckpoint(checkpoint_path);
  if (!loaded.ok()) {
    return loaded.status();
  }
  recovery.checkpoint_versions = loaded->versions.size();

  // Recover into a *secondary* tablet so replay never allocates timestamps;
  // promotion afterwards seeds the allocator above everything recovered. The
  // checkpoint's recorded range (when present) wins over the caller's seed
  // options: a split may have shrunk this tablet since those were written.
  storage::Tablet::Options recovery_options = options.tablet;
  recovery_options.is_primary = false;
  if (loaded->has_range) {
    recovery_options.range = loaded->range;
  }
  auto tablet = std::make_unique<storage::Tablet>(recovery_options, clock);
  for (const proto::ObjectVersion& version : loaded->versions) {
    tablet->ApplyReplicatedPut(version);
  }
  proto::SyncReply checkpoint_heartbeat;
  checkpoint_heartbeat.heartbeat = loaded->high;
  tablet->ApplySync(checkpoint_heartbeat);

  Result<WriteAheadLog::ReplayStats> replayed = WriteAheadLog::Replay(
      wal_path,
      [&tablet](const proto::ObjectVersion& version) {
        tablet->ApplyReplicatedPut(version);
      },
      [&tablet](const Timestamp& heartbeat) {
        proto::SyncReply heartbeat_only;
        heartbeat_only.heartbeat = heartbeat;
        tablet->ApplySync(heartbeat_only);
      },
      /*on_config=*/nullptr,
      [&tablet, &recovery](const std::string& split_key) {
        // The data above the key already lives in the child directory whose
        // checkpoint preceded this record; shrink the parent and drop the
        // extracted half.
        if (tablet->range().IsSplittable(split_key)) {
          (void)tablet->Split(split_key);
        }
        recovery.split_keys.push_back(split_key);
      });
  if (!replayed.ok()) {
    return replayed.status();
  }
  recovery.wal_versions = replayed->versions;
  recovery.wal_heartbeats = replayed->heartbeats;
  recovery.wal_tail_torn = replayed->tail_torn;

  // Keep the stored options in sync with what recovery actually produced so
  // later checkpoints journal the effective (post-split) range.
  options.tablet.range = tablet->range();

  if (options.tablet.is_primary) {
    tablet->SetPrimary(true);
  }

  Result<WriteAheadLog> wal = WriteAheadLog::Open(wal_path);
  if (!wal.ok()) {
    return wal.status();
  }
  return std::unique_ptr<DurableTablet>(
      new DurableTablet(std::move(options), std::move(tablet),
                        std::move(wal).value(), recovery));
}

Result<proto::PutReply> DurableTablet::HandlePut(std::string_view key,
                                                 std::string_view value) {
  Result<proto::PutReply> reply = tablet_->HandlePut(key, value);
  if (!reply.ok()) {
    return reply;
  }
  proto::ObjectVersion version;
  version.key = std::string(key);
  version.value = std::string(value);
  version.timestamp = reply->timestamp;
  PILEUS_RETURN_IF_ERROR(wal_.AppendVersion(version));
  if (options_.sync_every_append) {
    PILEUS_RETURN_IF_ERROR(wal_.Sync());
  }
  PILEUS_RETURN_IF_ERROR(MaybeAutoCheckpoint());
  return reply;
}

Result<proto::PutReply> DurableTablet::HandleDelete(std::string_view key) {
  Result<proto::PutReply> reply = tablet_->HandleDelete(key);
  if (!reply.ok()) {
    return reply;
  }
  proto::ObjectVersion tombstone;
  tombstone.key = std::string(key);
  tombstone.timestamp = reply->timestamp;
  tombstone.is_tombstone = true;
  PILEUS_RETURN_IF_ERROR(wal_.AppendVersion(tombstone));
  if (options_.sync_every_append) {
    PILEUS_RETURN_IF_ERROR(wal_.Sync());
  }
  PILEUS_RETURN_IF_ERROR(MaybeAutoCheckpoint());
  return reply;
}

Status DurableTablet::ApplySync(const proto::SyncReply& reply) {
  tablet_->ApplySync(reply);
  for (const proto::ObjectVersion& version : reply.versions) {
    PILEUS_RETURN_IF_ERROR(wal_.AppendVersion(version));
  }
  PILEUS_RETURN_IF_ERROR(wal_.AppendHeartbeat(tablet_->high_timestamp()));
  if (options_.sync_every_append) {
    PILEUS_RETURN_IF_ERROR(wal_.Sync());
  }
  return MaybeAutoCheckpoint();
}

Result<proto::CommitReply> DurableTablet::HandleCommit(
    const proto::CommitRequest& request) {
  Result<proto::CommitReply> reply = tablet_->HandleCommit(request);
  if (!reply.ok() || !reply->committed) {
    return reply;
  }
  for (const proto::ObjectVersion& w : request.writes) {
    proto::ObjectVersion version = w;
    version.timestamp = reply->commit_timestamp;
    PILEUS_RETURN_IF_ERROR(wal_.AppendVersion(version));
  }
  if (options_.sync_every_append) {
    PILEUS_RETURN_IF_ERROR(wal_.Sync());
  }
  PILEUS_RETURN_IF_ERROR(MaybeAutoCheckpoint());
  return reply;
}

Status DurableTablet::Checkpoint() {
  if (options_.tombstone_gc_horizon_us > 0) {
    // Safe because the horizon (Options comment) exceeds replication lag:
    // every replica has long since synced past these tombstones.
    const Timestamp horizon{
        tablet_->high_timestamp().physical_us -
            options_.tombstone_gc_horizon_us,
        0};
    (void)tablet_->CollectTombstones(horizon);
  }
  const std::string payload = EncodeCheckpoint(
      tablet_->store().LatestVersionsAfter(Timestamp::Zero()),
      tablet_->high_timestamp(), tablet_->range());
  PILEUS_RETURN_IF_ERROR(
      WriteFileAtomically(CheckpointPath(), FrameCheckpoint(payload)));
  PILEUS_RETURN_IF_ERROR(wal_.Reset());
  // Everything up to the checkpointed high timestamp is durable in the
  // snapshot; the in-memory replication log no longer needs it (laggards
  // fall back to a full-state transfer).
  tablet_->CompactLog(tablet_->high_timestamp());
  return Status::Ok();
}

Result<std::unique_ptr<DurableTablet>> DurableTablet::Split(
    std::string_view split_key, const std::string& child_directory) {
  if (!tablet_->range().IsSplittable(split_key)) {
    return Status(StatusCode::kInvalidArgument,
                  "split key " + std::string(split_key) +
                      " is not strictly inside " +
                      tablet_->range().ToString());
  }

  // Step 1: make the child's half durable in its own directory BEFORE the
  // parent journals the split. Until the split record lands, the parent
  // still owns the full range and the child directory is an orphan — so a
  // crash anywhere in between loses nothing.
  KeyRange child_range{std::string(split_key), tablet_->range().end};
  std::vector<proto::ObjectVersion> child_versions;
  for (proto::ObjectVersion& v :
       tablet_->store().LatestVersionsAfter(Timestamp::Zero())) {
    if (v.key >= split_key) {
      child_versions.push_back(std::move(v));
    }
  }
  const std::string child_payload = EncodeCheckpoint(
      child_versions, tablet_->high_timestamp(), child_range);
  PILEUS_RETURN_IF_ERROR(WriteFileAtomically(
      child_directory + "/checkpoint.db", FrameCheckpoint(child_payload)));

  // Step 2: commit the split on the parent. From here on, parent recovery
  // replays the record and shrinks to [begin, split_key).
  PILEUS_RETURN_IF_ERROR(wal_.AppendSplit(split_key));
  PILEUS_RETURN_IF_ERROR(wal_.Sync());

  // Step 3: split the in-memory tablet; the upper sibling keeps the parent's
  // roles, high timestamp, and update-log suffix for its half.
  Result<std::unique_ptr<storage::Tablet>> upper = tablet_->Split(split_key);
  if (!upper.ok()) {
    return upper.status();
  }
  options_.tablet.range = tablet_->range();

  Options child_options = options_;
  child_options.directory = child_directory;
  child_options.tablet.range = (*upper)->range();
  child_options.tablet.is_primary = (*upper)->is_primary();
  child_options.tablet.is_sync_replica = (*upper)->is_sync_replica();

  Result<WriteAheadLog> child_wal =
      WriteAheadLog::Open(child_directory + "/wal.log");
  if (!child_wal.ok()) {
    return child_wal.status();
  }
  return std::unique_ptr<DurableTablet>(
      new DurableTablet(std::move(child_options), std::move(upper).value(),
                        std::move(child_wal).value(), RecoveryInfo{}));
}

Status DurableTablet::MaybeAutoCheckpoint() {
  if (options_.checkpoint_threshold_bytes == 0 ||
      wal_.bytes_written() < options_.checkpoint_threshold_bytes) {
    return Status::Ok();
  }
  return Checkpoint();
}

}  // namespace pileus::persist
