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
// timestamp, then the tablet's key range (optional for the decoder: the
// oldest checkpoints end after the timestamp). File: magic + fixed32 length
// + fixed32 crc + payload, written to a temp file and renamed into place.
std::string EncodeCheckpoint(const std::vector<storage::VersionPtr>& versions,
                             const Timestamp& high, const KeyRange& range) {
  Encoder enc;
  enc.PutVarint64(versions.size());
  for (const storage::VersionPtr& v : versions) {
    enc.PutLengthPrefixed(v->key);
    enc.PutLengthPrefixed(v->value);
    enc.PutTimestamp(v->timestamp);
    enc.PutBool(v->is_tombstone);
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
  // The range the tablet owned when the checkpoint was written; when
  // present it overrides the caller's configured range.
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

// The WAL-plus-checkpoint journal of one tablet directory.
class WalJournal final : public storage::TabletJournal {
 public:
  WalJournal(DurableTablet::Options options, WriteAheadLog wal,
             std::optional<reconfig::ConfigEpoch> config)
      : options_(std::move(options)),
        wal_(std::move(wal)),
        config_(std::move(config)) {}

  Status RecordVersion(storage::Tablet& tablet,
                       const storage::VersionPtr& version) override {
    PILEUS_RETURN_IF_ERROR(wal_.AppendVersion(*version));
    return AfterAppend(tablet);
  }

  Status RecordHeartbeat(storage::Tablet& tablet) override {
    PILEUS_RETURN_IF_ERROR(wal_.AppendHeartbeat(tablet.high_timestamp()));
    return AfterAppend(tablet);
  }

  Status RecordConfig(const reconfig::ConfigEpoch& config) override {
    PILEUS_RETURN_IF_ERROR(wal_.AppendConfig(config));
    config_ = config;
    return options_.sync_every_append ? wal_.Sync() : Status::Ok();
  }

  Status Sync() override { return wal_.Sync(); }

  Status Checkpoint(storage::Tablet& tablet) override {
    // Safe because the horizon exceeds replication lag: every replica has
    // long since synced past these tombstones.
    (void)tablet.CollectTombstones(
        Timestamp{tablet.high_timestamp().physical_us -
                      DurableTablet::kTombstoneGcHorizonUs,
                  0});
    PILEUS_RETURN_IF_ERROR(WriteFileAtomically(
        options_.directory + "/checkpoint.db",
        FrameCheckpoint(EncodeCheckpoint(
            tablet.store().LatestVersionsAfter(Timestamp::Zero()),
            tablet.high_timestamp(), tablet.range()))));
    PILEUS_RETURN_IF_ERROR(TrimLog());
    // Everything up to the checkpointed high timestamp is durable in the
    // snapshot; the in-memory replication log no longer needs it (laggards
    // fall back to a full-state transfer).
    tablet.CompactLog(tablet.high_timestamp());
    return Status::Ok();
  }

  const WriteAheadLog& wal() const { return wal_; }

 private:
  Status AfterAppend(storage::Tablet& tablet) {
    if (options_.sync_every_append) {
      PILEUS_RETURN_IF_ERROR(wal_.Sync());
    }
    if (options_.checkpoint_threshold_bytes == 0 ||
        wal_.bytes_written() < options_.checkpoint_threshold_bytes) {
      return Status::Ok();
    }
    return Checkpoint(tablet);
  }

  // Empties the WAL after a checkpoint, keeping what the checkpoint does not
  // hold: the last config. With one to keep, the trimmed log replaces the
  // old one by rename, so a crash leaves one or the other; the old one
  // replays idempotently over the new checkpoint.
  Status TrimLog() {
    if (!config_.has_value()) {
      return wal_.Reset();
    }
    const std::string path = options_.directory + "/wal.log";
    const std::string trimmed = path + ".new";
    {
      Result<WriteAheadLog> next = WriteAheadLog::Open(trimmed);
      if (!next.ok()) {
        return next.status();
      }
      PILEUS_RETURN_IF_ERROR(next->Reset());  // A crash may have left one.
      PILEUS_RETURN_IF_ERROR(next->AppendConfig(*config_));
      PILEUS_RETURN_IF_ERROR(next->Sync());
    }
    if (::rename(trimmed.c_str(), path.c_str()) != 0) {
      return Errno("rename", trimmed);
    }
    PILEUS_RETURN_IF_ERROR(SyncParentDirectory(path));
    Result<WriteAheadLog> reopened = WriteAheadLog::Open(path);
    if (!reopened.ok()) {
      return reopened.status();
    }
    wal_ = std::move(reopened).value();
    return Status::Ok();
  }

  DurableTablet::Options options_;
  WriteAheadLog wal_;
  std::optional<reconfig::ConfigEpoch> config_;
};

Result<std::unique_ptr<DurableTablet>> DurableTablet::Open(Options options,
                                                           Clock* clock) {
  RecoveryInfo recovery;
  const std::string wal_path = options.directory + "/wal.log";

  Result<CheckpointData> loaded =
      LoadCheckpoint(options.directory + "/checkpoint.db");
  if (!loaded.ok()) {
    return loaded.status();
  }
  recovery.checkpoint_versions = loaded->versions.size();

  // Recover into a *secondary* tablet so replay never allocates timestamps;
  // promotion afterwards seeds the allocator above everything recovered. The
  // checkpoint's recorded range (when present) wins over the caller's seed
  // options. No journal is attached yet, so replay records nothing.
  storage::Tablet::Options recovery_options = options.tablet;
  recovery_options.is_primary = false;
  if (loaded->has_range) {
    recovery_options.range = loaded->range;
  }
  auto tablet = std::make_shared<storage::Tablet>(recovery_options, clock);
  for (proto::ObjectVersion& version : loaded->versions) {
    (void)tablet->ApplyReplicatedPut(std::move(version));
  }
  const auto advance_to = [&tablet](const Timestamp& heartbeat) {
    proto::SyncReply heartbeat_only;
    heartbeat_only.heartbeat = heartbeat;
    (void)tablet->ApplySync(heartbeat_only);
  };
  advance_to(loaded->high);

  Result<WriteAheadLog::ReplayStats> replayed = WriteAheadLog::Replay(
      wal_path,
      [&tablet](const proto::ObjectVersion& version) {
        (void)tablet->ApplyReplicatedPut(version);
      },
      advance_to,
      [&recovery](const reconfig::ConfigEpoch& config) {
        recovery.config = config;
      });
  if (!replayed.ok()) {
    return replayed.status();
  }
  recovery.wal_versions = replayed->versions;
  recovery.wal_heartbeats = replayed->heartbeats;
  recovery.wal_tail_torn = replayed->tail_torn;

  // Later checkpoints journal the effective range.
  options.tablet.range = tablet->range();
  if (options.tablet.is_primary) {
    tablet->SetPrimary(true);
  }

  Result<WriteAheadLog> wal = WriteAheadLog::Open(wal_path);
  if (!wal.ok()) {
    return wal.status();
  }
  auto journal = std::make_unique<WalJournal>(
      std::move(options), std::move(wal).value(), recovery.config);
  WalJournal* raw = journal.get();
  tablet->AttachJournal(std::move(journal));
  return std::unique_ptr<DurableTablet>(
      new DurableTablet(std::move(tablet), raw, std::move(recovery)));
}

Status DurableTablet::Sync() { return journal_->Sync(); }

Status DurableTablet::Checkpoint() { return journal_->Checkpoint(*tablet_); }

const WriteAheadLog& DurableTablet::wal() const { return journal_->wal(); }

}  // namespace pileus::persist
