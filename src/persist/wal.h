// Write-ahead log for durable tablets.
//
// The paper's storage nodes hold the authoritative copies of application
// data; any production release must survive a node restart. This WAL makes
// a tablet durable: every accepted write (local Put, replicated version, or
// replication heartbeat) is appended before it is acknowledged, and replayed
// on startup.
//
// On-disk record format (little-endian):
//   1 byte  kind        (1 = version, 2 = heartbeat, 3 = config; 4, a
//                        tablet split, is retired and replays as corruption)
//   4 bytes payload len
//   4 bytes CRC-32 of payload
//   N bytes payload     (codec-encoded)
//
// Recovery semantics: a torn tail (partial record at EOF — the normal result
// of a crash mid-append) is detected and discarded; a CRC mismatch or
// garbage *before* the tail is reported as corruption so operators notice
// real damage rather than silently losing committed data.

#ifndef PILEUS_SRC_PERSIST_WAL_H_
#define PILEUS_SRC_PERSIST_WAL_H_

#include <functional>
#include <string>

#include "src/common/status.h"
#include "src/common/timestamp.h"
#include "src/persist/record_log.h"
#include "src/proto/messages.h"
#include "src/reconfig/config_epoch.h"

namespace pileus::persist {

class WriteAheadLog {
 public:
  WriteAheadLog() = default;
  ~WriteAheadLog() { Close(); }

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;
  WriteAheadLog(WriteAheadLog&& other) noexcept { *this = std::move(other); }
  WriteAheadLog& operator=(WriteAheadLog&& other) noexcept;

  // Opens (creating if needed) the log at `path` for appending.
  static Result<WriteAheadLog> Open(const std::string& path);

  // Appends one record; data reaches the kernel but is not fsynced until
  // Sync() (group-commit friendly).
  Status AppendVersion(const proto::ObjectVersion& version);
  Status AppendHeartbeat(const Timestamp& heartbeat);
  // Journals an installed configuration (Section 6.2) so a restarted node
  // rejoins under the config it last acknowledged, not its seed roles.
  Status AppendConfig(const reconfig::ConfigEpoch& config);

  // fdatasync the log.
  Status Sync();

  // Truncates the log to empty (after a successful checkpoint).
  Status Reset();

  void Close();

  uint64_t bytes_written() const { return log_.bytes_written(); }

  // --- Recovery ---

  struct ReplayStats {
    uint64_t versions = 0;
    uint64_t heartbeats = 0;
    uint64_t configs = 0;
    // A partial record at EOF was discarded (normal after a crash).
    bool tail_torn = false;
  };

  // Streams every intact record through the callbacks (any may be null).
  // Corruption before the final record, a record of an unknown kind
  // included, fails with kCorruption.
  static Result<ReplayStats> Replay(
      const std::string& path,
      const std::function<void(const proto::ObjectVersion&)>& on_version,
      const std::function<void(const Timestamp&)>& on_heartbeat,
      const std::function<void(const reconfig::ConfigEpoch&)>& on_config =
          nullptr);

  // Collects every intact version record in `path`, in log order
  // (heartbeats skipped). The audit harness uses this to cross-check a
  // node's journaled writes against the in-memory commit order.
  static Result<std::vector<proto::ObjectVersion>> ReadVersions(
      const std::string& path);

 private:
  // Record framing/recovery lives in RecordLog; this class owns only the
  // typed payload codecs.
  RecordLog log_;
};

}  // namespace pileus::persist

#endif  // PILEUS_SRC_PERSIST_WAL_H_
