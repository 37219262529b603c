// Low-level durable record log: the framing/recovery layer under the tablet
// WAL (src/persist/wal.h).
//
// On-disk record format (little-endian), identical to the historical WAL
// layout so existing logs replay unchanged:
//   1 byte  kind        (meaning assigned by the typed layer on top)
//   4 bytes payload len
//   4 bytes CRC-32 of payload
//   N bytes payload
//
// Recovery semantics: a torn tail (partial record at EOF — the normal
// result of a crash mid-append) is detected and discarded; a CRC mismatch,
// an unknown kind, or an absurd length *before* the tail is reported as
// kCorruption so operators notice real damage rather than silently losing
// committed data.

#ifndef PILEUS_SRC_PERSIST_RECORD_LOG_H_
#define PILEUS_SRC_PERSIST_RECORD_LOG_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/status.h"

namespace pileus::persist {

class RecordLog {
 public:
  // Sanity bound on a single record payload.
  static constexpr uint32_t kMaxPayload = 256 * 1024 * 1024;

  RecordLog() = default;
  ~RecordLog() { Close(); }

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;
  RecordLog(RecordLog&& other) noexcept { *this = std::move(other); }
  RecordLog& operator=(RecordLog&& other) noexcept;

  // Opens (creating if needed) the log at `path` for appending.
  static Result<RecordLog> Open(const std::string& path);

  bool is_open() const { return fd_ >= 0; }

  // Appends one record; data reaches the kernel but is not fsynced until
  // Sync() (group-commit friendly).
  Status Append(uint8_t kind, std::string_view payload);

  // fdatasync the log.
  Status Sync();

  // Truncates the log to empty (after a successful checkpoint).
  Status Reset();

  void Close();

  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

  struct ReplayStats {
    uint64_t records = 0;
    // A partial record at EOF was discarded (normal after a crash).
    bool tail_torn = false;
  };

  // Streams every intact record through `on_record`; a non-OK return from
  // the callback aborts the replay with that status. `valid_kind` (if
  // given) classifies unknown kinds as corruption, mirroring the CRC rule:
  // garbage before the tail must be loud. A missing file is an empty log.
  static Result<ReplayStats> Replay(
      const std::string& path,
      const std::function<Status(uint8_t kind, std::string_view payload)>&
          on_record,
      const std::function<bool(uint8_t kind)>& valid_kind = nullptr);

 private:
  std::string path_;
  int fd_ = -1;
  uint64_t bytes_written_ = 0;
};

}  // namespace pileus::persist

#endif  // PILEUS_SRC_PERSIST_RECORD_LOG_H_
