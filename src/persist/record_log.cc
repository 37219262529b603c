#include "src/persist/record_log.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include "src/util/crc32.h"

namespace pileus::persist {

namespace {

constexpr size_t kHeaderBytes = 1 + 4 + 4;

Status Errno(const char* what, const std::string& path) {
  return Status(StatusCode::kUnavailable,
                std::string(what) + " '" + path + "': " + strerror(errno));
}

uint32_t DecodeFixed32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

void EncodeFixed32(uint32_t v, char* out) {
  out[0] = static_cast<char>(v);
  out[1] = static_cast<char>(v >> 8);
  out[2] = static_cast<char>(v >> 16);
  out[3] = static_cast<char>(v >> 24);
}

Status WriteAll(int fd, const char* data, size_t len,
                const std::string& path) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Errno("write", path);
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

RecordLog& RecordLog::operator=(RecordLog&& other) noexcept {
  if (this != &other) {
    Close();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    bytes_written_ = other.bytes_written_;
    other.fd_ = -1;
    other.bytes_written_ = 0;
  }
  return *this;
}

Result<RecordLog> RecordLog::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Errno("open", path);
  }
  RecordLog log;
  log.path_ = path;
  log.fd_ = fd;
  struct stat st;
  if (::fstat(fd, &st) == 0) {
    log.bytes_written_ = static_cast<uint64_t>(st.st_size);
  }
  return log;
}

Status RecordLog::Append(uint8_t kind, std::string_view payload) {
  if (fd_ < 0) {
    return Status(StatusCode::kInternal, "record log is not open");
  }
  std::string record;
  record.reserve(kHeaderBytes + payload.size());
  record.push_back(static_cast<char>(kind));
  char fixed[4];
  EncodeFixed32(static_cast<uint32_t>(payload.size()), fixed);
  record.append(fixed, 4);
  EncodeFixed32(Crc32(payload), fixed);
  record.append(fixed, 4);
  record.append(payload);
  PILEUS_RETURN_IF_ERROR(WriteAll(fd_, record.data(), record.size(), path_));
  bytes_written_ += record.size();
  return Status::Ok();
}

Status RecordLog::Sync() {
  if (fd_ < 0) {
    return Status(StatusCode::kInternal, "record log is not open");
  }
  if (::fdatasync(fd_) != 0) {
    return Errno("fdatasync", path_);
  }
  return Status::Ok();
}

Status RecordLog::Reset() {
  if (fd_ < 0) {
    return Status(StatusCode::kInternal, "record log is not open");
  }
  if (::ftruncate(fd_, 0) != 0) {
    return Errno("ftruncate", path_);
  }
  bytes_written_ = 0;
  return Status::Ok();
}

void RecordLog::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<RecordLog::ReplayStats> RecordLog::Replay(
    const std::string& path,
    const std::function<Status(uint8_t, std::string_view)>& on_record,
    const std::function<bool(uint8_t)>& valid_kind) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  ReplayStats stats;
  if (fd < 0) {
    if (errno == ENOENT) {
      return stats;  // No log yet: empty history.
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

  size_t offset = 0;
  while (offset < contents.size()) {
    if (contents.size() - offset < kHeaderBytes) {
      stats.tail_torn = true;  // Partial header at EOF.
      break;
    }
    const auto* p =
        reinterpret_cast<const unsigned char*>(contents.data() + offset);
    const uint8_t kind = p[0];
    const uint32_t len = DecodeFixed32(p + 1);
    const uint32_t crc = DecodeFixed32(p + 5);
    if (valid_kind && !valid_kind(kind)) {
      return Status(StatusCode::kCorruption,
                    "log record with unknown kind at offset " +
                        std::to_string(offset));
    }
    if (len > kMaxPayload) {
      return Status(StatusCode::kCorruption,
                    "log record with absurd length at offset " +
                        std::to_string(offset));
    }
    if (contents.size() - offset - kHeaderBytes < len) {
      stats.tail_torn = true;  // Partial payload at EOF.
      break;
    }
    const std::string_view payload(contents.data() + offset + kHeaderBytes,
                                   len);
    if (Crc32(payload) != crc) {
      // A bad checksum on the *last* record is a torn tail; earlier it is
      // real corruption.
      if (offset + kHeaderBytes + len == contents.size()) {
        stats.tail_torn = true;
        break;
      }
      return Status(StatusCode::kCorruption,
                    "log record with bad checksum at offset " +
                        std::to_string(offset));
    }
    PILEUS_RETURN_IF_ERROR(on_record(kind, payload));
    ++stats.records;
    offset += kHeaderBytes + len;
  }
  return stats;
}

}  // namespace pileus::persist
