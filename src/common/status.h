// Status and Result<T>: exception-free error handling for the Pileus library.
//
// All fallible public APIs return either a Status (operations with no payload)
// or a Result<T> (operations that produce a value). Error codes mirror the
// conditions a distributed key-value store can surface to applications,
// including the SLA-specific "unavailable" outcome the paper defines as the
// inability to satisfy any subSLA (Section 3.3).

#ifndef PILEUS_SRC_COMMON_STATUS_H_
#define PILEUS_SRC_COMMON_STATUS_H_

#include <cassert>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace pileus {

// The numbers are wire values (ErrorReply): a code keeps its number, and the
// retired 2, 8 and 12 stay unassigned, so a peer that still sends one gets
// kCorruption instead of another code's meaning.
enum class StatusCode : int {
  kOk = 0,
  kNotFound = 1,          // Key or table does not exist.
  kInvalidArgument = 3,   // Malformed request, SLA, or configuration.
  kTimeout = 4,           // An RPC or Get deadline expired.
  kUnavailable = 5,       // No subSLA could be met (paper Section 3.3).
  kWrongNode = 6,         // Request sent to a node that does not own the key.
  kNotPrimary = 7,        // Put or strong read sent to a non-primary node.
  kCorruption = 9,        // Wire decoding or checksum failure.
  kInternal = 10,         // Invariant violation; indicates a bug.
  kCancelled = 11,        // Operation aborted by the caller.
  kOverloaded = 13,       // Admission control shed the request; retry later.
  kWrongTablet = 14,      // Key's tablet lives elsewhere; refresh the tablet
                          // map (the rejection carries the owner as a hint).
};

// Largest valid StatusCode value; wire decoders reject anything above it.
inline constexpr StatusCode kMaxStatusCode = StatusCode::kWrongTablet;

// Human-readable name of a status code ("OK", "NOT_FOUND", ...); "UNKNOWN"
// for a value that is no StatusCode.
std::string_view StatusCodeName(StatusCode code);

// Whether a wire value names a StatusCode: false above kMaxStatusCode and
// for the retired 2, 8 and 12.
bool IsStatusCode(uint64_t value);

// A success-or-error value. Cheap to copy on the success path (no message
// allocation); error paths carry a context string.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  explicit Status(StatusCode code) : code_(code) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "NOT_FOUND: key 'x' missing" or "OK".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }
  bool operator!=(const Status& other) const { return !(*this == other); }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

// Result<T> holds either a T or a non-OK Status. Accessing the value of an
// error result is a programming error (asserted in debug builds).
template <typename T>
class Result {
 public:
  // Intentionally implicit so callers can `return value;` / `return status;`.
  Result(T value) : data_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : data_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(data_).ok() && "Result given an OK status with no value");
  }
  Result(StatusCode code, std::string message)
      : data_(Status(code, std::move(message))) {}

  bool ok() const { return std::holds_alternative<T>(data_); }

  Status status() const {
    if (ok()) {
      return Status::Ok();
    }
    return std::get<Status>(data_);
  }

  const T& value() const& {
    assert(ok() && "Result::value() on error");
    return std::get<T>(data_);
  }
  T& value() & {
    assert(ok() && "Result::value() on error");
    return std::get<T>(data_);
  }
  T&& value() && {
    assert(ok() && "Result::value() on error");
    return std::get<T>(std::move(data_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  // Returns the value or, on error, the provided default.
  T value_or(T fallback) const {
    return ok() ? std::get<T>(data_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> data_;
};

// Propagate a non-OK Status out of the enclosing function.
#define PILEUS_RETURN_IF_ERROR(expr)        \
  do {                                      \
    ::pileus::Status _st = (expr);          \
    if (!_st.ok()) {                        \
      return _st;                           \
    }                                       \
  } while (0)

}  // namespace pileus

#endif  // PILEUS_SRC_COMMON_STATUS_H_
