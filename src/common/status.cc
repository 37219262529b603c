#include "src/common/status.h"

namespace pileus {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kTimeout:
      return "TIMEOUT";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kWrongNode:
      return "WRONG_NODE";
    case StatusCode::kNotPrimary:
      return "NOT_PRIMARY";
    case StatusCode::kCorruption:
      return "CORRUPTION";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kCancelled:
      return "CANCELLED";
    case StatusCode::kOverloaded:
      return "OVERLOADED";
    case StatusCode::kWrongTablet:
      return "WRONG_TABLET";
  }
  return "UNKNOWN";
}

bool IsStatusCode(uint64_t value) {
  // The switch above names every enumerator and nothing else.
  return value <= static_cast<uint64_t>(kMaxStatusCode) &&
         StatusCodeName(static_cast<StatusCode>(value)) != "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out(StatusCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace pileus
