#include "common/status.h"

namespace ray {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kKeyNotFound:
      return "KeyNotFound";
    case StatusCode::kTimedOut:
      return "TimedOut";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kObjectLost:
      return "ObjectLost";
    case StatusCode::kNodeDead:
      return "NodeDead";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace ray
