// Error handling. The system layer reports failures via Status / Result<T>
// rather than exceptions so that failure paths (node death, lost objects,
// timeouts) are explicit in every signature they flow through.
#ifndef RAY_COMMON_STATUS_H_
#define RAY_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace ray {

enum class StatusCode {
  kOk = 0,
  kKeyNotFound,
  kTimedOut,
  kInvalidArgument,
  kObjectLost,      // object's plasma copies all disappeared (node death)
  kNodeDead,        // target node is not alive
  kResourceExhausted,
  kUnavailable,     // component is shut down or temporarily unreachable
  kInternal,
};

const char* StatusCodeName(StatusCode code);

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status KeyNotFound(std::string msg = "") { return {StatusCode::kKeyNotFound, std::move(msg)}; }
  static Status TimedOut(std::string msg = "") { return {StatusCode::kTimedOut, std::move(msg)}; }
  static Status InvalidArgument(std::string msg = "") { return {StatusCode::kInvalidArgument, std::move(msg)}; }
  static Status ObjectLost(std::string msg = "") { return {StatusCode::kObjectLost, std::move(msg)}; }
  static Status NodeDead(std::string msg = "") { return {StatusCode::kNodeDead, std::move(msg)}; }
  static Status ResourceExhausted(std::string msg = "") {
    return {StatusCode::kResourceExhausted, std::move(msg)};
  }
  static Status Unavailable(std::string msg = "") { return {StatusCode::kUnavailable, std::move(msg)}; }
  static Status Internal(std::string msg = "") { return {StatusCode::kInternal, std::move(msg)}; }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) { return a.code_ == b.code_; }

 private:
  StatusCode code_;
  std::string message_;
};

// A value or a Status error. Minimal expected<T, Status>.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : value_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!std::get<Status>(value_).ok() && "Result error must not be OK");
  }

  bool ok() const { return std::holds_alternative<T>(value_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    assert(ok());
    return std::get<T>(value_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(value_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(value_));
  }

  Status status() const {
    if (ok()) {
      return Status::Ok();
    }
    return std::get<Status>(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  T value_or(T fallback) const {
    if (ok()) {
      return value();
    }
    return fallback;
  }

 private:
  std::variant<T, Status> value_;
};

#define RAY_RETURN_NOT_OK(expr)       \
  do {                                \
    ::ray::Status _s = (expr);        \
    if (!_s.ok()) {                   \
      return _s;                      \
    }                                 \
  } while (0)

}  // namespace ray

#endif  // RAY_COMMON_STATUS_H_
