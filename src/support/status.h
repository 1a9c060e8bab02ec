// certkit support: Status / Result<T> — recoverable-error propagation.
//
// Status carries an error code and a human-readable message; Result<T> is a
// Status plus a value on success. These are the return types for operations
// that can fail for environmental reasons (missing files, unparseable input).
#ifndef CERTKIT_SUPPORT_STATUS_H_
#define CERTKIT_SUPPORT_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "support/check.h"

namespace certkit::support {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIoError,
  kParseError,
  kOutOfRange,
  kInternal,
};

// Short, stable name for a StatusCode (e.g. "NOT_FOUND").
const char* StatusCodeName(StatusCode code);

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "IO_ERROR: cannot open foo.cc".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status InvalidArgumentError(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status NotFoundError(std::string msg) {
  return Status(StatusCode::kNotFound, std::move(msg));
}
inline Status IoError(std::string msg) {
  return Status(StatusCode::kIoError, std::move(msg));
}
inline Status ParseError(std::string msg) {
  return Status(StatusCode::kParseError, std::move(msg));
}

// Result<T>: either an OK status with a value, or a non-OK status.
// Accessing value() on a failed Result is a contract violation.
template <typename T>
class Result {
 public:
  Result(T value) : status_(), value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {      // NOLINT(google-explicit-constructor)
    CERTKIT_CHECK_MSG(!status_.ok(), "Result constructed from OK status without a value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CERTKIT_CHECK_MSG(ok(), "Result::value() on error: " << status_.ToString());
    return *value_;
  }
  T& value() & {
    CERTKIT_CHECK_MSG(ok(), "Result::value() on error: " << status_.ToString());
    return *value_;
  }
  T&& value() && {
    CERTKIT_CHECK_MSG(ok(), "Result::value() on error: " << status_.ToString());
    return std::move(*value_);
  }

  const T& value_or(const T& fallback) const& {
    return ok() ? *value_ : fallback;
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace certkit::support

#endif  // CERTKIT_SUPPORT_STATUS_H_
