#ifndef DBA_COMMON_STATUS_H_
#define DBA_COMMON_STATUS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace dba {

/// Error categories used across the library. Values are stable and may be
/// serialized in logs; append new codes at the end.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kFailedPrecondition = 3,
  kResourceExhausted = 4,
  kInternal = 5,
  kUnimplemented = 6,
  kNotFound = 7,
  kAlreadyExists = 8,
  kDeadlineExceeded = 9,
  kUnavailable = 10,
  kDataLoss = 11,
  /// Shed by an admission-control rate limit (a per-tenant token bucket
  /// ran dry). Distinct from kResourceExhausted: the *service* is fine,
  /// the *caller* exceeded its contract and should back off.
  kRateLimited = 12,
};

/// Returns a short human-readable name for `code` ("OK", "InvalidArgument"...).
std::string_view StatusCodeToString(StatusCode code);

/// Failure codes worth re-executing: the attempt may succeed on a retry
/// (a tripped watchdog, a dropped transfer, detected data corruption).
/// Anything else -- bad inputs, missing indexes, sheds -- fails at once.
inline bool IsTransient(StatusCode code) {
  return code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kUnavailable || code == StatusCode::kDataLoss;
}

/// Lightweight status object modelled after absl::Status / rocksdb::Status.
///
/// The library does not use exceptions: fallible operations return `Status`
/// (or `Result<T>` when they also produce a value). An OK status carries no
/// message and no allocation.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status RateLimited(std::string msg) {
    return Status(StatusCode::kRateLimited, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Either a value of type T or a non-OK Status. Modelled after
/// absl::StatusOr. Accessing the value of a non-OK Result aborts.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value or an error keeps call sites terse:
  ///   Result<int> F() { if (bad) return Status::InvalidArgument("..."); return 42; }
  Result(T value) : storage_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status)                            // NOLINT(google-explicit-constructor)
      : storage_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(storage_); }

  Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(storage_);
  }

  const T& value() const& {
    AbortIfError();
    return std::get<T>(storage_);
  }
  T& value() & {
    AbortIfError();
    return std::get<T>(storage_);
  }
  T&& value() && {
    AbortIfError();
    return std::get<T>(std::move(storage_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void AbortIfError() const;

  std::variant<T, Status> storage_;
};

namespace internal_status {
[[noreturn]] void DieOnBadResultAccess(const Status& status);
}  // namespace internal_status

template <typename T>
void Result<T>::AbortIfError() const {
  if (!ok()) internal_status::DieOnBadResultAccess(std::get<Status>(storage_));
}

}  // namespace dba

/// Propagates a non-OK status from an expression, RocksDB-style.
#define DBA_RETURN_IF_ERROR(expr)                        \
  do {                                                   \
    ::dba::Status dba_return_if_error_status = (expr);   \
    if (!dba_return_if_error_status.ok())                \
      return dba_return_if_error_status;                 \
  } while (false)

/// Evaluates a Result<T> expression and assigns its value, or propagates
/// the error. Usage: DBA_ASSIGN_OR_RETURN(auto x, ComputeX());
#define DBA_ASSIGN_OR_RETURN(decl, expr)                        \
  DBA_ASSIGN_OR_RETURN_IMPL_(                                   \
      DBA_STATUS_CONCAT_(dba_result_, __LINE__), decl, expr)
#define DBA_ASSIGN_OR_RETURN_IMPL_(tmp, decl, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  decl = std::move(tmp).value()
#define DBA_STATUS_CONCAT_(a, b) DBA_STATUS_CONCAT_IMPL_(a, b)
#define DBA_STATUS_CONCAT_IMPL_(a, b) a##b

#endif  // DBA_COMMON_STATUS_H_
