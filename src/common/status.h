// Lightweight status / status-or types used across all Salamander libraries.
//
// The simulator is exception-free on its hot paths: every fallible operation
// returns a Status (or StatusOr<T>) that the caller must inspect. This keeps
// failure propagation explicit, which matters for a device model whose entire
// purpose is to *produce* failures (worn-out pages, decommissioned minidisks,
// bricked devices) that callers are expected to handle rather than unwind from.
#ifndef SALAMANDER_COMMON_STATUS_H_
#define SALAMANDER_COMMON_STATUS_H_

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace salamander {

// Canonical error space. Values are deliberately storage-flavoured: the
// interesting outcomes of an I/O against aging flash are not generic failures
// but specific, recoverable conditions (e.g. kDataLoss from an uncorrectable
// page, kCapacityExhausted from a shrunken device).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,    // caller bug: bad LBA, bad size, bad config
  kOutOfRange,         // address beyond the (possibly shrunken) device
  kNotFound,           // unmapped LBA, unknown minidisk, unknown chunk
  kFailedPrecondition, // operation illegal in current state (e.g. bricked)
  kResourceExhausted,  // no free flash pages / no spare blocks
  kCapacityExhausted,  // logical capacity shrank below what caller needs
  kDataLoss,           // uncorrectable bit errors: data is gone
  kDeviceFailed,       // whole device bricked
  kUnavailable,        // transient: retry may succeed (e.g. busy plane)
  kUnimplemented,
  kInternal,
};

// Human-readable name of a status code ("OK", "DATA_LOSS", ...).
std::string_view StatusCodeName(StatusCode code);

// A success-or-error result with an optional diagnostic message.
// The message lives in a shared immutable string that is null when there is
// none, so an OK status is a code plus a null pointer: building, copying and
// destroying one never touches the heap. Copying an error status shares its
// message instead of copying it.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  explicit Status(StatusCode code) : code_(code) {}
  Status(StatusCode code, std::string message) : code_(code) {
    if (!message.empty()) {
      message_ = std::make_shared<const std::string>(std::move(message));
    }
  }

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const {
    static const std::string kEmpty;
    return message_ ? *message_ : kEmpty;
  }

  // Full "CODE: message" rendering for logs and test failure output.
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_;
  std::shared_ptr<const std::string> message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

inline std::string Status::ToString() const {
  std::string out(StatusCodeName(code_));
  if (message_) {
    out += ": ";
    out += *message_;
  }
  return out;
}

inline std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kCapacityExhausted:
      return "CAPACITY_EXHAUSTED";
    case StatusCode::kDataLoss:
      return "DATA_LOSS";
    case StatusCode::kDeviceFailed:
      return "DEVICE_FAILED";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kUnimplemented:
      return "UNIMPLEMENTED";
    case StatusCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

// Convenience constructors, mirroring absl::*Error.
inline Status OkStatus() { return Status(); }
inline Status InvalidArgumentError(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status OutOfRangeError(std::string msg) {
  return Status(StatusCode::kOutOfRange, std::move(msg));
}
inline Status NotFoundError(std::string msg) {
  return Status(StatusCode::kNotFound, std::move(msg));
}
inline Status FailedPreconditionError(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status ResourceExhaustedError(std::string msg) {
  return Status(StatusCode::kResourceExhausted, std::move(msg));
}
inline Status CapacityExhaustedError(std::string msg) {
  return Status(StatusCode::kCapacityExhausted, std::move(msg));
}
inline Status DataLossError(std::string msg) {
  return Status(StatusCode::kDataLoss, std::move(msg));
}
inline Status DeviceFailedError(std::string msg) {
  return Status(StatusCode::kDeviceFailed, std::move(msg));
}
inline Status UnavailableError(std::string msg) {
  return Status(StatusCode::kUnavailable, std::move(msg));
}
inline Status InternalError(std::string msg) {
  return Status(StatusCode::kInternal, std::move(msg));
}

// Terminates with the offending status. Accessing value() on an error state
// is a caller bug; silently reading the empty optional would be UB, so this
// aborts in every build mode (assert() would vanish under NDEBUG).
[[noreturn]] inline void DieOnBadStatusOrAccess(const Status& status) {
  std::fprintf(stderr, "StatusOr::value() called on error status: %s\n",
               status.ToString().c_str());
  std::abort();
}

// Value-or-error. Accessing value() on an error status aborts (in all build
// modes); callers are expected to check ok() first (the [[nodiscard]] on the
// factory functions plus tests enforce the discipline).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(runtime/explicit)
    assert(!status_.ok() && "OK StatusOr must carry a value");
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    if (!ok()) {
      DieOnBadStatusOrAccess(status_);
    }
    return *value_;
  }
  T& value() & {
    if (!ok()) {
      DieOnBadStatusOrAccess(status_);
    }
    return *value_;
  }
  T&& value() && {
    if (!ok()) {
      DieOnBadStatusOrAccess(status_);
    }
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  // Returns the contained value or `fallback` when in the error state.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace salamander

// Propagate-on-error helpers. Usage:
//   SALA_RETURN_IF_ERROR(device.Write(lba, data));
//   SALA_ASSIGN_OR_RETURN(auto page, ftl.Lookup(lba));
#define SALA_RETURN_IF_ERROR(expr)              \
  do {                                          \
    ::salamander::Status sala_status_ = (expr); \
    if (!sala_status_.ok()) {                   \
      return sala_status_;                      \
    }                                           \
  } while (0)

#define SALA_CONCAT_INNER_(a, b) a##b
#define SALA_CONCAT_(a, b) SALA_CONCAT_INNER_(a, b)

#define SALA_ASSIGN_OR_RETURN(decl, expr)                        \
  auto SALA_CONCAT_(sala_statusor_, __LINE__) = (expr);          \
  if (!SALA_CONCAT_(sala_statusor_, __LINE__).ok()) {            \
    return SALA_CONCAT_(sala_statusor_, __LINE__).status();      \
  }                                                              \
  decl = std::move(SALA_CONCAT_(sala_statusor_, __LINE__)).value()

#endif  // SALAMANDER_COMMON_STATUS_H_
