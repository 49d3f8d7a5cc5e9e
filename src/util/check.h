// Lightweight runtime assertion macros used across the tap library.
//
// TAP_CHECK(cond) aborts the current operation with a std::runtime_error
// carrying the failing expression and source location. These are *logic*
// checks (precondition violations, malformed graphs), not recoverable
// errors, so exceptions are the right vehicle: callers either fix the input
// or let the process die with a useful message.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace tap {

/// Error thrown on any TAP_CHECK failure. Distinct type so tests can assert
/// on it without catching unrelated std::runtime_errors.
class CheckError : public std::runtime_error {
 public:
  explicit CheckError(const std::string& what)
      : std::runtime_error(what), message_(what) {}
  CheckError(const std::string& what, std::string message)
      : std::runtime_error(what), message_(std::move(message)) {}

  /// The streamed context alone ("'layers' must be an integer"), without
  /// the failed expression or source location: what may be shown to a
  /// client outside the process. Empty for a bare TAP_CHECK.
  const std::string& message() const { return message_; }

 private:
  std::string message_;
};

namespace detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "TAP_CHECK failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str(), msg);
}

// Streamable message collector so TAP_CHECK(x) << "context" works.
class CheckMessage {
 public:
  CheckMessage(const char* expr, const char* file, int line)
      : expr_(expr), file_(file), line_(line) {}

  template <typename T>
  CheckMessage& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

  [[noreturn]] ~CheckMessage() noexcept(false) {
    check_failed(expr_, file_, line_, os_.str());
  }

 private:
  const char* expr_;
  const char* file_;
  int line_;
  std::ostringstream os_;
};

}  // namespace detail
}  // namespace tap

#define TAP_CHECK(cond)                                            \
  if (cond) {                                                      \
  } else                                                           \
    ::tap::detail::CheckMessage(#cond, __FILE__, __LINE__)

#define TAP_CHECK_EQ(a, b) TAP_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define TAP_CHECK_NE(a, b) TAP_CHECK((a) != (b))
#define TAP_CHECK_LT(a, b) TAP_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define TAP_CHECK_LE(a, b) TAP_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define TAP_CHECK_GT(a, b) TAP_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "
#define TAP_CHECK_GE(a, b) TAP_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "
