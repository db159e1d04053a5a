// Minimal leveled logging. Off by default above WARNING so that benches and
// tests stay quiet; flip with Logger::SetLevel.
#ifndef BLOCKPLANE_COMMON_LOGGING_H_
#define BLOCKPLANE_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace blockplane {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

class Logger {
 public:
  static void SetLevel(LogLevel level);
  static LogLevel level();
  static void Write(LogLevel level, const std::string& msg);
};

namespace internal_logging {

class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { Logger::Write(level_, stream_.str()); }

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal_logging
}  // namespace blockplane

#define BP_LOG(severity)                                                  \
  if (::blockplane::LogLevel::severity >= ::blockplane::Logger::level())  \
  ::blockplane::internal_logging::LogMessage(                             \
      ::blockplane::LogLevel::severity)

#endif  // BLOCKPLANE_COMMON_LOGGING_H_
