#include "common/logging.h"

#include <cstdio>

namespace blockplane {

namespace {

LogLevel g_level = LogLevel::kWarning;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarning:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF  ";
  }
  return "?????";
}

}  // namespace

void Logger::SetLevel(LogLevel level) { g_level = level; }

LogLevel Logger::level() { return g_level; }

void Logger::Write(LogLevel level, const std::string& msg) {
  if (level < g_level) return;
  std::fprintf(stderr, "[%s] %s\n", LevelName(level), msg.c_str());
}

}  // namespace blockplane
