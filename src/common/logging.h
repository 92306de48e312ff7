// Leveled logging with stream syntax: RAY_LOG(INFO) << "...";
// Severity is filtered globally: DEBUG statements compile but never print.
#ifndef RAY_COMMON_LOGGING_H_
#define RAY_COMMON_LOGGING_H_

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <string>

namespace ray {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

class Logger {
 public:
  // Runs once, right before a fatal message aborts the process — the trace
  // flight recorder hooks in here to dump a postmortem timeline.
  using FatalHook = void (*)();

  static constexpr LogLevel Threshold() { return LogLevel::kInfo; }
  static void Emit(LogLevel level, const char* file, int line, const std::string& message);
  static void SetFatalHook(FatalHook hook) { fatal_hook_.store(hook, std::memory_order_release); }
  static void RunFatalHook();

 private:
  static std::atomic<FatalHook> fatal_hook_;
};

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line) : level_(level), file_(file), line_(line) {}
  ~LogMessage() {
    Logger::Emit(level_, file_, line_, stream_.str());
    if (level_ == LogLevel::kFatal) {
      Logger::RunFatalHook();
      std::abort();
    }
  }

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

// Consumes the stream operands of a disabled log statement with zero work.
class NullLog {
 public:
  template <typename T>
  NullLog& operator<<(const T&) {
    return *this;
  }
};

}  // namespace ray

#define RAY_LOG_INTERNAL(level)                                                   \
  (::ray::LogLevel::level < ::ray::Logger::Threshold())                           \
      ? (void)0                                                                   \
      : (void)(::ray::LogMessage(::ray::LogLevel::level, __FILE__, __LINE__))

#define RAY_LOG(severity) RAY_LOG_IMPL_##severity
#define RAY_LOG_IMPL_DEBUG \
  if (::ray::LogLevel::kDebug >= ::ray::Logger::Threshold()) ::ray::LogMessage(::ray::LogLevel::kDebug, __FILE__, __LINE__)
#define RAY_LOG_IMPL_INFO \
  if (::ray::LogLevel::kInfo >= ::ray::Logger::Threshold()) ::ray::LogMessage(::ray::LogLevel::kInfo, __FILE__, __LINE__)
#define RAY_LOG_IMPL_WARNING \
  if (::ray::LogLevel::kWarning >= ::ray::Logger::Threshold()) ::ray::LogMessage(::ray::LogLevel::kWarning, __FILE__, __LINE__)
#define RAY_LOG_IMPL_ERROR \
  if (::ray::LogLevel::kError >= ::ray::Logger::Threshold()) ::ray::LogMessage(::ray::LogLevel::kError, __FILE__, __LINE__)
#define RAY_LOG_IMPL_FATAL ::ray::LogMessage(::ray::LogLevel::kFatal, __FILE__, __LINE__)

#define RAY_CHECK(cond)                                        \
  if (!(cond)) RAY_LOG(FATAL) << "Check failed: " #cond " "

#endif  // RAY_COMMON_LOGGING_H_
