#include "common/logging.h"

#include <chrono>
#include <cstdio>

#include "common/sync.h"

namespace ray {

std::atomic<Logger::FatalHook> Logger::fatal_hook_{nullptr};

void Logger::RunFatalHook() {
  // Clear before running: if the hook itself hits a fatal check we abort
  // instead of recursing.
  FatalHook hook = fatal_hook_.exchange(nullptr, std::memory_order_acq_rel);
  if (hook != nullptr) {
    hook();
  }
}

void Logger::Emit(LogLevel level, const char* file, int line, const std::string& message) {
  static Mutex mu{"Logger.emit_mu"};
  static const char* kNames[] = {"DEBUG", "INFO", "WARN", "ERROR", "FATAL"};
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  auto now = std::chrono::system_clock::now().time_since_epoch();
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(now).count();
  MutexLock lock(mu);
  std::fprintf(stderr, "[%lld.%03lld %s %s:%d] %s\n", static_cast<long long>(ms / 1000),
               static_cast<long long>(ms % 1000), kNames[static_cast<int>(level)], base, line, message.c_str());
}

}  // namespace ray
