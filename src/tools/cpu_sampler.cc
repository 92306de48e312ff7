// CPU sampler for hosts without `perf`, loaded into any program with
// LD_PRELOAD (scripts/cpu_profile.py does that and symbolizes the output).
//
// A process-wide ITIMER_PROF raises SIGPROF once per interval of process CPU
// time (user + system, all threads). The handler records the interrupted PC
// and a short backtrace() of its callers into a preallocated array and
// allocates nothing (the unwinder is loaded before the timer starts). At
// exit the samples are written as module+offset frames, one line per
// distinct stack:
//
//   # ray-cpu-sampler 1
//   dropped <samples lost to a full array>
//   module <id> <path>                 (one per loaded object; id 0 = exe)
//   stack <count> <id>:<hex offset> ...  (leaf first)
//
// An offset is relative to the module's load bias, so it is the ELF virtual
// address addr2line and the module's symbol tables use. Caller frames are
// return addresses; the symbolizer steps them back into the call.
//
// RAY_CPU_PROFILE_OUT names the output file ("%p" becomes the pid, default
// cpu_profile.%p.raw). The timer asks for a sample per kIntervalUs of CPU
// time, but the kernel checks CPU timers once per tick, so the effective
// period is one tick of CPU time (4 ms at HZ=250).
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace {

constexpr int kMaxFrames = 24;
// Frames backtrace() sees above the interrupted one: this handler and the
// kernel's signal trampoline, plus slack for an inlined unwinder frame.
constexpr int kHandlerFrames = 4;
constexpr size_t kMaxSamples = 1 << 18;
constexpr long kIntervalUs = 1000;

// Lives in zero-filled mmap memory that is never constructed, so every
// field is a plain type; `ready` is published through std::atomic_ref.
struct Sample {
  bool ready;
  int depth;
  void* pcs[kMaxFrames];
};

Sample* g_samples = nullptr;
std::atomic<size_t> g_next{0};
std::atomic<bool> g_stopped{false};
pid_t g_pid = 0;  // a forked child inherits the samples but must not write them

void OnProf(int, siginfo_t*, void* context) {
  if (g_stopped.load(std::memory_order_relaxed)) {
    return;
  }
  int saved_errno = errno;
  size_t index = g_next.fetch_add(1, std::memory_order_relaxed);
  if (index < kMaxSamples) {
    Sample& s = g_samples[index];
    void* pc = reinterpret_cast<void*>(
        static_cast<ucontext_t*>(context)->uc_mcontext.gregs[REG_RIP]);
    void* frames[kMaxFrames + kHandlerFrames];
    int n = backtrace(frames, kMaxFrames + kHandlerFrames);
    s.pcs[0] = pc;
    s.depth = 1;
    // The unwinder reports the interrupted frame at its exact PC; its callers
    // follow. If the PC is not found (no unwind info), keep the leaf alone.
    for (int k = 0; k < n; ++k) {
      if (frames[k] != pc) {
        continue;
      }
      for (int c = k + 1; c < n && s.depth < kMaxFrames; ++c) {
        s.pcs[s.depth++] = frames[c];
      }
      break;
    }
    std::atomic_ref<bool>(s.ready).store(true, std::memory_order_release);
  }
  errno = saved_errno;
}

struct Module {
  std::string path;
  uintptr_t bias = 0;
  std::vector<std::pair<uintptr_t, uintptr_t>> ranges;  // executable segments
};

int CollectModule(dl_phdr_info* info, size_t, void* data) {
  auto* modules = static_cast<std::vector<Module>*>(data);
  Module m;
  m.path = info->dlpi_name != nullptr ? info->dlpi_name : "";
  m.bias = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const auto& ph = info->dlpi_phdr[i];
    if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X) != 0) {
      m.ranges.emplace_back(m.bias + ph.p_vaddr, m.bias + ph.p_vaddr + ph.p_memsz);
    }
  }
  if (modules->empty() && m.path.empty()) {
    char exe[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    m.path = len > 0 ? std::string(exe, static_cast<size_t>(len)) : "[exe]";
  }
  if (!m.path.empty() && !m.ranges.empty()) {
    modules->push_back(std::move(m));
  }
  return 0;
}

std::string OutputPath() {
  const char* env = std::getenv("RAY_CPU_PROFILE_OUT");
  std::string pattern = env != nullptr && *env != '\0' ? env : "cpu_profile.%p.raw";
  std::string path;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] == '%' && i + 1 < pattern.size() && pattern[i + 1] == 'p') {
      path += std::to_string(getpid());
      ++i;
    } else {
      path += pattern[i];
    }
  }
  return path;
}

__attribute__((constructor)) void StartSampler() {
  void* mem = mmap(nullptr, sizeof(Sample) * kMaxSamples, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) {
    std::fprintf(stderr, "cpu_sampler: cannot map the sample array; not profiling\n");
    return;
  }
  g_samples = static_cast<Sample*>(mem);
  g_pid = getpid();
  // The first backtrace() loads the unwinder; do that here, not in a handler.
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction sa = {};
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  itimerval timer = {};
  timer.it_interval.tv_usec = kIntervalUs;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void StopSampler() {
  if (g_samples == nullptr || getpid() != g_pid) {
    return;
  }
  itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  g_stopped.store(true, std::memory_order_relaxed);
  size_t claimed = g_next.load(std::memory_order_relaxed);
  size_t recorded = std::min(claimed, kMaxSamples);
  size_t dropped = claimed - recorded;

  std::vector<Module> modules;
  dl_iterate_phdr(CollectModule, &modules);
  auto frame_of = [&modules](void* p) {
    auto addr = reinterpret_cast<uintptr_t>(p);
    for (size_t id = 0; id < modules.size(); ++id) {
      for (const auto& [lo, hi] : modules[id].ranges) {
        if (addr >= lo && addr < hi) {
          char buf[48];
          std::snprintf(buf, sizeof(buf), "%zu:%lx", id,
                        static_cast<unsigned long>(addr - modules[id].bias));
          return std::string(buf);
        }
      }
    }
    return std::string("?:0");
  };
  std::map<std::string, uint64_t> stacks;
  std::map<void*, std::string> frames;
  for (size_t i = 0; i < recorded; ++i) {
    Sample& s = g_samples[i];
    if (!std::atomic_ref<bool>(s.ready).load(std::memory_order_acquire)) {
      continue;  // a handler was still writing when the timer stopped
    }
    std::string line;
    for (int d = 0; d < s.depth; ++d) {
      auto [it, fresh] = frames.try_emplace(s.pcs[d]);
      if (fresh) {
        it->second = frame_of(s.pcs[d]);
      }
      line += ' ';
      line += it->second;
    }
    ++stacks[line];
  }

  std::string path = OutputPath();
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cpu_sampler: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "# ray-cpu-sampler 1\ndropped %zu\n", dropped);
  for (size_t id = 0; id < modules.size(); ++id) {
    std::fprintf(out, "module %zu %s\n", id, modules[id].path.c_str());
  }
  for (const auto& [line, count] : stacks) {
    std::fprintf(out, "stack %lu%s\n", static_cast<unsigned long>(count), line.c_str());
  }
  std::fclose(out);
}

}  // namespace
