// Debug-build runtime lock-order (deadlock) checker, paired with the Clang
// Thread Safety Analysis annotations in common/sync.h. TSA is
// intra-procedural: it proves "this access holds the right lock" but cannot
// see lock *ordering* across call chains. Lockdep fills that gap at runtime:
//
//   - every ray::Mutex / ray::SharedMutex registers a site (unique id + name)
//     at construction;
//   - each acquisition records directed edges {held lock -> acquired lock}
//     into a global order graph, remembering the acquiring call stack the
//     first time an edge appears;
//   - a new edge that closes a cycle is a potential deadlock: the checker
//     reports the current acquisition stack plus the recorded stack of every
//     edge on the cycle, then aborts (tests may install a handler instead);
//   - a fiber that parks while its carrier's held-lock stack is non-empty
//     breaks the blocking rule in common/fiber.h and is reported the same
//     way (BeforePark);
//   - fibers of a deterministic-simulation run (common/dst.h) skip both
//     checks: they interleave critical sections on one carrier and so share
//     its held-lock stack, and the explorer reports a lock cycle itself, as
//     a deadlock of all-parked fibers.
//
// Cost model: the held-lock stack is thread-local; a per-thread edge cache
// means the global graph (guarded by one spin lock) is touched only the first
// time a given thread sees a given edge. In release builds (NDEBUG) the whole
// subsystem compiles away: ray::Mutex is layout-identical to std::mutex and
// no lockdep symbol is emitted (tests/lockdep_test.cc checks both).
//
// Deliberately not std::mutex-based: lockdep hooks run inside Mutex::Lock, so
// its own state is guarded by a raw atomic spin lock to avoid recursion (and
// to keep src/ free of unannotated std primitives outside common/sync.h).
#ifndef RAY_COMMON_LOCKDEP_H_
#define RAY_COMMON_LOCKDEP_H_

#include <cstdint>

#if !defined(NDEBUG) && !defined(RAY_NO_LOCKDEP)
#define RAY_LOCKDEP 1
#endif

#ifdef RAY_LOCKDEP

#include <execinfo.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace ray {
namespace lockdep {

// One registered lock instance. Ids are monotonically assigned and never
// reused, so stale thread-local cache entries for destroyed locks are inert.
struct Site {
  uint64_t id = 0;
  const char* name = "ray::Mutex";
};

// Installed handler receives the full human-readable report (a cycle or a
// park under a lock) instead of the default print-and-abort. Used by tests
// to assert on detection.
using CycleHandler = void (*)(const std::string& report);

namespace detail {

constexpr int kMaxFrames = 24;

struct Backtrace {
  void* frames[kMaxFrames];
  int depth = 0;

  void Capture() { depth = ::backtrace(frames, kMaxFrames); }

  void AppendTo(std::string* out) const {
    char** symbols = ::backtrace_symbols(frames, depth);
    for (int i = 0; i < depth; ++i) {
      out->append("      ");
      out->append(symbols != nullptr ? symbols[i] : "<unknown frame>");
      out->append("\n");
    }
    if (symbols != nullptr) {
      std::free(symbols);
    }
  }
};

// "A was acquired while B (and possibly others) were held": recorded once per
// ordered pair, with the stack of the acquisition that created it.
struct Edge {
  std::string from_name;
  std::string to_name;
  Backtrace stack;
};

// Test-and-set spin lock. Lockdep cannot use ray::Mutex (its hooks would
// recurse into lockdep) and must not use std::mutex (the annotated wrappers
// in sync.h are the only place raw std primitives are allowed).
class SpinLock {
 public:
  void Lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
    }
  }
  void Unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

struct SpinGuard {
  explicit SpinGuard(SpinLock& lock) : lock_(lock) { lock_.Lock(); }
  ~SpinGuard() { lock_.Unlock(); }
  SpinLock& lock_;
};

inline uint64_t EdgeKey(uint64_t from, uint64_t to) { return (from << 32) ^ to; }

struct Graph {
  SpinLock mu;
  uint64_t next_id = 1;
  // Adjacency + reverse adjacency so Unregister can purge both directions.
  std::unordered_map<uint64_t, std::unordered_map<uint64_t, Edge>> out;
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> in;
  std::atomic<CycleHandler> handler{nullptr};
  std::atomic<uint64_t> cycles_reported{0};

  static Graph& Instance() {
    static Graph* graph = new Graph();  // leaked: outlives static destructors
    return *graph;
  }

  // Depth-first search for a path `from` -> ... -> `to` in the order graph,
  // appending the path's node ids (excluding `from`) to `path`.
  bool FindPath(uint64_t from, uint64_t to, std::unordered_set<uint64_t>* seen,
                std::vector<uint64_t>* path) {
    if (from == to) {
      return true;
    }
    if (!seen->insert(from).second) {
      return false;
    }
    auto it = out.find(from);
    if (it == out.end()) {
      return false;
    }
    for (const auto& [next, edge] : it->second) {
      path->push_back(next);
      if (FindPath(next, to, seen, path)) {
        return true;
      }
      path->pop_back();
    }
    return false;
  }
};

// Hands a finished report to the installed handler, or prints and aborts.
inline void Report(const std::string& report) {
  CycleHandler handler = Graph::Instance().handler.load(std::memory_order_acquire);
  if (handler != nullptr) {
    handler(report);
    return;
  }
  std::fputs(report.c_str(), stderr);
  std::fflush(stderr);
  std::abort();
}

// Per-thread state. `held` is the stack of currently-held lock sites;
// `edge_cache` short-circuits the global graph for edges this thread already
// recorded (ids are never reused, so entries can only go stale harmlessly).
struct ThreadState {
  std::vector<const Site*> held;
  std::unordered_set<uint64_t> edge_cache;
};

inline ThreadState& Thread() {
  thread_local ThreadState state;
  return state;
}

}  // namespace detail

constexpr bool Enabled() { return true; }

inline void SetCycleHandler(CycleHandler handler) {
  detail::Graph::Instance().handler.store(handler, std::memory_order_release);
}

inline uint64_t NumCyclesReported() {
  return detail::Graph::Instance().cycles_reported.load(std::memory_order_acquire);
}

inline void Register(Site* site, const char* name) {
  auto& graph = detail::Graph::Instance();
  detail::SpinGuard guard(graph.mu);
  site->id = graph.next_id++;
  site->name = name;
}

inline void Unregister(Site* site) {
  auto& graph = detail::Graph::Instance();
  detail::SpinGuard guard(graph.mu);
  // Purge the node from both directions so the graph stays bounded by the
  // set of live locks (short-lived mutexes would otherwise accrete forever).
  if (auto it = graph.out.find(site->id); it != graph.out.end()) {
    for (const auto& [to, edge] : it->second) {
      if (auto rit = graph.in.find(to); rit != graph.in.end()) {
        rit->second.erase(site->id);
      }
    }
    graph.out.erase(it);
  }
  if (auto rit = graph.in.find(site->id); rit != graph.in.end()) {
    for (uint64_t from : rit->second) {
      if (auto it = graph.out.find(from); it != graph.out.end()) {
        it->second.erase(site->id);
      }
    }
    graph.in.erase(rit);
  }
}

// Called before blocking on `site` (so a potential deadlock aborts instead of
// actually deadlocking). Records {held -> site} edges and checks each new
// edge for a cycle.
inline void BeforeAcquire(const Site& site) {
  auto& thread = detail::Thread();
  if (thread.held.empty()) {
    return;
  }
  auto& graph = detail::Graph::Instance();
  for (const Site* held : thread.held) {
    uint64_t key = detail::EdgeKey(held->id, site.id);
    if (!thread.edge_cache.insert(key).second) {
      continue;  // this thread already recorded the edge; cycle-checked then
    }
    std::string report;
    {
      detail::SpinGuard guard(graph.mu);
      auto& slot = graph.out[held->id];
      if (slot.find(site.id) != slot.end()) {
        continue;  // another thread recorded it; already cycle-checked
      }
      // Cycle check BEFORE inserting: does site already reach held?
      std::unordered_set<uint64_t> seen;
      std::vector<uint64_t> path;
      if (held->id == site.id ||
          graph.FindPath(site.id, held->id, &seen, &path)) {
        report.append("lockdep: lock-order inversion (potential deadlock)\n");
        report.append("  acquiring \"").append(site.name);
        report.append("\" while holding \"").append(held->name).append("\"\n");
        if (held->id == site.id) {
          report.append("  (recursive acquisition of a non-recursive lock)\n");
        } else {
          report.append("  but the reverse order was previously recorded:\n");
          uint64_t from = site.id;
          std::string from_name = site.name;
          for (uint64_t to : path) {
            const detail::Edge& edge = graph.out[from][to];
            report.append("    \"").append(edge.to_name);
            report.append("\" acquired while holding \"").append(from_name);
            report.append("\" at:\n");
            edge.stack.AppendTo(&report);
            from = to;
            from_name = edge.to_name;
          }
        }
        report.append("  current acquisition (\"").append(held->name);
        report.append("\" -> \"").append(site.name).append("\") at:\n");
        detail::Backtrace current;
        current.Capture();
        current.AppendTo(&report);
        graph.cycles_reported.fetch_add(1, std::memory_order_acq_rel);
      } else {
        detail::Edge edge;
        edge.from_name = held->name;
        edge.to_name = site.name;
        edge.stack.Capture();
        slot.emplace(site.id, std::move(edge));
        graph.in[site.id].insert(held->id);
      }
    }
    if (!report.empty()) {
      detail::Report(report);
    }
  }
}

// Called by fiber::ParkUntil. A fiber must not park holding a lock other than
// the one its CondVar wait released (already off the held stack by then): on
// a one-carrier node the park deadlocks every fiber that needs the lock, and
// the fiber may resume on another carrier, leaving this thread's held stack
// wrong.
inline void BeforePark() {
  const auto& held = detail::Thread().held;
  if (held.empty()) {
    return;
  }
  std::string report("lockdep: fiber parks while holding");
  for (const Site* site : held) {
    report.append(" \"").append(site->name).append("\"");
  }
  report.append("\n  park at:\n");
  detail::Backtrace current;
  current.Capture();
  current.AppendTo(&report);
  detail::Report(report);
}

// Called once the lock is actually held (blocking or successful try-lock).
inline void AfterAcquire(const Site& site) {
  detail::Thread().held.push_back(&site);
}

// Try-locks cannot deadlock, so they skip BeforeAcquire's cycle check but
// still appear on the held stack (they order *subsequent* acquisitions).
inline void AfterTryAcquire(const Site& site) { AfterAcquire(site); }

inline void OnRelease(const Site& site) {
  auto& held = detail::Thread().held;
  // Releases are usually LIFO but manual Unlock() may interleave: search from
  // the top for the matching entry.
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (*it == &site) {
      held.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace lockdep
}  // namespace ray

#else  // !RAY_LOCKDEP: everything degrades to zero-size, zero-cost stubs.

namespace ray {
namespace lockdep {

struct Site {};

using CycleHandler = void (*)(const char* report);

constexpr bool Enabled() { return false; }
inline void SetCycleHandler(CycleHandler) {}
inline uint64_t NumCyclesReported() { return 0; }
inline void Register(Site*, const char*) {}
inline void Unregister(Site*) {}
inline void BeforeAcquire(const Site&) {}
inline void BeforePark() {}
inline void AfterAcquire(const Site&) {}
inline void AfterTryAcquire(const Site&) {}
inline void OnRelease(const Site&) {}

}  // namespace lockdep
}  // namespace ray

#endif  // RAY_LOCKDEP

#endif  // RAY_COMMON_LOCKDEP_H_
