#include "gcs/monitor.h"

#include <algorithm>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/serialization.h"

namespace ray {
namespace gcs {

namespace {

// Measured scheduling slack of this host: the worst overshoot observed over
// a handful of short timed sleeps. This is the honest answer to "how late
// can a heartbeat be even though the node is alive?" — the heartbeat loop is
// itself a timed sleep, so whatever the kernel/sanitizer does to our probe
// it also does to every reporter. Probed once per process (first monitor
// construction) and cached: the point is calibrating to the environment, not
// tracking transient load. Floor 2ms (a perfect host still has timer
// granularity), ceiling 200ms (a pathological probe must not make detection
// windows unbounded).
int64_t SchedulingSlackUs() {
  static const int64_t slack = [] {
    constexpr int64_t kProbeSleepUs = 2'000;
    int64_t worst = 0;
    for (int i = 0; i < 5; ++i) {
      const int64_t start = NowMicros();
      SleepMicros(kProbeSleepUs);
      worst = std::max(worst, NowMicros() - start - kProbeSleepUs);
    }
    return std::min<int64_t>(200'000, std::max<int64_t>(worst, 2'000));
  }();
  return slack;
}

// Build-type safety factor on the measured slack. Sanitizers serialize and
// intercept enough that the probe understates tail latency (one probe run
// happens before the heavy instrumented load starts); debug builds are
// slower than the probe's straight-line sleep suggests too.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr int64_t kSlackMultiplier = 10;
#elif !defined(NDEBUG)
constexpr int64_t kSlackMultiplier = 4;
#else
constexpr int64_t kSlackMultiplier = 1;
#endif

}  // namespace

// --- LivenessView ---

LivenessView::LivenessView(GcsTables* tables) : tables_(tables) {
  // Subscribe before seeding: a record published in between is re-applied by
  // the seed fold, and membership records are idempotent to re-apply.
  sub_token_ = tables_->nodes.SubscribeMembership(
      [this](const NodeId& node, bool alive) { OnMembership(node, alive); });
  for (const auto& [node, alive] : tables_->nodes.GetAll()) {
    if (!alive) {
      WriterMutexLock lock(mu_);
      dead_.insert(node);
    }
  }
}

LivenessView::~LivenessView() { tables_->nodes.UnsubscribeMembership(sub_token_); }

bool LivenessView::IsDead(const NodeId& node) const {
  ReaderMutexLock lock(mu_);
  return dead_.count(node) > 0;
}

bool LivenessView::AnyAlive(const std::vector<NodeId>& nodes) const {
  ReaderMutexLock lock(mu_);
  for (const NodeId& node : nodes) {
    if (dead_.count(node) == 0) {
      return true;
    }
  }
  return false;
}

void LivenessView::OnMembership(const NodeId& node, bool alive) {
  bool newly_dead = false;
  {
    WriterMutexLock lock(mu_);
    if (alive) {
      dead_.erase(node);
    } else {
      newly_dead = dead_.insert(node).second;
    }
  }
  if (!newly_dead) {
    return;
  }
  deaths_observed_.fetch_add(1, std::memory_order_relaxed);
  // Copy callbacks out of the lock: a callback may add/remove others.
  std::vector<DeathCallback> cbs;
  {
    MutexLock lock(cb_mu_);
    cbs.reserve(callbacks_.size());
    for (const auto& [token, cb] : callbacks_) {
      cbs.push_back(cb);
    }
  }
  for (const auto& cb : cbs) {
    cb(node);
  }
}

uint64_t LivenessView::AddDeathCallback(DeathCallback callback) {
  MutexLock lock(cb_mu_);
  uint64_t token = next_cb_token_++;
  callbacks_.emplace(token, std::move(callback));
  return token;
}

void LivenessView::RemoveDeathCallback(uint64_t token) {
  MutexLock lock(cb_mu_);
  callbacks_.erase(token);
}

// --- GcsMonitor ---

GcsMonitor::GcsMonitor(GcsTables* tables, int64_t heartbeat_interval_us,
                       const MonitorConfig& config)
    : tables_(tables),
      config_(config),
      sweep_interval_us_(std::max<int64_t>(1'000, heartbeat_interval_us / 4)) {
  // Each missed interval is allowed the configured cadence plus the host's
  // measured (and build-scaled) scheduling slack. With the naive
  // miss_threshold * interval formula, a 20ms x 5 window was tighter than
  // one bad scheduling decision on a loaded or sanitized host, and test
  // scripts papered over it with per-script env widenings; deriving the
  // window from a measurement replaces that guesswork.
  detection_bound_us_ =
      static_cast<int64_t>(config_.miss_threshold) *
      (heartbeat_interval_us + kSlackMultiplier * SchedulingSlackUs());
  sweep_thread_ = std::thread([this] { SweepLoop(); });
}

GcsMonitor::~GcsMonitor() { Stop(); }

void GcsMonitor::Stop() {
  {
    MutexLock lock(stop_mu_);
    if (stop_) {
      return;
    }
    stop_ = true;
    stop_cv_.NotifyAll();
  }
  if (sweep_thread_.joinable()) {
    sweep_thread_.join();
  }
}

void GcsMonitor::SweepLoop() {
  MutexLock lock(stop_mu_);
  while (!stop_) {
    stop_cv_.WaitFor(stop_mu_, std::chrono::microseconds(sweep_interval_us_));
    if (stop_) {
      return;
    }
    lock.Unlock();
    Sweep(NowMicros());
    lock.Lock();
  }
}

void GcsMonitor::Sweep(int64_t now_us) {
  const int64_t stale_after = DetectionBoundUs();
  for (const auto& [node, alive] : tables_->nodes.GetAll()) {
    if (!alive) {
      observed_.erase(node);
      continue;
    }
    auto hb = tables_->nodes.GetHeartbeat(node);
    auto it = observed_.find(node);
    if (it == observed_.end()) {
      // First sighting (registration may precede the first heartbeat): start
      // the staleness clock now, granting a full detection window of grace.
      observed_.emplace(node, Observed{hb.ok() ? hb->seq : 0, now_us});
      continue;
    }
    if (hb.ok() && hb->seq != it->second.seq) {
      it->second.seq = hb->seq;
      it->second.last_change_us = now_us;
      continue;
    }
    if (now_us - it->second.last_change_us >= stale_after) {
      DeclareDead(node);
      observed_.erase(node);
    }
  }
}

void GcsMonitor::DeclareDead(const NodeId& node) {
  RAY_LOG(WARNING) << "monitor: node " << ToShortString(node) << " missed "
                   << config_.miss_threshold << " heartbeat intervals; declaring dead";
  // Durable cluster event (Profiler wire format: label + start/end stamps).
  // Written here — not by the dying node — because a crashed node reports
  // nothing; detection is the only place death is actually known.
  int64_t now = NowMicros();
  Writer w;
  Put(w, std::string("node-death:") + ToShortString(node));
  w.WritePod<int64_t>(now);
  w.WritePod<int64_t>(now);
  tables_->events.Append("cluster", w.Finish()->ToString());
  // Counted after the event and before the membership change, so whoever
  // sees the death, by the count or through a LivenessView, also sees what
  // came before it.
  deaths_declared_.fetch_add(1, std::memory_order_release);
  // The membership append is the death notification: every LivenessView
  // subscribes to it.
  tables_->nodes.MarkDead(node);
}

}  // namespace gcs
}  // namespace ray
