#include "tools/chaos.h"

#include <algorithm>
#include <chrono>

#include "common/clock.h"
#include "common/logging.h"

namespace ray {
namespace tools {

namespace {
constexpr int64_t kTickIntervalUs = 20'000;  // one fault-injection decision per tick
// Per-tick probabilities of starting each fault kind.
constexpr double kKillProbability = 0.10;
constexpr double kPartitionProbability = 0.15;
constexpr double kThrottleProbability = 0.10;
constexpr int64_t kRejoinDelayUs = 80'000;        // fresh node joins this long after a kill
constexpr int64_t kPartitionDurationUs = 40'000;  // heal deadline for a partition
constexpr int64_t kThrottleDurationUs = 40'000;   // heal deadline for a throttle
constexpr double kThrottleScale = 0.25;           // effective-bandwidth multiplier
constexpr size_t kMaxConcurrentPartitions = 2;
}  // namespace

ChaosSchedule::ChaosSchedule(Cluster* cluster, const ChaosConfig& config)
    : cluster_(cluster), config_(config), rng_(config.seed) {}

ChaosSchedule::~ChaosSchedule() { Stop(); }

void ChaosSchedule::Protect(const NodeId& node) { protected_.insert(node); }

void ChaosSchedule::Start() {
  {
    MutexLock lock(stop_mu_);
    if (!stop_) {
      return;
    }
    stop_ = false;
  }
  thread_ = std::thread([this] { Loop(); });
}

void ChaosSchedule::Stop() {
  {
    MutexLock lock(stop_mu_);
    if (stop_) {
      return;
    }
    stop_ = true;
    stop_cv_.NotifyAll();
  }
  if (thread_.joinable()) {
    thread_.join();
  }
  // Heal the world: outstanding partitions and throttles are lifted, pending
  // rejoins land now, and the wire-level chaos knobs go quiet, so whatever
  // the workload still has in flight can drain against a healthy fabric.
  SimNetwork& net = cluster_->net();
  for (auto& [due, pair] : partition_heals_) {
    net.SetPartitioned(pair.first, pair.second, false);
  }
  partition_heals_.clear();
  for (auto& [due, node] : throttle_heals_) {
    net.SetNodeBandwidthScale(node, 1.0);
  }
  throttle_heals_.clear();
  for (size_t i = 0; i < rejoins_due_us_.size(); ++i) {
    cluster_->AddNode();
  }
  {
    MutexLock lock(mu_);
    stats_.rejoins += rejoins_due_us_.size();
  }
  rejoins_due_us_.clear();
  net.DisableChaos();
}

ChaosSchedule::Stats ChaosSchedule::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

std::vector<NodeId> ChaosSchedule::AliveNodes() {
  std::vector<NodeId> alive;
  size_t n = cluster_->NumNodes();
  for (size_t i = 0; i < n; ++i) {
    Node& node = cluster_->node(i);
    if (node.IsAlive()) {
      alive.push_back(node.id());
    }
  }
  return alive;
}

std::vector<NodeId> ChaosSchedule::KillableNodes() {
  std::vector<NodeId> killable = AliveNodes();
  killable.erase(std::remove_if(killable.begin(), killable.end(),
                                [&](const NodeId& id) { return protected_.count(id) > 0; }),
                 killable.end());
  return killable;
}

void ChaosSchedule::Loop() {
  MutexLock lock(stop_mu_);
  while (!stop_) {
    stop_cv_.WaitFor(stop_mu_, std::chrono::microseconds(kTickIntervalUs));
    if (stop_) {
      return;
    }
    lock.Unlock();
    Tick();
    lock.Lock();
  }
}

void ChaosSchedule::Tick() {
  int64_t now = NowMicros();
  SimNetwork& net = cluster_->net();

  // Heal whatever is due before injecting more.
  for (auto it = partition_heals_.begin(); it != partition_heals_.end();) {
    if (it->first <= now) {
      net.SetPartitioned(it->second.first, it->second.second, false);
      it = partition_heals_.erase(it);
      MutexLock slock(mu_);
      ++stats_.partition_heals;
    } else {
      ++it;
    }
  }
  for (auto it = throttle_heals_.begin(); it != throttle_heals_.end();) {
    if (it->first <= now) {
      net.SetNodeBandwidthScale(it->second, 1.0);
      it = throttle_heals_.erase(it);
      MutexLock slock(mu_);
      ++stats_.throttle_heals;
    } else {
      ++it;
    }
  }
  for (auto it = rejoins_due_us_.begin(); it != rejoins_due_us_.end();) {
    if (*it <= now) {
      NodeId id = cluster_->AddNode();
      RAY_LOG(INFO) << "chaos: node " << ToShortString(id) << " joined";
      it = rejoins_due_us_.erase(it);
      MutexLock slock(mu_);
      ++stats_.rejoins;
    } else {
      ++it;
    }
  }

  // Kill: crash-stop a random unprotected node, keeping the population above
  // the floor (counting the rejoin already queued for it).
  if (rng_.Uniform() < kKillProbability) {
    std::vector<NodeId> killable = KillableNodes();
    if (AliveNodes().size() > config_.min_alive_nodes && !killable.empty()) {
      NodeId victim = killable[rng_.UniformInt(0, static_cast<int64_t>(killable.size()) - 1)];
      RAY_LOG(INFO) << "chaos: killing node " << ToShortString(victim);
      cluster_->KillNode(victim);
      rejoins_due_us_.push_back(now + kRejoinDelayUs);
      MutexLock slock(mu_);
      ++stats_.kills;
    }
  }

  // Partition: cut a random unprotected pair both ways, heal on a deadline.
  if (partition_heals_.size() < kMaxConcurrentPartitions &&
      rng_.Uniform() < kPartitionProbability) {
    std::vector<NodeId> pool = KillableNodes();
    if (pool.size() >= 2) {
      size_t a = static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(pool.size()) - 1));
      size_t b = static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(pool.size()) - 2));
      if (b >= a) {
        ++b;
      }
      net.SetPartitioned(pool[a], pool[b], true);
      partition_heals_.emplace_back(now + kPartitionDurationUs,
                                    std::make_pair(pool[a], pool[b]));
      MutexLock slock(mu_);
      ++stats_.partitions;
    }
  }

  // Throttle: slow one unprotected node's NIC for a while.
  if (rng_.Uniform() < kThrottleProbability) {
    std::vector<NodeId> pool = KillableNodes();
    if (!pool.empty()) {
      NodeId slow = pool[rng_.UniformInt(0, static_cast<int64_t>(pool.size()) - 1)];
      net.SetNodeBandwidthScale(slow, kThrottleScale);
      throttle_heals_.emplace_back(now + kThrottleDurationUs, slow);
      MutexLock slock(mu_);
      ++stats_.throttles;
    }
  }
}

}  // namespace tools
}  // namespace ray
