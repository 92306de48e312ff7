// Seeded chaos driver: a background thread that injects the fault kinds the
// paper's robustness claims rest on — crash-stop node kills with delayed
// rejoins (Fig. 11a's elastic membership), transient bidirectional
// partitions, and slow-node bandwidth throttles — all drawn from one fixed
// RNG, so a soak run with a given seed exercises the same *kinds* and
// *rates* of faults every time. Kills go through Cluster::KillNode, which is
// crash-stop: the node simply goes silent, and only the heartbeat monitor's
// missed-interval detection declares it dead. Background packet loss and
// jitter are configured directly on the SimNetwork (SetDropProbability /
// SetJitterMaxMicros) before Start().
#ifndef RAY_TOOLS_CHAOS_H_
#define RAY_TOOLS_CHAOS_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/id.h"
#include "common/random.h"
#include "common/sync.h"
#include "runtime/cluster.h"

namespace ray {
namespace tools {

struct ChaosConfig {
  uint64_t seed = 0xC4A05;
  size_t min_alive_nodes = 2;  // never kill below this population
};

class ChaosSchedule {
 public:
  struct Stats {
    uint64_t kills = 0;
    uint64_t rejoins = 0;
    uint64_t partitions = 0;
    uint64_t partition_heals = 0;
    uint64_t throttles = 0;
    uint64_t throttle_heals = 0;
  };

  ChaosSchedule(Cluster* cluster, const ChaosConfig& config);
  ~ChaosSchedule();  // Stop()s if still running

  ChaosSchedule(const ChaosSchedule&) = delete;
  ChaosSchedule& operator=(const ChaosSchedule&) = delete;

  // Exempts a node from kills, partitions, and throttles (e.g. the driver's
  // home node, whose store holds the workload's inputs). Call before Start().
  void Protect(const NodeId& node);

  void Start();
  // Stops injecting, heals every outstanding partition and throttle, and
  // disables the network chaos layer. Pending rejoins still happen (the
  // cluster ends at least min_alive_nodes strong). Idempotent.
  void Stop();

  Stats stats() const;

 private:
  void Loop();
  void Tick();
  // Nodes currently alive and not protected (snapshot; may go stale).
  std::vector<NodeId> KillableNodes();
  std::vector<NodeId> AliveNodes();

  Cluster* cluster_;
  ChaosConfig config_;
  Rng rng_;
  std::unordered_set<NodeId> protected_;

  // Deferred actions, processed by the tick loop when their time arrives.
  std::vector<int64_t> rejoins_due_us_;
  std::vector<std::pair<int64_t, std::pair<NodeId, NodeId>>> partition_heals_;
  std::vector<std::pair<int64_t, NodeId>> throttle_heals_;

  mutable Mutex mu_{"ChaosSchedule.mu"};  // loop state is loop-thread-only
  Stats stats_ GUARDED_BY(mu_);

  Mutex stop_mu_{"ChaosSchedule.stop_mu"};
  CondVar stop_cv_;
  bool stop_ GUARDED_BY(stop_mu_) = true;
  std::thread thread_;
};

}  // namespace tools
}  // namespace ray

#endif  // RAY_TOOLS_CHAOS_H_
