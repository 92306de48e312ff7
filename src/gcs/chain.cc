#include "gcs/chain.h"

#include <optional>

#include "common/clock.h"
#include "common/logging.h"

namespace ray {
namespace gcs {

namespace {
// Simulated bandwidth for state transfer when a replica rejoins, bytes/s.
constexpr double kStateTransferBytesPerSec = 2e9;
}  // namespace

ChainShard::ChainShard(const ChainConfig& config) : config_(config) {
  RAY_CHECK(config_.num_replicas >= 1);
  for (int i = 0; i < config_.num_replicas; ++i) {
    replicas_.push_back(std::make_unique<Replica>());
  }
}

void ChainShard::EnsureHealthyLocked() const {
  for (;;) {
    // If another client is already driving a reconfiguration, wait for it.
    while (reconfiguring_) {
      cv_.Wait(mu_);
    }
    size_t dead = replicas_.size();
    for (size_t i = 0; i < replicas_.size(); ++i) {
      if (!replicas_[i]->alive) {
        dead = i;
        break;
      }
    }
    if (dead == replicas_.size()) {
      return;  // chain healthy
    }
    // This client reports the failure; the master detects and reconfigures.
    reconfiguring_ = true;
    ++num_reconfigurations_;
    mu_.Unlock();
    SleepMicros(config_.failure_detection_us);
    mu_.Lock();

    // Remove the dead replica from the chain.
    replicas_.erase(replicas_.begin() + static_cast<long>(dead));
    RAY_CHECK(!replicas_.empty()) << "all chain replicas dead; data lost";

    // Splice in a replacement at the tail: state transfer from current tail.
    auto replacement = std::make_unique<Replica>();
    size_t bytes = replicas_.back()->store.MemoryBytes() + replicas_.back()->store.DiskBytes();
    int64_t transfer_us =
        static_cast<int64_t>(static_cast<double>(bytes) / kStateTransferBytesPerSec * 1e6);
    // The chain serves reads/writes from the shortened chain while the new
    // tail catches up; only the final handoff is blocking. We emulate the
    // catch-up off the critical path by charging a small fixed handoff cost.
    mu_.Unlock();
    SleepMicros(std::min<int64_t>(transfer_us, 5000));
    mu_.Lock();
    replacement->store.CopyFrom(replicas_.back()->store);
    replicas_.push_back(std::move(replacement));

    reconfiguring_ = false;
    cv_.NotifyAll();
  }
}

// Modelled latency: an op takes effect on every replica (or reads the tail)
// under mu_, and its caller then waits out the hops with mu_ released — one
// hop per replica for a write, one for a tail read. The effect still lands
// inside the call's interval, so single-key ops stay linearizable and a
// caller that returns has its write visible to every later read; the shard
// lock is held only for the in-memory work, so concurrent rounds overlap the
// way a real chain's do.
template <typename Apply>
size_t ChainShard::ApplyToReplicas(Apply&& apply) {
  MutexLock lock(mu_);
  EnsureHealthyLocked();
  for (auto& replica : replicas_) {
    apply(replica->store);
  }
  return replicas_.size();
}

void ChainShard::WaitHops(size_t hops) const {
  SleepMicros(static_cast<int64_t>(hops) * config_.hop_latency_us);
}

Status ChainShard::Put(const std::string& key, const std::string& value) {
  WaitHops(ApplyToReplicas([&](KvStore& store) { store.Put(key, value); }));
  return Status::Ok();
}

Status ChainShard::Append(const std::string& key, const std::string& element) {
  WaitHops(ApplyToReplicas([&](KvStore& store) { store.Append(key, element); }));
  return Status::Ok();
}

Status ChainShard::ApplyBatch(const std::vector<ChainOp>& ops) {
  if (ops.empty()) {
    return Status::Ok();
  }
  WaitHops(ApplyToReplicas([&](KvStore& store) {
    for (const ChainOp& op : ops) {
      switch (op.kind) {
        case ChainOp::Kind::kPut:
          store.Put(op.key, op.value);
          break;
        case ChainOp::Kind::kAppend:
          store.Append(op.key, op.value);
          break;
        case ChainOp::Kind::kDelete:
          store.Delete(op.key);
          break;
      }
    }
  }));
  return Status::Ok();
}

Result<uint64_t> ChainShard::Increment(const std::string& key) {
  uint64_t value = 0;
  WaitHops(ApplyToReplicas([&](KvStore& store) { value = store.Increment(key); }));
  return value;
}

Result<std::string> ChainShard::Get(const std::string& key) const {
  std::optional<std::string> v;
  {
    MutexLock lock(mu_);
    EnsureHealthyLocked();
    v = replicas_.back()->store.Get(key);
  }
  WaitHops(1);
  if (!v) {
    return Status::KeyNotFound(key);
  }
  return *v;
}

Result<std::vector<std::string>> ChainShard::GetList(const std::string& key) const {
  std::optional<std::vector<std::string>> v;
  {
    MutexLock lock(mu_);
    EnsureHealthyLocked();
    v = replicas_.back()->store.GetList(key);
  }
  WaitHops(1);
  if (!v) {
    return Status::KeyNotFound(key);
  }
  return *v;
}

Status ChainShard::Delete(const std::string& key) {
  WaitHops(ApplyToReplicas([&](KvStore& store) { store.Delete(key); }));
  return Status::Ok();
}

bool ChainShard::Contains(const std::string& key) const {
  MutexLock lock(mu_);
  EnsureHealthyLocked();
  return replicas_.back()->store.Contains(key);
}

void ChainShard::KillReplica(size_t index) {
  MutexLock lock(mu_);
  if (index < replicas_.size()) {
    replicas_[index]->alive = false;
  }
}

size_t ChainShard::NumLiveReplicas() const {
  MutexLock lock(mu_);
  size_t n = 0;
  for (const auto& r : replicas_) {
    if (r->alive) {
      ++n;
    }
  }
  return n;
}

size_t ChainShard::MemoryBytes() const {
  MutexLock lock(mu_);
  return replicas_.back()->store.MemoryBytes();
}

size_t ChainShard::DiskBytes() const {
  MutexLock lock(mu_);
  return replicas_.back()->store.DiskBytes();
}

size_t ChainShard::NumEntries() const {
  MutexLock lock(mu_);
  return replicas_.back()->store.NumEntries();
}

size_t ChainShard::Flush(const std::function<bool(const std::string&)>& predicate) {
  MutexLock lock(mu_);
  size_t moved = 0;
  for (auto& replica : replicas_) {
    moved = replica->store.Flush(predicate);
  }
  return moved;
}

int ChainShard::NumReconfigurations() const {
  MutexLock lock(mu_);
  return num_reconfigurations_;
}

}  // namespace gcs
}  // namespace ray
