#include "runtime/direct_transport.h"

#include <algorithm>

#include "scheduler/global_scheduler.h"
#include "trace/trace.h"

namespace ray {

DirectTaskTransport::DirectTaskTransport(const NodeId& node, LocalScheduler* scheduler,
                                         ObjectStore* store, gcs::GcsTables* tables)
    : node_(node),
      scheduler_(scheduler),
      store_(store),
      max_leases_per_shape_(
          std::max<size_t>(1, static_cast<size_t>(scheduler->total_resources().Get("CPU")))),
      lineage_(tables) {}

DirectTaskTransport::~DirectTaskTransport() { Shutdown(); }

std::string DirectTaskTransport::ShapeKey(const ResourceSet& shape) {
  std::string key;
  for (const auto& [name, quantity] : shape.Quantities()) {
    key += name;
    key.push_back('=');
    key += std::to_string(quantity);
    key.push_back(';');
  }
  return key;
}

std::shared_ptr<WorkerLease> DirectTaskTransport::LeaseFor(const ResourceSet& shape) {
  std::string key = ShapeKey(shape);
  std::shared_ptr<WorkerLease> best;
  size_t pool_size = 0;
  {
    MutexLock lock(mu_);
    auto& pool = leases_[key];
    // Prune leases the scheduler revoked (idle timeout, pressure, death).
    pool.erase(std::remove_if(pool.begin(), pool.end(),
                              [](const std::shared_ptr<WorkerLease>& l) {
                                return l->revoked.load(std::memory_order_relaxed);
                              }),
               pool.end());
    for (const auto& l : pool) {
      if (best == nullptr || l->inflight.load(std::memory_order_relaxed) <
                                 best->inflight.load(std::memory_order_relaxed)) {
        best = l;
      }
    }
    pool_size = pool.size();
  }
  // Grow while every cached lease is busy: pipelining gives depth on one
  // worker, extra leases give parallel workers.
  bool want_new = best == nullptr || (best->inflight.load(std::memory_order_relaxed) > 0 &&
                                      pool_size < max_leases_per_shape_);
  if (!want_new) {
    return best;
  }
  auto fresh = scheduler_->RequestLease(shape);
  if (fresh == nullptr) {
    return best;  // denied: run with what we have (possibly nothing)
  }
  MutexLock lock(mu_);
  if (shutdown_.load(std::memory_order_acquire)) {
    lock.Unlock();
    scheduler_->ReturnLease(fresh);
    return nullptr;
  }
  leases_[key].push_back(fresh);
  return fresh;
}

bool DirectTaskTransport::TrySubmit(const TaskSpec& spec) {
  if (!scheduler_->leasing_enabled() || shutdown_.load(std::memory_order_acquire)) {
    return false;
  }
  if (!spec.actor.IsNil()) {
    return false;  // actor creations and methods always route classically
  }
  for (const ObjectId& dep : spec.Dependencies()) {
    if (!store_->ContainsLocal(dep)) {
      return false;  // locality miss: the classic path fetches and gates
    }
  }
  auto lease = LeaseFor(EffectiveDemand(spec));
  if (lease != nullptr) {
    trace::Span span(trace::Stage::kDirectSubmit, spec.id, ObjectId(), node_);
    if (scheduler_->SubmitOnLease(lease, spec)) {
      direct_submits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  // No grantable lease, or it went bad (revoked or at depth).
  fallbacks_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void DirectTaskTransport::Shutdown() {
  if (shutdown_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  std::vector<std::shared_ptr<WorkerLease>> all;
  {
    MutexLock lock(mu_);
    for (auto& [key, pool] : leases_) {
      for (auto& lease : pool) {
        all.push_back(lease);
      }
    }
    leases_.clear();
  }
  for (auto& lease : all) {
    scheduler_->ReturnLease(lease);
  }
}

}  // namespace ray
