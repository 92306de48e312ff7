#include "runtime/direct_transport.h"

namespace ray {

DirectTaskTransport::DirectTaskTransport(LocalScheduler* scheduler, ObjectStore* store,
                                         gcs::GcsTables* tables)
    : scheduler_(scheduler), store_(store), lineage_(tables) {}

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
  if (scheduler_->SubmitDirect(spec)) {
    direct_submits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  // No grantable lease, or it went bad (revoked or at depth).
  fallbacks_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

}  // namespace ray
