#include "objectstore/object_store.h"

#include <algorithm>
#include <cstring>

#include "common/clock.h"
#include "common/logging.h"
#include "common/sync.h"
#include "objectstore/pull_manager.h"
#include "trace/trace.h"

namespace ray {

namespace {

// Counting wake-up channel for Get: every location-added pub-sub event
// increments the count, so a signal arriving while the waiter is busy
// attempting a pull is never lost.
struct LocationSignal {
  Mutex mu{"ObjectStore.LocationSignal.mu"};
  CondVar cv;
  uint64_t count GUARDED_BY(mu) = 0;

  void Signal() {
    MutexLock lock(mu);
    ++count;
    cv.NotifyAll();
  }

  uint64_t Snapshot() {
    MutexLock lock(mu);
    return count;
  }

  // Waits until the count moves past `seen`; deadline_us < 0 waits forever.
  // Returns false on timeout.
  bool WaitPast(uint64_t seen, int64_t deadline_us) {
    MutexLock lock(mu);
    if (deadline_us < 0) {
      while (count <= seen) {
        cv.Wait(mu);
      }
      return true;
    }
    for (;;) {
      if (count > seen) {
        return true;
      }
      int64_t remaining = deadline_us - NowMicros();
      if (remaining <= 0) {
        return false;
      }
      cv.WaitFor(mu, std::chrono::microseconds(remaining));
    }
  }
};

}  // namespace

void ParallelCopy(uint8_t* dst, const uint8_t* src, size_t size, int threads, ThreadPool& pool) {
  if (size == 0) {
    return;  // memcpy(null, null, 0) is UB: empty buffers may be unallocated
  }
  threads = std::max(1, threads);
  if (threads == 1 || size < 64 * 1024) {
    std::memcpy(dst, src, size);
    return;
  }
  size_t chunk = (size + threads - 1) / threads;
  CountDownLatch latch(threads);
  for (int i = 0; i < threads; ++i) {
    size_t off = static_cast<size_t>(i) * chunk;
    size_t len = off >= size ? 0 : std::min(chunk, size - off);
    pool.Submit([&, off, len] {
      if (len > 0) {
        std::memcpy(dst + off, src + off, len);
      }
      latch.CountDown();
    });
  }
  latch.Wait();
}

ObjectStore::ObjectStore(const NodeId& node, gcs::GcsTables* tables, SimNetwork* net,
                         const ObjectStoreConfig& config, gcs::LivenessView* liveness)
    : node_(node),
      tables_(tables),
      net_(net),
      config_(config),
      liveness_(liveness),
      copy_pool_(static_cast<size_t>(std::max(1, config.num_transfer_threads))) {
  pull_manager_ = std::make_unique<PullManager>(node_, tables_, net_, this, &copy_pool_,
                                                config_, liveness_);
}

ObjectStore::~ObjectStore() {
  // The pull loop submits copies to copy_pool_; stop it first.
  pull_manager_->Shutdown();
  copy_pool_.Shutdown();
}

void ObjectStore::TouchLocked(const ObjectId& id, Slot& slot) {
  lru_.erase(slot.lru_it);
  lru_.push_front(id);
  slot.lru_it = lru_.begin();
}

void ObjectStore::EvictLocked(size_t target) {
  auto& tracer = trace::Tracer::Instance();
  while (used_bytes_ > target && !lru_.empty()) {
    ObjectId victim = lru_.back();
    auto it = objects_.find(victim);
    RAY_CHECK(it != objects_.end());
    if (!it->second.on_disk) {
      it->second.on_disk = true;
      used_bytes_ -= it->second.buffer->Size();
      if (tracer.ShouldRecordInfra()) {
        tracer.Emit(trace::Stage::kEvict, NowMicros(), 0, TaskId(), victim, node_, NodeId(),
                    it->second.buffer->Size());
      }
    }
    lru_.pop_back();
    // Disk-tier objects leave the LRU list; re-touch on promotion re-adds.
    it->second.lru_it = lru_.end();
  }
}

bool ObjectStore::SealLocal(const ObjectId& id, const BufferPtr& buffer) {
  size_t size = buffer->Size();
  WriterMutexLock lock(mu_);
  if (objects_.count(id) > 0) {
    return false;
  }
  if (size > config_.capacity_bytes) {
    // Larger than the whole memory tier: admit straight to disk instead of
    // evicting everything and still blowing the budget.
    objects_.emplace(id, Slot{buffer, true, lru_.end()});
  } else {
    if (used_bytes_ + size > config_.capacity_bytes) {
      EvictLocked(config_.capacity_bytes - size);
    }
    lru_.push_front(id);
    objects_.emplace(id, Slot{buffer, false, lru_.begin()});
    used_bytes_ += size;
  }
  bytes_written_.Add(size);
  objects_written_.Add(1);
  return true;
}

Status ObjectStore::Put(const ObjectId& id, BufferPtr buffer) {
  RAY_CHECK(buffer != nullptr);
  trace::Span span(trace::Stage::kPut, TaskId(), id, node_, NodeId(), buffer->Size());
  if (!SealLocal(id, buffer)) {
    return Status::Ok();
  }
  // Publish the new copy (Fig. 7b step 4). Size recorded for the scheduler's
  // transfer-time estimates.
  return tables_->objects.AddLocation(id, node_, buffer->Size());
}

void ObjectStore::PutAsync(const ObjectId& id, BufferPtr buffer) {
  RAY_CHECK(buffer != nullptr);
  trace::Span span(trace::Stage::kPut, TaskId(), id, node_, NodeId(), buffer->Size());
  if (SealLocal(id, buffer)) {
    // The callback captures nothing: it may run after this store is gone.
    // Consumers learn of the copy through the location pub-sub.
    tables_->objects.AddLocationAsync(id, node_, buffer->Size(), [](Status) {});
  }
}

Result<BufferPtr> ObjectStore::GetLocal(const ObjectId& id) {
  WriterMutexLock lock(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::KeyNotFound("object not in local store");
  }
  if (it->second.on_disk) {
    // Promote from the disk tier, charging the read penalty.
    size_t size = it->second.buffer->Size();
    trace::Span span(trace::Stage::kPromote, TaskId(), id, node_, NodeId(), size);
    lock.Unlock();
    SleepMicros(static_cast<int64_t>(static_cast<double>(size) / kDiskReadBytesPerSec * 1e6));
    lock.Lock();
    it = objects_.find(id);
    if (it == objects_.end()) {
      return Status::KeyNotFound("object evicted during disk read");
    }
    if (it->second.on_disk && size <= config_.capacity_bytes) {
      // Objects larger than the memory tier stay on disk (see Put).
      it->second.on_disk = false;
      used_bytes_ += size;
      lru_.push_front(id);
      it->second.lru_it = lru_.begin();
      EvictLocked(config_.capacity_bytes);
    }
  } else {
    TouchLocked(id, it->second);
  }
  return it->second.buffer;
}

bool ObjectStore::ContainsLocal(const ObjectId& id) const {
  ReaderMutexLock lock(mu_);
  return objects_.count(id) > 0;
}

size_t ObjectStore::LocalSize(const ObjectId& id) const {
  ReaderMutexLock lock(mu_);
  auto it = objects_.find(id);
  return it == objects_.end() ? 0 : it->second.buffer->Size();
}

uint64_t ObjectStore::PullAsync(const ObjectId& id, PullCallback cb) {
  return pull_manager_->Pull(id, std::move(cb));
}

void ObjectStore::CancelPull(uint64_t token) { pull_manager_->CancelWaiter(token); }

Status ObjectStore::Fetch(const ObjectId& id, const NodeId& src_node) {
  if (ContainsLocal(id)) {
    return Status::Ok();
  }
  if (src_node == node_) {
    return Status::KeyNotFound("fetch source is self but object absent");
  }
  ObjectStore* src = Peer(src_node);
  if (src == nullptr || (liveness_ != nullptr && liveness_->IsDead(src_node))) {
    // Declared dead by the failure detector (or unresolvable). A node that
    // crashed inside the detection window passes this check and the pull
    // fails over on the wire error instead.
    return Status::NodeDead("fetch source dead");
  }
  Notification done;
  Status result;
  pull_manager_->Pull(
      id,
      [&](Status s) {
        result = std::move(s);
        done.Notify();
      },
      &src_node);
  done.Wait();
  return result;
}

Result<BufferPtr> ObjectStore::Get(const ObjectId& id, int64_t timeout_us) {
  trace::Span span(trace::Stage::kGet, TaskId(), id, node_);
  int64_t deadline = timeout_us < 0 ? -1 : NowMicros() + timeout_us;
  if (auto local = GetLocal(id); local.ok()) {
    return local;
  }
  // One subscription per Get, registered before the first location lookup so
  // a location added at any point from here on signals the waiter (Fig. 7b
  // step 2) — no lost wakeups, no per-retry subscribe churn.
  auto signal = std::make_shared<LocationSignal>();
  uint64_t sub_token = tables_->objects.SubscribeLocations(
      id, [signal](const ObjectId&, const NodeId&) { signal->Signal(); });
  auto finish = [&](Result<BufferPtr> r) {
    tables_->objects.UnsubscribeLocations(id, sub_token);
    return r;
  };
  for (;;) {
    // Local check before the deadline check: an object that arrived while we
    // slept past the deadline is still a hit, not a timeout.
    if (auto local = GetLocal(id); local.ok()) {
      return finish(local);
    }
    if (deadline >= 0 && NowMicros() >= deadline) {
      return finish(Status::TimedOut("object did not become available"));
    }
    // Snapshot before the pull attempt: a location published mid-attempt
    // bumps the count and the wait below returns immediately.
    uint64_t seen = signal->Snapshot();
    Notification done;
    Status pull_status;
    uint64_t pull_token = pull_manager_->Pull(id, [&](Status s) {
      pull_status = std::move(s);
      done.Notify();
    });
    bool completed;
    if (deadline < 0) {
      done.Wait();
      completed = true;
    } else {
      int64_t remaining = deadline - NowMicros();
      completed = remaining > 0 &&
                  done.WaitFor(std::chrono::milliseconds(std::max<int64_t>(1, remaining / 1000)));
    }
    if (!completed) {
      // Abandon our interest; the pull itself dies if we were the last
      // waiter. The cancel barrier makes the stack captures safe to drop.
      pull_manager_->CancelWaiter(pull_token);
      if (!done.HasBeenNotified() || !pull_status.ok()) {
        return finish(Status::TimedOut("object did not become available"));
      }
      continue;  // pull finished as we timed out: take the object
    }
    if (pull_status.ok()) {
      continue;  // now local (or concurrently evicted to disk: GetLocal promotes)
    }
    // Not created yet, or every replica is on a dead node: block on the
    // pub-sub signal until a (re)created copy is published. Dead replicas do
    // not count — treating them as available would spin here instead of
    // waiting for reconstruction.
    if (!signal->WaitPast(seen, deadline)) {
      return finish(Status::TimedOut("object did not become available"));
    }
  }
}

Status ObjectStore::DeleteLocal(const ObjectId& id) {
  {
    WriterMutexLock lock(mu_);
    auto it = objects_.find(id);
    if (it == objects_.end()) {
      return Status::KeyNotFound("object not local");
    }
    if (!it->second.on_disk) {
      used_bytes_ -= it->second.buffer->Size();
      lru_.erase(it->second.lru_it);
    }
    objects_.erase(it);
  }
  return tables_->objects.RemoveLocation(id, node_);
}

void ObjectStore::OnPeerDeath(const NodeId& node) { pull_manager_->OnNodeDeath(node); }

void ObjectStore::CrashClear() {
  pull_manager_->AbortAll(Status::NodeDead("node crashed"));
  WriterMutexLock lock(mu_);
  objects_.clear();
  lru_.clear();
  used_bytes_ = 0;
}

size_t ObjectStore::UsedBytes() const {
  ReaderMutexLock lock(mu_);
  return used_bytes_;
}

size_t ObjectStore::NumObjects() const {
  ReaderMutexLock lock(mu_);
  return objects_.size();
}

}  // namespace ray
