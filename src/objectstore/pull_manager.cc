#include "objectstore/pull_manager.h"

#include <algorithm>
#include <cstdint>

#include "common/clock.h"
#include "common/logging.h"
#include "objectstore/object_store.h"
#include "trace/trace.h"

namespace ray {
namespace {

// A chunk is copied in slices of at most this size. Copy threads faulting in
// a fresh assembly buffer keep their cores busy until their copy ends, and
// with as many copy threads as cores nothing else in the process runs
// meanwhile: one 64 MiB copy by 8 threads held a 4-vCPU VM for ~30 ms, long
// enough to miss a 5 ms heartbeat's whole detection window. Between slices
// the cores go to whatever waited.
constexpr size_t kCopySliceBytes = 8ull << 20;

}  // namespace

PullManager::PullManager(const NodeId& node, gcs::GcsTables* tables, SimNetwork* net,
                         ObjectStore* store, ThreadPool* copy_pool,
                         const ObjectStoreConfig& config, gcs::LivenessView* liveness)
    : node_(node),
      tables_(tables),
      net_(net),
      store_(store),
      copy_pool_(copy_pool),
      config_(config),
      chunk_bytes_(config.pull_chunk_bytes == 0 ? SIZE_MAX : config.pull_chunk_bytes),
      num_streams_(std::max(1, config.num_transfer_threads)),
      liveness_(liveness) {
  loop_thread_ = std::thread([this] { Loop(); });
}

PullManager::~PullManager() { Shutdown(); }

uint64_t PullManager::Pull(const ObjectId& id, Callback cb, const NodeId* preferred) {
  uint64_t token;
  bool fresh = false;
  {
    MutexLock lock(mu_);
    token = next_token_++;
    if (shutdown_.load(std::memory_order_relaxed)) {
      lock.Unlock();
      cb(Status::Unavailable("pull manager shut down"));
      return token;
    }
    auto it = entries_.find(id);
    if (it == entries_.end()) {
      auto e = std::make_shared<Entry>();
      e->id = id;
      if (preferred != nullptr) {
        e->preferred = *preferred;
      }
      e->started_us = NowMicros();
      e->waiters.push_back({token, std::move(cb)});
      entries_.emplace(id, std::move(e));
      fresh = true;
    } else {
      it->second->waiters.push_back({token, std::move(cb)});
      pulls_deduped_.fetch_add(1, std::memory_order_relaxed);
    }
    waiter_index_.emplace(token, id);
  }
  if (fresh) {
    queue_.Push(Event::Start(id));
  }
  return token;
}

void PullManager::CancelWaiter(uint64_t token) {
  EntryPtr to_abort;
  {
    MutexLock lock(mu_);
    auto iit = waiter_index_.find(token);
    if (iit == waiter_index_.end()) {
      // Already dispatched (or being dispatched right now): barrier so the
      // caller can destroy whatever the callback captured.
      while (dispatching_token_ == token) {
        cv_.Wait(mu_);
      }
      return;
    }
    ObjectId id = iit->second;
    waiter_index_.erase(iit);
    auto eit = entries_.find(id);
    if (eit != entries_.end()) {
      auto& ws = eit->second->waiters;
      ws.erase(std::remove_if(ws.begin(), ws.end(),
                              [&](const Waiter& w) { return w.token == token; }),
               ws.end());
      if (ws.empty()) {
        // Nobody wants the object anymore: drop the pull, partial chunks and
        // all, and release the wire.
        to_abort = eit->second;
        entries_.erase(eit);
      }
    }
  }
  if (to_abort) {
    to_abort->aborted.store(true, std::memory_order_release);
    if (to_abort->charged.exchange(false, std::memory_order_acq_rel)) {
      inflight_bytes_.fetch_sub(to_abort->size, std::memory_order_relaxed);
    }
    uint64_t net_token = to_abort->net_token.load(std::memory_order_acquire);
    if (net_token != 0) {
      net_->CancelTransfer(net_token);
    }
    // The assembly buffer is owned by the pull loop (which may still hold the
    // entry); it is freed when the last EntryPtr drops.
  }
}

void PullManager::AbortAll(const Status& status) {
  std::vector<EntryPtr> aborted;
  {
    MutexLock lock(mu_);
    aborted.reserve(entries_.size());
    for (auto& [id, e] : entries_) {
      aborted.push_back(e);
    }
    entries_.clear();
  }
  for (auto& e : aborted) {
    e->aborted.store(true, std::memory_order_release);
    if (e->charged.exchange(false, std::memory_order_acq_rel)) {
      inflight_bytes_.fetch_sub(e->size, std::memory_order_relaxed);
    }
    uint64_t net_token = e->net_token.load(std::memory_order_acquire);
    if (net_token != 0) {
      net_->CancelTransfer(net_token);
    }
    std::vector<Waiter> waiters;
    {
      MutexLock lock(mu_);
      waiters = std::move(e->waiters);
      e->waiters.clear();
    }
    DispatchWaiters(std::move(waiters), status);
  }
}

void PullManager::OnNodeDeath(const NodeId& node) {
  // Push on a closed queue is a safe no-op: after shutdown every in-flight
  // pull has already been failed by AbortAll.
  queue_.Push(Event::Death(node));
}

void PullManager::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) {
    return;
  }
  queue_.Close();
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  AbortAll(Status::Unavailable("pull manager shut down"));
}

void PullManager::Loop() {
  while (auto ev = queue_.Pop()) {
    if (ev->death) {
      HandleNodeDeath(ev->dead_node);
      continue;
    }
    EntryPtr e;
    {
      MutexLock lock(mu_);
      auto it = entries_.find(ev->id);
      if (it == entries_.end()) {
        continue;  // cancelled / aborted / completed under us
      }
      e = it->second;
    }
    if (ev->start) {
      if (!e->started) {
        e->started = true;
        HandleStart(e);
      }
      continue;
    }
    if (ev->epoch != e->current_epoch) {
      continue;  // chunk completion from a superseded transfer
    }
    HandleChunkDone(e, ev->status);
  }
}

void PullManager::HandleStart(const EntryPtr& e) {
  // The object may have been created locally (or pulled by a racing path)
  // between registration and here.
  if (store_->ContainsLocal(e->id)) {
    CompleteEntry(e, Status::Ok());
    return;
  }
  Status fail;
  if (!StartFromSource(e, &fail)) {
    CompleteEntry(e, fail);
    return;
  }
  pulls_started_.fetch_add(1, std::memory_order_relaxed);
}

bool PullManager::StartFromSource(const EntryPtr& e, Status* fail) {
  auto entry = tables_->objects.GetLocations(e->id);
  if (!entry.ok()) {
    *fail = Status::KeyNotFound("object not created yet");
    return false;
  }
  // Preferred source (the scheduler's dispatch hint) first, then the Object
  // Table replicas ordered by NIC backlog: a replica whose NIC has queued
  // reservations delays any new pull by that backlog, so the least-loaded
  // source wins. The sort is stable, so replicas with idle NICs keep Object
  // Table order. This applies to the initial choice and to failover alike
  // (failover re-enters here with the dead source in `tried`).
  std::vector<NodeId> candidates;
  if (!e->preferred.IsNil()) {
    candidates.push_back(e->preferred);
  }
  std::vector<NodeId> replicas(entry->locations.begin(), entry->locations.end());
  std::stable_sort(replicas.begin(), replicas.end(), [this](const NodeId& a, const NodeId& b) {
    return net_->NicBacklogMicros(a) < net_->NicBacklogMicros(b);
  });
  candidates.insert(candidates.end(), replicas.begin(), replicas.end());
  for (const NodeId& cand : candidates) {
    if (cand == node_ || e->tried.count(cand) > 0 ||
        (liveness_ != nullptr && liveness_->IsDead(cand))) {
      // Liveness is the *detected* view: a freshly-crashed node looks alive
      // for up to one detection window, in which case the transfer attempt
      // fails on the wire and the failover path lands back here with the
      // node in `tried`.
      continue;
    }
    ObjectStore* peer = store_->Peer(cand);
    if (peer == nullptr) {
      e->tried.insert(cand);
      continue;
    }
    auto r = peer->GetLocal(e->id);
    if (!r.ok()) {
      // Replica advertised but gone (deleted / crashed store): skip it.
      e->tried.insert(cand);
      continue;
    }
    e->src = cand;
    e->src_buffer = *r;
    if (!e->assembly) {
      e->size = e->src_buffer->Size();
      // Uninitialized: the chunk copies write every byte before
      // CompleteEntry seals it. A failover resumes at the failed chunk,
      // which was never copied.
      e->assembly = std::make_shared<Buffer>(e->size);
      e->num_chunks = e->size == 0 ? 1 : (e->size - 1) / chunk_bytes_ + 1;
      inflight_bytes_.fetch_add(e->size, std::memory_order_relaxed);
      e->charged.store(true, std::memory_order_release);
    } else {
      // Failover resumes mid-object; replicas of an immutable object are
      // byte-identical, so the already-assembled prefix stays valid.
      RAY_CHECK(e->src_buffer->Size() == e->size);
    }
    KickChunk(e);
    return true;
  }
  *fail = entry->locations.empty() ? Status::KeyNotFound("all locations retracted")
                                   : Status::NodeDead("no live replica to pull from");
  return false;
}

void PullManager::KickChunk(const EntryPtr& e) {
  if (e->aborted.load(std::memory_order_acquire)) {
    return;
  }
  size_t off = e->chunk * chunk_bytes_;
  size_t len = std::min(chunk_bytes_, e->size - off);
  int streams = len >= config_.parallel_copy_threshold ? num_streams_ : 1;
  uint64_t epoch = epoch_gen_.fetch_add(1, std::memory_order_relaxed) + 1;
  e->current_epoch = epoch;
  ObjectId id = e->id;
  uint64_t token = net_->TransferAsync(
      e->src, node_, len, streams, id,
      [this, id, epoch](Status s) { queue_.Push(Event::ChunkDone(id, epoch, std::move(s))); });
  e->net_token.store(token, std::memory_order_release);
  // A cancel that raced in between the aborted check above and the store may
  // have missed this token; re-check and release the wire ourselves.
  if (e->aborted.load(std::memory_order_acquire)) {
    net_->CancelTransfer(token);
  }
}

void PullManager::HandleNodeDeath(const NodeId& node) {
  // Runs on the loop thread, so entry state is stable. Collect first: the
  // failover below mutates entries_.
  std::vector<EntryPtr> affected;
  {
    MutexLock lock(mu_);
    for (auto& [id, e] : entries_) {
      if (e->started && e->src == node && !e->aborted.load(std::memory_order_acquire)) {
        affected.push_back(e);
      }
    }
  }
  for (auto& e : affected) {
    uint64_t net_token = e->net_token.load(std::memory_order_acquire);
    if (net_token != 0 && net_->CancelTransfer(net_token)) {
      // Transfer was still pending: its completion callback will never fire,
      // so synthesize the failure here and fail over immediately — resuming
      // at the in-flight chunk.
      HandleChunkDone(e, Status::NodeDead("source declared dead by failure detector"));
    }
    // else: the completion already fired (its event is queued behind us);
    // the wire-level death check carried kNodeDead and the normal failover
    // path handles it.
  }
}

void PullManager::HandleChunkDone(const EntryPtr& e, const Status& status) {
  if (!status.ok()) {
    // Source (or we) died mid-transfer: fail over to another replica,
    // resuming at this chunk — never from byte zero.
    e->tried.insert(e->src);
    e->src_buffer.reset();
    failovers_.fetch_add(1, std::memory_order_relaxed);
    Status fail;
    if (!StartFromSource(e, &fail)) {
      // Report the mid-pull death, not the table state: replicas existed.
      if (fail.code() == StatusCode::kKeyNotFound) {
        fail = Status::NodeDead("all replicas lost mid-pull");
      }
      CompleteEntry(e, fail);
    }
    return;
  }
  chunks_transferred_.fetch_add(1, std::memory_order_relaxed);
  size_t done_chunk = e->chunk;
  e->chunk++;
  if (e->chunk < e->num_chunks) {
    // Pipeline: next chunk goes on the wire before this one is copied.
    KickChunk(e);
  }
  size_t off = done_chunk * chunk_bytes_;
  size_t len = std::min(chunk_bytes_, e->size - off);
  if (len > 0) {
    int threads = len >= config_.parallel_copy_threshold ? num_streams_ : 1;
    trace::Span span(trace::Stage::kChunkCopy, TaskId(), e->id, node_, e->src, len);
    for (size_t done = 0; done < len; done += kCopySliceBytes) {
      ParallelCopy(e->assembly->MutableData() + off + done, e->src_buffer->Data() + off + done,
                   std::min(kCopySliceBytes, len - done), threads, *copy_pool_);
    }
  }
  if (done_chunk + 1 == e->num_chunks && !e->aborted.load(std::memory_order_acquire)) {
    CompleteEntry(e, Status::Ok());
  }
}

void PullManager::CompleteEntry(const EntryPtr& e, Status status) {
  bool pulled_bytes = e->assembly != nullptr;
  if (status.ok() && pulled_bytes) {
    status = store_->Put(e->id, std::move(e->assembly));
  }
  if (e->charged.exchange(false, std::memory_order_acq_rel)) {
    inflight_bytes_.fetch_sub(e->size, std::memory_order_relaxed);
  }
  if (pulled_bytes) {
    e->assembly.reset();
    // Whole-pull span; the per-chunk wire and copy spans nest under it.
    auto& tracer = trace::Tracer::Instance();
    if (tracer.ShouldRecordInfra()) {
      int64_t now = NowMicros();
      tracer.Emit(trace::Stage::kFetch, e->started_us, now - e->started_us, TaskId(), e->id,
                  node_, e->src, e->size);
    }
  }
  std::vector<Waiter> waiters;
  {
    MutexLock lock(mu_);
    auto it = entries_.find(e->id);
    if (it != entries_.end() && it->second == e) {
      entries_.erase(it);
    }
    waiters = std::move(e->waiters);
    e->waiters.clear();
  }
  DispatchWaiters(std::move(waiters), status);
}

void PullManager::DispatchWaiters(std::vector<Waiter> waiters, const Status& status) {
  for (auto& w : waiters) {
    {
      MutexLock lock(mu_);
      if (waiter_index_.erase(w.token) == 0) {
        continue;  // cancelled while we were completing
      }
      dispatching_token_ = w.token;
    }
    w.cb(status);
    {
      // Notify under the lock: the cancelling thread may tear the manager
      // down the moment it observes dispatching_token_ cleared.
      MutexLock lock(mu_);
      dispatching_token_ = 0;
      cv_.NotifyAll();
    }
  }
}

}  // namespace ray
