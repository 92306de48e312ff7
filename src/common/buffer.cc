#include "common/buffer.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "common/logging.h"
#include "common/sync.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace ray {
namespace {

// glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit, the ceiling of its dynamic
// mmap threshold: glibc serves every request this large with a fresh mmap and
// unmaps it on free, whatever M_MMAP_THRESHOLD says (it refuses higher
// values), so each such buffer faults in all its pages again. Blocks this
// large are reused here instead. Smaller ones stay with malloc, whose arenas
// hand freed memory out again with its pages still mapped; caching them here
// too faulted more, since each miss mapped pages an arena would have reused.
constexpr size_t kMinCachedBlockBytes = 32ull << 20;
// Bound on idle mapped memory the cache keeps: eight blocks of exactly
// 32 MiB, or seven of a serialized 32 MiB value (its 8-byte length prefix
// rounds the block up by a page).
constexpr size_t kMaxCachedBytes = 256ull << 20;

// Free list of mapped blocks of kMinCachedBlockBytes or more. It holds at
// most kMaxCachedBytes / kMinCachedBlockBytes blocks, so a linear scan finds
// the best fit. Its mutex is a leaf: nothing else is locked while it is held,
// so a Buffer may die under any other lock (ObjectStore.mu, for one). Under
// ASan a cached block is poisoned, so a read through a stale pointer into it
// is reported as it would be for freed heap memory.
class BlockCache {
 public:
  BlockCache() { blocks_.reserve(kMaxCachedBytes / kMinCachedBlockBytes); }

  // The smallest cached block of at least `capacity` bytes and at most twice
  // that, or null. Sets `capacity` to the block's.
  uint8_t* Take(size_t* capacity) {
    Entry found;
    {
      MutexLock lock(mu_);
      auto best = blocks_.end();
      for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
        if (it->capacity >= *capacity && it->capacity / 2 <= *capacity &&
            (best == blocks_.end() || it->capacity < best->capacity)) {
          best = it;
        }
      }
      if (best == blocks_.end()) {
        return nullptr;
      }
      found = *best;
      *best = blocks_.back();
      blocks_.pop_back();
      bytes_ -= found.capacity;
    }
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(found.data, found.capacity);
#endif
    *capacity = found.capacity;
    return found.data;
  }

  // Keeps the block unless that would put more than kMaxCachedBytes in the
  // cache; returns false when the caller must unmap it.
  bool Keep(uint8_t* data, size_t capacity) {
    MutexLock lock(mu_);
    if (bytes_ + capacity > kMaxCachedBytes) {
      return false;
    }
    // Poisoned before it is listed: once listed, another thread may take it.
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(data, capacity);
#endif
    blocks_.push_back({data, capacity});
    bytes_ += capacity;
    return true;
  }

 private:
  struct Entry {
    uint8_t* data = nullptr;
    size_t capacity = 0;
  };
  Mutex mu_{"BlockCache.mu"};
  std::vector<Entry> blocks_ GUARDED_BY(mu_);
  size_t bytes_ GUARDED_BY(mu_) = 0;
};

// Never destroyed, so buffers released during exit still find it.
BlockCache& Cache() {
  static BlockCache* cache = new BlockCache();
  return *cache;
}

size_t RoundUpToPage(size_t n) {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  if (n > SIZE_MAX - page) {
    throw std::bad_alloc();
  }
  return (n + page - 1) / page * page;
}

}  // namespace

Buffer::Block::Block(size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    return;
  }
  if (capacity < kMinCachedBlockBytes) {
    data_ = static_cast<uint8_t*>(std::malloc(capacity));
    if (data_ == nullptr) {
      throw std::bad_alloc();
    }
    return;
  }
  capacity_ = RoundUpToPage(capacity);
  data_ = Cache().Take(&capacity_);
  if (data_ != nullptr) {
    return;
  }
  void* mapped = mmap(nullptr, capacity_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                      -1, 0);
  if (mapped == MAP_FAILED) {
    throw std::bad_alloc();
  }
  data_ = static_cast<uint8_t*>(mapped);
}

Buffer::Block::~Block() {
  if (data_ == nullptr) {
    return;
  }
  if (capacity_ < kMinCachedBlockBytes) {
    std::free(data_);
  } else if (!Cache().Keep(data_, capacity_)) {
    munmap(data_, capacity_);
  }
}

Buffer::Buffer(Block block, size_t size) : block_(std::move(block)), size_(size) {
  RAY_CHECK(size <= block_.capacity());
}

}  // namespace ray
