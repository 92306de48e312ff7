// A single GCS shard's storage: an in-memory hash table with single-key
// operations only (the paper's GCS uses Redis with entirely single-key ops,
// Section 4.2.4). Nothing reads it in key order (Flush and CopyFrom visit
// every entry), so each operation is one hash lookup, not a string-compare
// walk down a tree. Supports plain values, append-only lists (used by the
// Object Table to accumulate location add/remove records), byte-level memory
// accounting, and flushing cold entries to a simulated disk tier (Fig. 10b).
#ifndef RAY_GCS_KV_STORE_H_
#define RAY_GCS_KV_STORE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace ray {
namespace gcs {

class KvStore {
 public:
  // Overwrites the value at `key`.
  void Put(const std::string& key, const std::string& value);

  // Appends an element to the list at `key` (creates the list if absent).
  void Append(const std::string& key, const std::string& element);

  // Atomically increments the unsigned counter at `key` (0 if absent) and
  // returns the new value. Single-key, like every other GCS operation.
  uint64_t Increment(const std::string& key);

  std::optional<std::string> Get(const std::string& key) const;
  std::optional<std::vector<std::string>> GetList(const std::string& key) const;

  bool Delete(const std::string& key);
  bool Contains(const std::string& key) const;

  // Memory-tier footprint in bytes (keys + values of un-flushed entries).
  size_t MemoryBytes() const { return memory_bytes_; }
  // Simulated on-disk footprint.
  size_t DiskBytes() const { return disk_bytes_; }
  size_t NumEntries() const { return values_.size() + lists_.size(); }

  // Moves every entry for which `predicate(key)` holds to the disk tier.
  // Flushed entries remain readable (the read transparently hits "disk").
  // Returns the number of bytes moved.
  size_t Flush(const std::function<bool(const std::string&)>& predicate);

  // Copies the entire contents of `src` into this store (chain state
  // transfer when a replica rejoins). Returns bytes copied.
  size_t CopyFrom(const KvStore& src);

  void Clear();

 private:
  struct Entry {
    std::string value;
    bool on_disk = false;
  };
  struct ListEntry {
    std::vector<std::string> elements;
    bool on_disk = false;
  };

  static size_t ListBytes(const std::string& key, const ListEntry& e);

  std::unordered_map<std::string, Entry> values_;
  std::unordered_map<std::string, ListEntry> lists_;
  size_t memory_bytes_ = 0;
  size_t disk_bytes_ = 0;
};

}  // namespace gcs
}  // namespace ray

#endif  // RAY_GCS_KV_STORE_H_
