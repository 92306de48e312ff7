#include "gcs/kv_store.h"

#include <cstring>

namespace ray {
namespace gcs {

namespace {
size_t EntryBytes(const std::string& key, const std::string& value) { return key.size() + value.size(); }
}  // namespace

size_t KvStore::ListBytes(const std::string& key, const ListEntry& e) {
  size_t n = key.size();
  for (const auto& el : e.elements) {
    n += el.size();
  }
  return n;
}

void KvStore::Put(const std::string& key, const std::string& value) {
  auto it = values_.find(key);
  if (it != values_.end()) {
    size_t old_bytes = EntryBytes(key, it->second.value);
    if (it->second.on_disk) {
      disk_bytes_ -= old_bytes;
    } else {
      memory_bytes_ -= old_bytes;
    }
    it->second.value = value;
    it->second.on_disk = false;
  } else {
    it = values_.emplace(key, Entry{value, false}).first;
  }
  memory_bytes_ += EntryBytes(key, value);
}

void KvStore::Append(const std::string& key, const std::string& element) {
  auto& entry = lists_[key];
  if (entry.on_disk) {
    // Appending revives the list into the memory tier.
    disk_bytes_ -= ListBytes(key, entry);
    entry.on_disk = false;
    memory_bytes_ += ListBytes(key, entry);
  }
  entry.elements.push_back(element);
  memory_bytes_ += element.size() + (entry.elements.size() == 1 ? key.size() : 0);
}

uint64_t KvStore::Increment(const std::string& key) {
  uint64_t value = 0;
  if (auto existing = Get(key); existing && existing->size() == sizeof(uint64_t)) {
    std::memcpy(&value, existing->data(), sizeof(value));
  }
  ++value;
  Put(key, std::string(reinterpret_cast<const char*>(&value), sizeof(value)));
  return value;
}

std::optional<std::string> KvStore::Get(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return std::nullopt;
  }
  return it->second.value;
}

std::optional<std::vector<std::string>> KvStore::GetList(const std::string& key) const {
  auto it = lists_.find(key);
  if (it == lists_.end()) {
    return std::nullopt;
  }
  return it->second.elements;
}

bool KvStore::Delete(const std::string& key) {
  bool erased = false;
  if (auto it = values_.find(key); it != values_.end()) {
    size_t bytes = EntryBytes(key, it->second.value);
    (it->second.on_disk ? disk_bytes_ : memory_bytes_) -= bytes;
    values_.erase(it);
    erased = true;
  }
  if (auto it = lists_.find(key); it != lists_.end()) {
    size_t bytes = ListBytes(key, it->second);
    (it->second.on_disk ? disk_bytes_ : memory_bytes_) -= bytes;
    lists_.erase(it);
    erased = true;
  }
  return erased;
}

bool KvStore::Contains(const std::string& key) const {
  return values_.count(key) > 0 || lists_.count(key) > 0;
}

size_t KvStore::Flush(const std::function<bool(const std::string&)>& predicate) {
  size_t moved = 0;
  for (auto& [key, entry] : values_) {
    if (!entry.on_disk && predicate(key)) {
      size_t bytes = EntryBytes(key, entry.value);
      entry.on_disk = true;
      memory_bytes_ -= bytes;
      disk_bytes_ += bytes;
      moved += bytes;
    }
  }
  for (auto& [key, entry] : lists_) {
    if (!entry.on_disk && predicate(key)) {
      size_t bytes = ListBytes(key, entry);
      entry.on_disk = true;
      memory_bytes_ -= bytes;
      disk_bytes_ += bytes;
      moved += bytes;
    }
  }
  return moved;
}

size_t KvStore::CopyFrom(const KvStore& src) {
  Clear();
  values_.reserve(src.values_.size());
  lists_.reserve(src.lists_.size());
  size_t copied = 0;
  for (const auto& [key, entry] : src.values_) {
    values_.emplace(key, entry);
    size_t bytes = EntryBytes(key, entry.value);
    (entry.on_disk ? disk_bytes_ : memory_bytes_) += bytes;
    copied += bytes;
  }
  for (const auto& [key, entry] : src.lists_) {
    lists_.emplace(key, entry);
    size_t bytes = ListBytes(key, entry);
    (entry.on_disk ? disk_bytes_ : memory_bytes_) += bytes;
    copied += bytes;
  }
  return copied;
}

void KvStore::Clear() {
  values_.clear();
  lists_.clear();
  memory_bytes_ = 0;
  disk_bytes_ = 0;
}

}  // namespace gcs
}  // namespace ray
