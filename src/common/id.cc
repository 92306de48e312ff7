#include "common/id.h"

#include <atomic>
#include <random>
#include <type_traits>

namespace ray {
namespace {

// 128-bit mixing based on two rounds of splitmix64 over each half. Good
// enough for uniqueness/dispersion; this is not cryptographic.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::pair<uint64_t, uint64_t> RandomPair() {
  // Thread-local generator seeded once per thread from random_device plus a
  // global counter, so concurrent threads never collide.
  static std::atomic<uint64_t> counter{0};
  thread_local std::mt19937_64 gen([] {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) ^ rd() ^ SplitMix64(counter.fetch_add(1) + 0x51ULL);
  }());
  return {gen(), gen()};
}

// Bytes 12-15 of an ID, read and written as a little-endian uint32: zero in
// a task ID, kReturnBit | (index + 1) in a task's return (see id.h).
constexpr size_t kTailOffset = 12;
constexpr uint32_t kReturnBit = 0x80000000u;

uint32_t ReadTail(const uint8_t* data) {
  uint32_t tail = 0;
  for (size_t i = 0; i < 4; ++i) {
    tail |= static_cast<uint32_t>(data[kTailOffset + i]) << (8 * i);
  }
  return tail;
}

void WriteTail(uint8_t* data, uint32_t tail) {
  for (size_t i = 0; i < 4; ++i) {
    data[kTailOffset + i] = static_cast<uint8_t>(tail >> (8 * i));
  }
}

// Makes an object ID that is not a task's return never look like one.
void ClearReturnBit(uint8_t* data) { WriteTail(data, ReadTail(data) & ~kReturnBit); }

}  // namespace

template <typename Tag>
BaseId<Tag> BaseId<Tag>::FromRandom() {
  BaseId id;
  auto [a, b] = RandomPair();
  std::memcpy(id.data_.data(), &a, 8);
  std::memcpy(id.data_.data() + 8, &b, 8);
  if constexpr (std::is_same_v<Tag, TaskIdTag>) {
    WriteTail(id.data_.data(), 0);  // where a return's index goes
  } else if constexpr (std::is_same_v<Tag, ObjectIdTag>) {
    ClearReturnBit(id.data_.data());
  }
  return id;
}

template <typename Tag>
BaseId<Tag> BaseId<Tag>::Derive(uint64_t index) const {
  uint64_t lo;
  uint64_t hi;
  std::memcpy(&lo, data_.data(), 8);
  std::memcpy(&hi, data_.data() + 8, 8);
  uint64_t a = SplitMix64(lo ^ SplitMix64(index));
  uint64_t b = SplitMix64(hi ^ SplitMix64(index + 0x1234567ULL));
  BaseId out;
  std::memcpy(out.data_.data(), &a, 8);
  std::memcpy(out.data_.data() + 8, &b, 8);
  return out;
}

template <typename Tag>
BaseId<Tag> BaseId<Tag>::FromBinary(const std::string& bytes) {
  BaseId id;
  std::memcpy(id.data_.data(), bytes.data(), std::min(bytes.size(), kSize));
  return id;
}

template <typename Tag>
std::string BaseId<Tag>::Hex() const {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(kSize * 2);
  for (uint8_t b : data_) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

ObjectId ObjectIdForReturn(const TaskId& task, uint32_t index) {
  ObjectId object = task.Cast<ObjectIdTag>();
  WriteTail(object.MutableData(), kReturnBit | (index + 1));
  return object;
}

bool IsTaskReturn(const ObjectId& object) { return (ReadTail(object.Data()) & kReturnBit) != 0; }

TaskId ReturningTask(const ObjectId& object) {
  TaskId task = object.Cast<TaskIdTag>();
  WriteTail(task.MutableData(), 0);
  return task;
}

ObjectId ActorCursorId(const ActorId& actor, uint64_t call_index) {
  ObjectId cursor = actor.Derive(call_index ^ 0xac7091d5ULL).Cast<ObjectIdTag>();
  ClearReturnBit(cursor.MutableData());
  return cursor;
}

template class BaseId<ObjectIdTag>;
template class BaseId<TaskIdTag>;
template class BaseId<ActorIdTag>;
template class BaseId<NodeIdTag>;
template class BaseId<WorkerIdTag>;
template class BaseId<FunctionIdTag>;

}  // namespace ray
