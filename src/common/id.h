// Unique identifiers for every entity tracked by the system: objects, tasks,
// actors, nodes, and workers. IDs are 128-bit values.
//
// A task ID is 12 random bytes followed by four zero bytes. A task's i-th
// return is named by the task itself: its object ID is the task's bytes 0-11
// followed by the little-endian uint32 0x80000000 | (i + 1). So re-executing
// a task reproduces the same object IDs, which is what makes lineage
// reconstruction possible, and the layout is invertible: ReturningTask reads
// the creating task back out of a return's ID, so the Object Table stores no
// return -> task link (as in Ray's own ObjectID, a TaskID plus an index).
// The top bit of bytes 12-15 marks the shape: every other object ID (a put's
// random ID, an actor cursor) has it clear, so it is never taken for a
// return.
#ifndef RAY_COMMON_ID_H_
#define RAY_COMMON_ID_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

namespace ray {

// A 128-bit identifier. `Tag` makes each ID kind a distinct type so that a
// TaskId cannot be passed where an ObjectId is expected.
template <typename Tag>
class BaseId {
 public:
  static constexpr size_t kSize = 16;

  constexpr BaseId() : data_{} {}

  static BaseId FromRandom();

  // Derives a new ID by hashing this ID together with `index`. Deterministic:
  // the same (id, index) pair always yields the same result.
  BaseId Derive(uint64_t index) const;

  // Re-tags the raw bytes as a different ID kind (e.g. the object that
  // represents an actor's state cursor is derived from the actor ID).
  template <typename OtherTag>
  BaseId<OtherTag> Cast() const {
    BaseId<OtherTag> out;
    std::memcpy(out.MutableData(), data_.data(), kSize);
    return out;
  }

  static BaseId FromBinary(const std::string& bytes);

  bool IsNil() const {
    for (uint8_t b : data_) {
      if (b != 0) {
        return false;
      }
    }
    return true;
  }

  std::string Binary() const { return std::string(reinterpret_cast<const char*>(data_.data()), kSize); }
  std::string Hex() const;

  // Mixes both halves: a task's returns share bytes 0-11.
  uint64_t Hash() const {
    uint64_t lo;
    uint64_t hi;
    std::memcpy(&lo, data_.data(), sizeof(lo));
    std::memcpy(&hi, data_.data() + sizeof(lo), sizeof(hi));
    return lo ^ (hi * 0x9e3779b97f4a7c15ULL);
  }

  const uint8_t* Data() const { return data_.data(); }
  uint8_t* MutableData() { return data_.data(); }

  friend bool operator==(const BaseId& a, const BaseId& b) { return a.data_ == b.data_; }
  friend bool operator!=(const BaseId& a, const BaseId& b) { return !(a == b); }
  friend bool operator<(const BaseId& a, const BaseId& b) { return a.data_ < b.data_; }

 private:
  std::array<uint8_t, kSize> data_;
};

struct ObjectIdTag {};
struct TaskIdTag {};
struct ActorIdTag {};
struct NodeIdTag {};
struct WorkerIdTag {};
struct FunctionIdTag {};

using ObjectId = BaseId<ObjectIdTag>;
using TaskId = BaseId<TaskIdTag>;
using ActorId = BaseId<ActorIdTag>;
using NodeId = BaseId<NodeIdTag>;
using WorkerId = BaseId<WorkerIdTag>;
using FunctionId = BaseId<FunctionIdTag>;

// The object produced as the `index`-th return value of `task`; `index` is
// below 2^31 - 1.
ObjectId ObjectIdForReturn(const TaskId& task, uint32_t index);

// True iff `object` has the shape ObjectIdForReturn gives a task's return.
bool IsTaskReturn(const ObjectId& object);
// The task whose return `object` is. Meaningful only if IsTaskReturn(object).
TaskId ReturningTask(const ObjectId& object);

// The synthetic "cursor" object that represents the actor's state after its
// `call_index`-th method. Stateful edges in the task graph are expressed as a
// dependency on the previous cursor.
ObjectId ActorCursorId(const ActorId& actor, uint64_t call_index);

template <typename Tag>
std::string ToShortString(const BaseId<Tag>& id) {
  return id.Hex().substr(0, 8);
}

}  // namespace ray

namespace std {
template <typename Tag>
struct hash<ray::BaseId<Tag>> {
  size_t operator()(const ray::BaseId<Tag>& id) const noexcept { return static_cast<size_t>(id.Hash()); }
};
}  // namespace std

#endif  // RAY_COMMON_ID_H_
