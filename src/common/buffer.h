// Immutable shared byte buffers. Objects in the store are immutable (Section
// 4.2.3), so a buffer can be shared zero-copy among all readers on a node via
// shared_ptr, which plays the role of shared memory in the real system.
//
// Buffers are create-then-seal, as in Plasma: a buffer's bytes start
// uninitialized and its creator writes each of them once before sharing it.
// Storage of 32 MiB or more is reused from a small cache of mapped blocks
// instead of being mapped and faulted in afresh (buffer.cc).
#ifndef RAY_COMMON_BUFFER_H_
#define RAY_COMMON_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

namespace ray {

class Buffer {
 public:
  // Move-only uninitialized storage: a pointer and its capacity. Blocks of
  // 32 MiB or more come page-rounded from the block cache in buffer.cc;
  // smaller ones from malloc. Throws std::bad_alloc on failure.
  class Block {
   public:
    Block() = default;
    explicit Block(size_t capacity);
    ~Block();
    Block(Block&& other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          capacity_(std::exchange(other.capacity_, 0)) {}
    Block& operator=(Block&& other) noexcept {
      std::swap(data_, other.data_);
      std::swap(capacity_, other.capacity_);
      return *this;
    }
    Block(const Block&) = delete;
    Block& operator=(const Block&) = delete;

    uint8_t* data() const { return data_; }
    size_t capacity() const { return capacity_; }

   private:
    uint8_t* data_ = nullptr;
    size_t capacity_ = 0;
  };

  Buffer() = default;
  // The bytes are uninitialized: the creator writes every byte before the
  // buffer is shared or sealed.
  explicit Buffer(size_t size) : block_(size), size_(size) {}
  Buffer(const void* src, size_t size) : Buffer(size) {
    if (size > 0) {
      std::memcpy(block_.data(), src, size);
    }
  }
  // Adopts `block`, whose first `size` bytes are written (Writer::Finish).
  Buffer(Block block, size_t size);

  static std::shared_ptr<Buffer> FromString(const std::string& s) {
    return std::make_shared<Buffer>(s.data(), s.size());
  }

  const uint8_t* Data() const { return block_.data(); }
  uint8_t* MutableData() { return block_.data(); }
  size_t Size() const { return size_; }

  std::string ToString() const { return std::string(reinterpret_cast<const char*>(Data()), size_); }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.size_ == b.size_ && (a.size_ == 0 || std::memcmp(a.Data(), b.Data(), a.size_) == 0);
  }

 private:
  Block block_;
  size_t size_ = 0;
};

using BufferPtr = std::shared_ptr<const Buffer>;

}  // namespace ray

#endif  // RAY_COMMON_BUFFER_H_
