// Minimal binary serialization for task arguments and return values. The
// real system uses Apache Arrow; here a compact little-endian archive is
// enough, since all evaluation workloads exchange PODs, strings, and vectors
// of floats. User types opt in by providing
//   void SerializeTo(ray::Writer&) const;  and
//   static T DeserializeFrom(ray::Reader&);
#ifndef RAY_COMMON_SERIALIZATION_H_
#define RAY_COMMON_SERIALIZATION_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/buffer.h"

namespace ray {

class Writer {
 public:
  template <typename T>
  std::enable_if_t<std::is_trivially_copyable_v<T>> WritePod(const T& v) {
    WriteBytes(&v, sizeof v);
  }

  void WriteBytes(const void* data, size_t size) {
    if (size > block_.capacity() - size_) {
      Grow(size);
    }
    if (size > 0) {
      std::memcpy(block_.data() + size_, data, size);
    }
    size_ += size;
  }

  // Hands the written bytes to the returned Buffer without copying them.
  std::shared_ptr<Buffer> Finish() {
    return std::make_shared<Buffer>(std::move(block_), std::exchange(size_, 0));
  }

 private:
  // Moves the written prefix into an uninitialized block with room for
  // `size` more bytes, at least doubling the capacity.
  void Grow(size_t size) {
    Buffer::Block bigger(std::max({2 * block_.capacity(), size_ + size, kMinCapacity}));
    if (size_ > 0) {
      std::memcpy(bigger.data(), block_.data(), size_);
    }
    block_ = std::move(bigger);
  }

  static constexpr size_t kMinCapacity = 64;
  Buffer::Block block_;
  size_t size_ = 0;
};

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const Buffer& buf) : Reader(buf.Data(), buf.Size()) {}

  template <typename T>
  std::enable_if_t<std::is_trivially_copyable_v<T>, T> ReadPod() {
    Require(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* ReadBytes(size_t size) {
    Require(size);
    const uint8_t* p = data_ + pos_;
    pos_ += size;
    return p;
  }

  size_t Remaining() const { return size_ - pos_; }

 private:
  // Compares against the bytes left, so a length near 2^64 cannot wrap the
  // bound.
  void Require(size_t n) const {
    if (n > size_ - pos_) {
      throw std::out_of_range("serialization: buffer underrun");
    }
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

namespace detail {

template <typename T, typename = void>
struct HasCustomSerialize : std::false_type {};
template <typename T>
struct HasCustomSerialize<T, std::void_t<decltype(std::declval<const T&>().SerializeTo(std::declval<Writer&>()))>>
    : std::true_type {};

}  // namespace detail

template <typename T>
void Put(Writer& w, const T& v);
template <typename T>
T Take(Reader& r);

// --- implementations ---

template <typename T>
struct Codec {
  static void Write(Writer& w, const T& v) {
    if constexpr (detail::HasCustomSerialize<T>::value) {
      v.SerializeTo(w);
    } else {
      static_assert(std::is_trivially_copyable_v<T>, "type needs SerializeTo/DeserializeFrom or must be POD");
      w.WritePod(v);
    }
  }
  static T Read(Reader& r) {
    if constexpr (detail::HasCustomSerialize<T>::value) {
      return T::DeserializeFrom(r);
    } else {
      return r.ReadPod<T>();
    }
  }
};

template <>
struct Codec<std::string> {
  static void Write(Writer& w, const std::string& v) {
    w.WritePod<uint64_t>(v.size());
    w.WriteBytes(v.data(), v.size());
  }
  static std::string Read(Reader& r) {
    auto n = r.ReadPod<uint64_t>();
    const uint8_t* p = r.ReadBytes(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }
};

template <typename E>
struct Codec<std::vector<E>> {
  static void Write(Writer& w, const std::vector<E>& v) {
    w.WritePod<uint64_t>(v.size());
    if constexpr (std::is_trivially_copyable_v<E> && !detail::HasCustomSerialize<E>::value) {
      w.WriteBytes(v.data(), v.size() * sizeof(E));
    } else {
      for (const E& e : v) {
        Codec<E>::Write(w, e);
      }
    }
  }
  static std::vector<E> Read(Reader& r) {
    auto n = r.ReadPod<uint64_t>();
    std::vector<E> v;
    if constexpr (std::is_trivially_copyable_v<E> && !detail::HasCustomSerialize<E>::value) {
      // Checked before the multiply below and before resize allocates.
      if (n > r.Remaining() / sizeof(E)) {
        throw std::out_of_range("serialization: buffer underrun");
      }
      v.resize(n);
      const uint8_t* p = r.ReadBytes(n * sizeof(E));
      if (n > 0) {
        std::memcpy(v.data(), p, n * sizeof(E));
      }
    } else {
      // A corrupt count must not size the allocation: reserve no more than
      // the bytes left.
      v.reserve(std::min<uint64_t>(n, r.Remaining()));
      for (uint64_t i = 0; i < n; ++i) {
        v.push_back(Codec<E>::Read(r));
      }
    }
    return v;
  }
};

template <typename A, typename B>
struct Codec<std::pair<A, B>> {
  static void Write(Writer& w, const std::pair<A, B>& v) {
    Codec<A>::Write(w, v.first);
    Codec<B>::Write(w, v.second);
  }
  static std::pair<A, B> Read(Reader& r) {
    A a = Codec<A>::Read(r);
    B b = Codec<B>::Read(r);
    return {std::move(a), std::move(b)};
  }
};

template <typename K, typename V>
struct Codec<std::map<K, V>> {
  static void Write(Writer& w, const std::map<K, V>& v) {
    w.WritePod<uint64_t>(v.size());
    for (const auto& [k, val] : v) {
      Codec<K>::Write(w, k);
      Codec<V>::Write(w, val);
    }
  }
  static std::map<K, V> Read(Reader& r) {
    auto n = r.ReadPod<uint64_t>();
    std::map<K, V> m;
    for (uint64_t i = 0; i < n; ++i) {
      K k = Codec<K>::Read(r);
      m.emplace(std::move(k), Codec<V>::Read(r));
    }
    return m;
  }
};

template <typename T>
void Put(Writer& w, const T& v) {
  Codec<T>::Write(w, v);
}

template <typename T>
T Take(Reader& r) {
  return Codec<T>::Read(r);
}

// Serializes a single value into a fresh buffer.
template <typename T>
std::shared_ptr<Buffer> SerializeValue(const T& v) {
  Writer w;
  Put(w, v);
  return w.Finish();
}

template <typename T>
T DeserializeValue(const Buffer& buf) {
  Reader r(buf);
  return Take<T>(r);
}

}  // namespace ray

#endif  // RAY_COMMON_SERIALIZATION_H_
