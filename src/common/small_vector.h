#ifndef RFIDCLEAN_COMMON_SMALL_VECTOR_H_
#define RFIDCLEAN_COMMON_SMALL_VECTOR_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <type_traits>
#include <vector>

#include "common/check.h"

namespace rfidclean {

/// A vector with inline storage for up to `N` elements, spilling to the heap
/// beyond that. Used for the "recent departures" lists (TL) of location-node
/// keys during construction, which are almost always tiny: keeping them
/// inline spares the forward phase a heap allocation per key.
///
/// Restricted to trivially copyable `T` — sufficient for our use and keeps
/// the implementation simple and exception-free.
template <typename T, std::size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector requires trivially copyable elements");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() = default;
  SmallVector(std::initializer_list<T> init) {
    for (const T& v : init) push_back(v);
  }
  SmallVector(const SmallVector& other) { CopyFrom(other); }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      clear();
      CopyFrom(other);
    }
    return *this;
  }
  SmallVector(SmallVector&& other) noexcept
      : inline_(other.inline_),
        heap_(std::move(other.heap_)),
        size_(other.size_) {
    other.size_ = 0;
    other.heap_.clear();
  }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      inline_ = other.inline_;
      heap_ = std::move(other.heap_);
      size_ = other.size_;
      other.size_ = 0;
      other.heap_.clear();
    }
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void push_back(const T& v) {
    if (size_ < N) {
      inline_[size_] = v;
    } else {
      heap_.push_back(v);
    }
    ++size_;
  }

  void pop_back() {
    RFID_CHECK_GT(size_, 0u);
    --size_;
    if (size_ >= N) heap_.pop_back();
  }

  void clear() {
    size_ = 0;
    heap_.clear();
  }

  T& operator[](std::size_t i) {
    RFID_CHECK_LT(i, size_);
    return i < N ? inline_[i] : heap_[i - N];
  }
  const T& operator[](std::size_t i) const {
    RFID_CHECK_LT(i, size_);
    return i < N ? inline_[i] : heap_[i - N];
  }

  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  /// Iteration. Elements spilled to the heap are not contiguous with the
  /// inline ones, so iterators are only valid when size() <= N; for larger
  /// vectors use index-based access or ForEach.
  iterator begin() {
    RFID_CHECK_LE(size_, N);
    return inline_.data();
  }
  iterator end() {
    RFID_CHECK_LE(size_, N);
    return inline_.data() + size_;
  }
  const_iterator begin() const {
    RFID_CHECK_LE(size_, N);
    return inline_.data();
  }
  const_iterator end() const {
    RFID_CHECK_LE(size_, N);
    return inline_.data() + size_;
  }

  /// Applies `fn(const T&)` to every element, regardless of storage.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) fn((*this)[i]);
  }

  /// Bytes of heap memory owned by this vector (0 while inline).
  std::size_t HeapBytes() const { return heap_.capacity() * sizeof(T); }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }

 private:
  void CopyFrom(const SmallVector& other) {
    for (std::size_t i = 0; i < other.size_; ++i) push_back(other[i]);
  }

  std::array<T, N> inline_{};
  std::vector<T> heap_;
  std::size_t size_ = 0;
};

}  // namespace rfidclean

#endif  // RFIDCLEAN_COMMON_SMALL_VECTOR_H_
