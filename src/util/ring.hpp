/// \file ring.hpp
/// Growable circular buffer indexed from its front: the storage behind
/// seq-indexed queues whose live keys form a window [base, base + size).
///
/// The channel's retransmit queue and holdback and atomic broadcast's
/// per-origin state each map a dense seq to `ring[seq - base]`. Pushing at
/// either end and popping at the front are O(1) and allocate nothing once
/// the capacity (a power of two, doubled on demand, never shrunk) has
/// reached the window's high-water mark. A popped slot is reset to T{}, so
/// a slot holding a shared buffer releases it at once; a T with a
/// `recycle()` member is recycled in place instead, so a slot keeps the
/// buffers it owns for the seq that reuses it.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace gcs {

template <typename T>
class Ring {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  const T& operator[](std::size_t i) const { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T value) {
    reserve(size_ + 1);
    (*this)[size_++] = std::move(value);
  }
  void push_front(T value) {
    reserve(size_ + 1);
    head_ = (head_ + buf_.size() - 1) & (buf_.size() - 1);
    ++size_;
    front() = std::move(value);
  }
  void pop_front() {
    reset(front());
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }
  void pop_back() {
    reset(back());
    --size_;
  }
  /// Insert before index \p i, shifting the shorter side.
  void insert(std::size_t i, T value) {
    if (i < size_ / 2) {
      push_front(T{});
      for (std::size_t j = 0; j < i; ++j) (*this)[j] = std::move((*this)[j + 1]);
    } else {
      push_back(T{});
      for (std::size_t j = size_ - 1; j > i; --j) (*this)[j] = std::move((*this)[j - 1]);
    }
    (*this)[i] = std::move(value);
  }
  /// Remove index \p i, shifting the shorter side.
  void erase(std::size_t i) {
    if (i < size_ / 2) {
      for (std::size_t j = i; j > 0; --j) (*this)[j] = std::move((*this)[j - 1]);
      pop_front();
    } else {
      for (std::size_t j = i; j + 1 < size_; ++j) (*this)[j] = std::move((*this)[j + 1]);
      pop_back();
    }
  }
  /// Grow to \p n slots; the new back slots are T{}.
  void extend(std::size_t n) {
    if (n <= size_) return;
    reserve(n);
    size_ = n;
  }
  /// Add \p n slots at the front; they are T{}.
  void extend_front(std::size_t n) {
    reserve(size_ + n);
    head_ = (head_ + buf_.size() - n) & (buf_.size() - 1);
    size_ += n;
  }
  void clear() {
    while (size_ > 0) pop_back();
    head_ = 0;
  }

 private:
  static void reset(T& slot) {
    if constexpr (requires { slot.recycle(); }) {
      slot.recycle();
    } else {
      slot = T{};
    }
  }
  // Slots outside [head_, head_ + size_) always hold T{} (or a recycled T).
  void reserve(std::size_t n) {
    if (n <= buf_.size()) return;
    std::size_t cap = buf_.empty() ? 8 : buf_.size();
    while (cap < n) cap *= 2;
    std::vector<T> grown(cap);
    for (std::size_t i = 0; i < size_; ++i) grown[i] = std::move((*this)[i]);
    buf_.swap(grown);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace gcs
