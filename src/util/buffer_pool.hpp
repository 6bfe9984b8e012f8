/// \file buffer_pool.hpp
/// Recycling pool of shared byte buffers for the zero-copy wire path.
///
/// Wire sends hand a `Payload` (shared_ptr<const Bytes>) to the network,
/// which holds it until the last in-flight delivery runs. Allocating a
/// fresh control block + vector per datagram dominated the send-side
/// allocation profile. The pool is a free list instead: acquire() pops a
/// buffer, and the shared_ptr's deleter pushes it back when the last
/// Payload copy dies, so both ends are O(1). The shared_ptr control blocks
/// are recycled too, through a free-list allocator passed to the
/// `shared_ptr(p, d, a)` constructor. Buffers keep their capacity across
/// reuse, so after warm-up steady-state acquires allocate nothing.
///
/// Lifetime rules:
///   - acquire() returns a cleared, mutable buffer; fill it, then convert
///     to Payload (shared_ptr<const Bytes>) and send. Never mutate after
///     converting — readers hold views into it.
///   - The buffer returns to circulation automatically when the last
///     Payload copy dies; there is no release() call to forget.
///   - A buffer may outlive its pool (a network closure can still hold a
///     datagram when its Context dies). The free lists live in a shared
///     core that every control block's allocator co-owns, so a late return
///     lands in the core, and the core frees everything once the pool and
///     the last outstanding buffer are gone.
///   - Single-threaded by design (one pool per simulated World / Context).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "util/types.hpp"

namespace gcs {

class BufferPool {
 public:
  BufferPool() : core_(std::make_shared<Core>()) {}
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A cleared buffer, capacity preserved from earlier use when recycled.
  std::shared_ptr<Bytes> acquire() {
    Core& core = *core_;
    Bytes* buf = nullptr;
    if (core.buffers.empty()) {
      // Keep room for every buffer and its control block to come home, so
      // the deleter and deallocate() never allocate: they run in noexcept
      // code. Each acquire makes exactly one control block.
      if (core.buffers.capacity() <= core.created) {
        core.buffers.reserve(2 * core.created + 1);
        core.blocks.reserve(2 * core.created + 1);
      }
      buf = new Bytes();
      ++core.created;
    } else {
      buf = core.buffers.back();
      core.buffers.pop_back();
      buf->clear();
    }
    return std::shared_ptr<Bytes>(buf, Return{&core}, BlockAllocator<Bytes>{core_});
  }

  /// Buffers ever created (pool high-water mark).
  std::size_t size() const { return core_->created; }

 private:
  /// Free lists shared by the pool and every outstanding control block.
  struct Core {
    std::vector<Bytes*> buffers;  // idle buffers
    std::vector<void*> blocks;    // idle control blocks, all block_size bytes
    std::size_t block_size = 0;
    std::size_t created = 0;

    Core() = default;
    Core(const Core&) = delete;
    Core& operator=(const Core&) = delete;
    ~Core() {
      for (Bytes* b : buffers) delete b;
      for (void* p : blocks) ::operator delete(p);
    }
  };

  /// Deleter: the last Payload reference hands the buffer back. The
  /// allocator copy in the same control block keeps the core alive.
  struct Return {
    Core* core;
    void operator()(Bytes* buf) const { core->buffers.push_back(buf); }
  };

  /// Control-block allocator. shared_ptr allocates exactly one block of
  /// one size per acquire; any other request goes straight to the heap.
  template <typename T>
  struct BlockAllocator {
    using value_type = T;
    std::shared_ptr<Core> core;

    BlockAllocator(std::shared_ptr<Core> c) : core(std::move(c)) {}  // NOLINT
    template <typename U>
    BlockAllocator(const BlockAllocator<U>& other) : core(other.core) {}  // NOLINT

    T* allocate(std::size_t n) {
      const std::size_t bytes = n * sizeof(T);
      if (core->block_size == 0) core->block_size = bytes;
      if (bytes == core->block_size && !core->blocks.empty()) {
        void* p = core->blocks.back();
        core->blocks.pop_back();
        return static_cast<T*>(p);
      }
      return static_cast<T*>(::operator new(bytes));
    }
    void deallocate(T* p, std::size_t n) {
      if (n * sizeof(T) == core->block_size) {
        core->blocks.push_back(p);
      } else {
        ::operator delete(p);
      }
    }
    template <typename U>
    bool operator==(const BlockAllocator<U>& other) const { return core == other.core; }
  };

  std::shared_ptr<Core> core_;
};

}  // namespace gcs
