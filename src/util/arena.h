#ifndef LSMLAB_UTIL_ARENA_H_
#define LSMLAB_UTIL_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>

#include "util/mutex.h"

namespace lsmlab {

/// Bump allocator backing the memtable.
///
/// Allocations are never individually freed; all memory is released when the
/// Arena is destroyed (which is when the memtable is dropped after a flush).
/// MemoryUsage() is what the engine compares against the write-buffer size
/// to decide when to flush.
///
/// Any number of threads may allocate at once. All of them bump one shared
/// block through a CAS on its offset; only refills and large objects take
/// blocks_mu_. Blocks fill in allocation order whichever thread asks, so
/// MemoryUsage() tracks the bytes stored, not the number of writers, and a
/// lone thread's allocations are those of the classic single-writer arena.
class Arena {
 public:
  Arena() = default;
  ~Arena() = default;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns a pointer to a newly allocated block of `bytes` bytes.
  char* Allocate(size_t bytes) { return AllocateImpl(bytes, 1); }

  /// Allocate with the platform's pointer alignment (for node structs).
  char* AllocateAligned(size_t bytes);

  /// Total memory reserved by the arena (including block headroom).
  /// Relaxed atomic read; safe from any thread, including while
  /// allocations run.
  size_t MemoryUsage() const {
    return memory_usage_.load(std::memory_order_relaxed);
  }

 private:
  struct Block {
    explicit Block(size_t n) : data(std::make_unique<char[]>(n)), size(n) {}
    const std::unique_ptr<char[]> data;
    const size_t size;
    /// Bytes handed out so far; advanced by CAS while this is current_.
    std::atomic<size_t> used{0};
  };

  char* AllocateImpl(size_t bytes, size_t align);
  /// Carves `bytes` at `align` from `block`, or returns nullptr if it no
  /// longer fits.
  static char* TryBump(Block* block, size_t bytes, size_t align);
  Block* AllocateNewBlock(size_t block_bytes) REQUIRES(blocks_mu_);

  Mutex blocks_mu_{LockRank::kArenaMu};
  /// A deque so that Block addresses stay put as blocks are added.
  std::deque<Block> blocks_ GUARDED_BY(blocks_mu_);
  /// The shared bump block; replaced under blocks_mu_. A thread still
  /// bumping a replaced block merely uses up its remainder.
  std::atomic<Block*> current_{nullptr};
  std::atomic<size_t> memory_usage_{0};
};

}  // namespace lsmlab

#endif  // LSMLAB_UTIL_ARENA_H_
