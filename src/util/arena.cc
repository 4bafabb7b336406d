#include "util/arena.h"

#include <cassert>

namespace lsmlab {

namespace {

constexpr size_t kBlockSize = 4096;

}  // namespace

char* Arena::AllocateAligned(size_t bytes) {
  const size_t align = alignof(max_align_t) > 8 ? alignof(max_align_t) : 8;
  static_assert((alignof(max_align_t) & (alignof(max_align_t) - 1)) == 0,
                "alignment must be a power of two");
  char* result = AllocateImpl(bytes, align);
  assert((reinterpret_cast<uintptr_t>(result) & (align - 1)) == 0);
  return result;
}

char* Arena::TryBump(Block* block, size_t bytes, size_t align) {
  char* const base = block->data.get();
  size_t used = block->used.load();
  for (;;) {
    const size_t mod = reinterpret_cast<uintptr_t>(base + used) & (align - 1);
    const size_t slop = (mod == 0 ? 0 : align - mod);
    if (bytes + slop > block->size - used) {
      return nullptr;
    }
    if (block->used.compare_exchange_weak(used, used + slop + bytes)) {
      return base + used + slop;
    }
  }
}

char* Arena::AllocateImpl(size_t bytes, size_t align) {
  assert(bytes > 0);
  assert((align & (align - 1)) == 0);
  for (;;) {
    Block* block = current_.load();
    if (block != nullptr) {
      if (char* result = TryBump(block, bytes, align)) {
        return result;
      }
    }
    MutexLock lock(&blocks_mu_);
    if (bytes > kBlockSize / 4) {
      // Large objects get their own block so the current one keeps its
      // remainder; operator new[] memory is naturally aligned.
      return AllocateNewBlock(bytes)->data.get();
    }
    if (current_.load() != block) {
      continue;  // another thread refilled meanwhile: bump its block
    }
    Block* fresh = AllocateNewBlock(kBlockSize);
    fresh->used.store(bytes);
    current_.store(fresh);
    return fresh->data.get();  // fresh blocks are naturally aligned
  }
}

Arena::Block* Arena::AllocateNewBlock(size_t block_bytes) {
  blocks_.emplace_back(block_bytes);
  memory_usage_.fetch_add(block_bytes + sizeof(char*),
                          std::memory_order_relaxed);
  return &blocks_.back();
}

}  // namespace lsmlab
