#ifndef LSMLAB_CACHE_BLOCK_CACHE_H_
#define LSMLAB_CACHE_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <source_location>

#include "cache/lru_cache.h"
#include "format/block.h"

namespace lsmlab {

/// Typed block cache: maps (cache_id, block_offset) -> parsed Block.
///
/// Every reader draws its own cache_id from NewId() (LevelDB's cache_id_),
/// so readers of different databases sharing one cache — the shards of a
/// ShardedDB, which number their files independently — never alias each
/// other's blocks.
class BlockCache {
 public:
  explicit BlockCache(size_t capacity_bytes)
      : cache_(capacity_bytes, /*num_shards=*/4) {}

  /// RAII pin on a cached block.
  class Ref {
   public:
    Ref() : cache_(nullptr), handle_(nullptr), block_(nullptr) {}
    Ref(LruCache* cache, LruCache::Handle* handle, const Block* block)
        : cache_(cache), handle_(handle), block_(block) {}
    Ref(Ref&& o) noexcept
        : cache_(o.cache_), handle_(o.handle_), block_(o.block_) {
      o.cache_ = nullptr;
      o.handle_ = nullptr;
      o.block_ = nullptr;
    }
    Ref& operator=(Ref&& o) noexcept {
      Reset();
      cache_ = o.cache_;
      handle_ = o.handle_;
      block_ = o.block_;
      o.cache_ = nullptr;
      o.handle_ = nullptr;
      o.block_ = nullptr;
      return *this;
    }
    Ref(const Ref&) = delete;
    Ref& operator=(const Ref&) = delete;
    ~Ref() { Reset(); }

    const Block* block() const { return block_; }
    explicit operator bool() const { return block_ != nullptr; }

    void Reset() {
      if (handle_ != nullptr) {
        cache_->Release(handle_);
        handle_ = nullptr;
        block_ = nullptr;
      }
    }

   private:
    LruCache* cache_;
    LruCache::Handle* handle_;
    const Block* block_;
  };

  /// A key space no other caller of this cache has: one per reader.
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Returns a pinned ref, or an empty Ref on miss.
  Ref Lookup(uint64_t cache_id, uint64_t offset,
             std::source_location loc = std::source_location::current());

  /// Inserts `block` (ownership transferred) and returns a pinned ref.
  Ref Insert(uint64_t cache_id, uint64_t offset,
             std::unique_ptr<const Block> block,
             std::source_location loc = std::source_location::current());

  LruCache::Stats GetStats() const { return cache_.GetStats(); }
  /// Resets the hit/miss counters.
  void ResetStats() { cache_.ResetStats(); }
  size_t TotalCharge() const { return cache_.TotalCharge(); }
  size_t capacity() const { return cache_.capacity(); }

 private:
  static std::string MakeKey(uint64_t cache_id, uint64_t offset);

  LruCache cache_;
  std::atomic<uint64_t> next_id_{1};
};

}  // namespace lsmlab

#endif  // LSMLAB_CACHE_BLOCK_CACHE_H_
