#include "cache/block_cache.h"

#include "obs/perf_context.h"
#include "util/coding.h"

namespace lsmlab {

std::string BlockCache::MakeKey(uint64_t cache_id, uint64_t offset) {
  std::string key;
  key.reserve(16);
  PutFixed64(&key, cache_id);
  PutFixed64(&key, offset);
  return key;
}

BlockCache::Ref BlockCache::Lookup(uint64_t cache_id, uint64_t offset,
                                   std::source_location loc) {
  const std::string key = MakeKey(cache_id, offset);
  // Forward the caller's site so debug pin-leak reports name the reader
  // that took the ref, not this wrapper.
  LruCache::Handle* handle = cache_.Lookup(key, loc);
  if (handle == nullptr) {
    GetPerfContext()->block_cache_miss_count++;
    return Ref();
  }
  GetPerfContext()->block_cache_hit_count++;
  return Ref(&cache_, handle,
             static_cast<const Block*>(cache_.Value(handle)));
}

BlockCache::Ref BlockCache::Insert(uint64_t cache_id, uint64_t offset,
                                   std::unique_ptr<const Block> block,
                                   std::source_location loc) {
  const std::string key = MakeKey(cache_id, offset);
  const Block* raw = block.release();
  LruCache::Handle* handle = cache_.Insert(
      key, const_cast<Block*>(raw), raw->size(),
      [](const Slice&, void* value) {
        delete static_cast<const Block*>(value);
      },
      loc);
  return Ref(&cache_, handle, raw);
}

}  // namespace lsmlab
