// A client of the library compiled with the opposite NDEBUG setting from
// the library itself (tests/CMakeLists.txt flips it). Engine headers hold
// classes whose debug-only members change their layout (Mutex, PinTracker
// inside LruCache); those members follow the library's
// LSMLAB_DEBUG_CHECKS, never the client's NDEBUG, so this client and the
// library agree on every layout. When they disagree, the first cached Get
// reads a cache shard through the wrong offsets and dies.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "cache/block_cache.h"
#include "core/db.h"
#include "storage/env.h"

namespace lsmlab {
namespace {

std::string TestKey(int i) {
  char key[16];
  std::snprintf(key, sizeof(key), "k%06d", i);
  return key;
}

TEST(NdebugConsumerTest, CachedGetsFindEveryKey) {
  std::unique_ptr<Env> env(NewMemEnv());
  BlockCache cache(1 << 20);
  Options options;
  options.env = env.get();
  options.block_cache = &cache;
  options.write_buffer_size = 64 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  const int kKeys = 5000;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db->Put({}, TestKey(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  // Twice: the first pass fills the block cache, the second hits it.
  for (int pass = 0; pass < 2; pass++) {
    std::string value;
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(db->Get({}, TestKey(i), &value).ok()) << TestKey(i);
      ASSERT_EQ(value, "v" + std::to_string(i));
    }
  }
  EXPECT_GT(cache.GetStats().hits, 0u);
}

}  // namespace
}  // namespace lsmlab
