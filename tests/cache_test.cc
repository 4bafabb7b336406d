#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/block_cache.h"
#include "cache/lru_cache.h"
#include "core/db.h"
#include "format/block.h"
#include "format/block_builder.h"
#include "format/sstable_builder.h"
#include "format/sstable_reader.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "util/hash.h"

namespace lsmlab {
namespace {

// ------------------------------------------------------------ LruCache --

class LruCacheTest : public ::testing::Test {
 protected:
  LruCacheTest() : cache_(1000, /*num_shards=*/1) {}

  /// Inserts key -> heap int; tracks deletions in deleted_.
  LruCache::Handle* Insert(const std::string& key, int value,
                           size_t charge = 100) {
    int* v = new int(value);
    return cache_.Insert(
        key, v, charge, [this](const Slice& k, void* p) {
          deleted_.push_back(k.ToString());
          delete static_cast<int*>(p);
        });
  }

  int Get(const std::string& key) {
    LruCache::Handle* h = cache_.Lookup(key);
    if (h == nullptr) {
      return -1;
    }
    const int v = *static_cast<int*>(cache_.Value(h));
    cache_.Release(h);
    return v;
  }

  // Declared before cache_ so it outlives the deleters cache_'s destructor
  // runs.
  std::vector<std::string> deleted_;
  LruCache cache_;
};

TEST_F(LruCacheTest, InsertLookup) {
  cache_.Release(Insert("a", 1));
  cache_.Release(Insert("b", 2));
  EXPECT_EQ(Get("a"), 1);
  EXPECT_EQ(Get("b"), 2);
  EXPECT_EQ(Get("c"), -1);
}

TEST_F(LruCacheTest, EvictsLeastRecentlyUsed) {
  // Capacity 1000, charge 100 -> 10 entries fit.
  for (int i = 0; i < 10; i++) {
    cache_.Release(Insert("k" + std::to_string(i), i));
  }
  // Touch k0 so it is hot; k1 becomes the coldest.
  EXPECT_EQ(Get("k0"), 0);
  cache_.Release(Insert("new", 99));
  EXPECT_EQ(Get("k1"), -1);  // evicted
  EXPECT_EQ(Get("k0"), 0);   // survived
  EXPECT_EQ(Get("new"), 99);
}

TEST_F(LruCacheTest, PinnedEntriesSurviveEviction) {
  LruCache::Handle* pinned = Insert("pinned", 7);
  for (int i = 0; i < 20; i++) {
    cache_.Release(Insert("filler" + std::to_string(i), i));
  }
  // Entry left the table but the value is still alive via our pin.
  EXPECT_EQ(*static_cast<int*>(cache_.Value(pinned)), 7);
  EXPECT_TRUE(deleted_.empty() ||
              std::find(deleted_.begin(), deleted_.end(), "pinned") ==
                  deleted_.end());
  cache_.Release(pinned);
}

TEST_F(LruCacheTest, EraseRemovesEntry) {
  cache_.Release(Insert("gone", 1));
  cache_.Erase("gone");
  EXPECT_EQ(Get("gone"), -1);
  EXPECT_EQ(deleted_.size(), 1u);
}

TEST_F(LruCacheTest, DuplicateInsertDisplacesOld) {
  cache_.Release(Insert("dup", 1));
  cache_.Release(Insert("dup", 2));
  EXPECT_EQ(Get("dup"), 2);
  ASSERT_EQ(deleted_.size(), 1u);
}

TEST_F(LruCacheTest, PruneDropsEverythingUnpinned) {
  for (int i = 0; i < 5; i++) {
    cache_.Release(Insert("p" + std::to_string(i), i));
  }
  cache_.Prune();
  EXPECT_EQ(cache_.TotalCharge(), 0u);
  EXPECT_EQ(Get("p0"), -1);
}

TEST_F(LruCacheTest, StatsCountHitsAndMisses) {
  cache_.Release(Insert("x", 1));
  Get("x");
  Get("x");
  Get("missing");
  const auto stats = cache_.GetStats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
}

TEST_F(LruCacheTest, TotalChargeTracksUsage) {
  cache_.Release(Insert("a", 1, 300));
  cache_.Release(Insert("b", 2, 400));
  EXPECT_EQ(cache_.TotalCharge(), 700u);
  cache_.Erase("a");
  EXPECT_EQ(cache_.TotalCharge(), 400u);
}

TEST(LruCacheShardedTest, KeysSpreadAcrossShards) {
  LruCache cache(4000, /*num_shards=*/4);
  for (int i = 0; i < 100; i++) {
    auto* h = cache.Insert(
        "key" + std::to_string(i), new int(i), 10,
        [](const Slice&, void* p) { delete static_cast<int*>(p); });
    cache.Release(h);
  }
  int found = 0;
  for (int i = 0; i < 100; i++) {
    auto* h = cache.Lookup("key" + std::to_string(i));
    if (h != nullptr) {
      found++;
      cache.Release(h);
    }
  }
  EXPECT_EQ(found, 100);
}

// ---------------------------------------------------------- BlockCache --

std::unique_ptr<const Block> MakeBlock(int tag) {
  TableOptions opts;
  BlockBuilder builder(&opts);
  builder.Add("key" + std::to_string(tag), "value");
  Slice raw = builder.Finish();
  BlockContents contents;
  contents.owned = raw.ToString();
  contents.data = Slice(contents.owned);
  contents.heap_allocated = true;
  return std::make_unique<const Block>(std::move(contents));
}

TEST(BlockCacheTest, InsertLookupByIdAndOffset) {
  BlockCache cache(1 << 20);
  const uint64_t id = cache.NewId();
  const uint64_t other = cache.NewId();
  ASSERT_NE(id, other);
  {
    auto ref = cache.Insert(id, 4096, MakeBlock(1));
    EXPECT_TRUE(static_cast<bool>(ref));
  }
  auto hit = cache.Lookup(id, 4096);
  EXPECT_TRUE(static_cast<bool>(hit));
  auto miss_offset = cache.Lookup(id, 8192);
  EXPECT_FALSE(static_cast<bool>(miss_offset));
  auto miss_id = cache.Lookup(other, 4096);
  EXPECT_FALSE(static_cast<bool>(miss_id));
}

TEST(BlockCacheTest, RefKeepsBlockAliveAcrossEviction) {
  BlockCache cache(1000);  // tiny: every insert evicts the previous
  auto ref = cache.Insert(1, 0, MakeBlock(1));
  for (uint64_t i = 1; i < 20; i++) {
    cache.Insert(1, i * 4096, MakeBlock(static_cast<int>(i)));
  }
  // Our pinned block is still valid.
  ASSERT_TRUE(static_cast<bool>(ref));
  std::unique_ptr<Iterator> it(
      ref.block()->NewIterator(BytewiseComparator()));
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "key1");
}

// ------------------------------------------------------ Per-file reader --

/// A memtable-free DB on `env` whose one table file holds key0..key{n-1};
/// the file's reader is not opened yet.
std::unique_ptr<DB> OneTableDb(Env* env, int n) {
  Options options;
  options.env = env;
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int i = 0; i < n; i++) {
    EXPECT_TRUE(
        db->Put({}, "key" + std::to_string(i), "value" + std::to_string(i))
            .ok());
  }
  EXPECT_TRUE(db->Flush().ok());
  return db;
}

TEST(TableReaderTest, FailedOpenIsRetriedByTheNextGet) {
  std::unique_ptr<Env> mem(NewMemEnv());
  FaultInjectionEnv env(mem.get());
  std::unique_ptr<DB> db = OneTableDb(&env, 1);
  std::string value;

  env.SetRandomAccessOpenFault(true);
  Status s = db->Get({}, "key0", &value);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(db->GetStats().index_filter_memory, 0u);

  env.SetRandomAccessOpenFault(false);
  ASSERT_TRUE(db->Get({}, "key0", &value).ok());
  EXPECT_EQ(value, "value0");
  EXPECT_GT(db->GetStats().index_filter_memory, 0u);
}

/// Counts random-access handles and, once armed with `racers`, parks every
/// open until that many are in flight, so they all race to publish.
class OpenRaceEnv : public Env {
 public:
  explicit OpenRaceEnv(Env* base) : base_(base) {}

  void Arm(int racers) {
    std::lock_guard<std::mutex> lock(mu_);
    racers_ = racers;
  }
  int opens() {
    std::lock_guard<std::mutex> lock(mu_);
    return opens_;
  }
  int live() {
    std::lock_guard<std::mutex> lock(mu_);
    return live_;
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    std::unique_ptr<RandomAccessFile> file;
    Status s = base_->NewRandomAccessFile(fname, &file);
    if (!s.ok()) {
      return s;
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      opens_++;
      live_++;
      cv_.notify_all();
      cv_.wait_for(lock, std::chrono::seconds(10),
                   [this] { return opens_ >= racers_; });
    }
    *result = std::make_unique<CountedFile>(this, std::move(file));
    return s;
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return base_->NewWritableFile(fname, result);
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

 private:
  class CountedFile : public RandomAccessFile {
   public:
    CountedFile(OpenRaceEnv* env, std::unique_ptr<RandomAccessFile> base)
        : env_(env), base_(std::move(base)) {}
    ~CountedFile() override {
      std::lock_guard<std::mutex> lock(env_->mu_);
      env_->live_--;
    }
    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      return base_->Read(offset, n, result, scratch);
    }
    uint64_t Size() const override { return base_->Size(); }

   private:
    OpenRaceEnv* env_;
    std::unique_ptr<RandomAccessFile> base_;
  };

  Env* const base_;
  std::mutex mu_;
  std::condition_variable cv_;
  int racers_ = 0;
  int opens_ = 0;
  int live_ = 0;
};

TEST(TableReaderTest, RacingFirstGetsLeaveOneReader) {
  std::unique_ptr<Env> mem(NewMemEnv());
  OpenRaceEnv env(mem.get());
  std::unique_ptr<DB> db = OneTableDb(&env, 1);
  ASSERT_EQ(env.opens(), 0) << "the flush opened the reader eagerly";

  constexpr int kThreads = 4;
  env.Arm(kThreads);
  std::vector<std::thread> threads;
  std::vector<Status> statuses(kThreads);
  std::vector<std::string> values(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back(
        [&, t] { statuses[t] = db->Get({}, "key0", &values[t]); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int t = 0; t < kThreads; t++) {
    ASSERT_TRUE(statuses[t].ok()) << statuses[t].ToString();
    EXPECT_EQ(values[t], "value0");
  }
  EXPECT_EQ(env.opens(), kThreads);  // every racer opened a reader...
  EXPECT_EQ(env.live(), 1);          // ...and only the published one lives

  std::string value;
  ASSERT_TRUE(db->Get({}, "key0", &value).ok());
  EXPECT_EQ(env.opens(), kThreads) << "a published reader was reopened";
}

void SaveAny(void* /*arg*/, const Slice& /*key*/, const Slice& /*value*/) {}

TEST(TableReaderTest, CoalescedMultiGetCreditsEveryKeyItServes) {
  std::unique_ptr<Env> env(NewMemEnv());
  TableOptions opts;  // 4 KiB blocks: the keys below share one
  constexpr int kKeys = 8;
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; i++) {
    keys.push_back("key" + std::to_string(i));
  }
  uint64_t file_size = 0;
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile("/t.sst", &file).ok());
    SSTableBuilder builder(opts, file.get());
    for (const std::string& k : keys) {
      builder.Add(k, "value");
    }
    ASSERT_TRUE(builder.Finish().ok());
    file_size = builder.FileSize();
  }
  BlockCache cache(1 << 20);
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env->NewRandomAccessFile("/t.sst", &file).ok());
  std::unique_ptr<SSTable> table;
  ASSERT_TRUE(
      SSTable::Open(opts, std::move(file), file_size, &cache, &table).ok());

  auto multiget = [&] {
    std::vector<BatchGetContext> ctxs(kKeys);
    std::vector<BatchGetContext*> batch;
    for (int i = 0; i < kKeys; i++) {
      ctxs[i].target = keys[i];
      ctxs[i].searchable = keys[i];
      ctxs[i].hash = Hash64(Slice(keys[i]));
      ctxs[i].handler = &SaveAny;
      batch.push_back(&ctxs[i]);
    }
    table->MultiGet(batch, /*use_filter=*/false);
  };
  multiget();  // the block's first fetch is a miss: no credit
  EXPECT_EQ(table->cache_hits(), 0u);
  multiget();  // one cached-block hit serving every key
  EXPECT_EQ(table->cache_hits(), static_cast<uint64_t>(kKeys));
}

}  // namespace
}  // namespace lsmlab
