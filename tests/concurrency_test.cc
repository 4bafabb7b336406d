// Concurrency: writers, readers, and snapshot reads racing against the
// background flush/compaction pipeline, and CompactAll racing the other
// job runners. Run under -DLSMLAB_SANITIZE=thread to prove the pipeline is
// data-race free (see README).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/db.h"
#include "core/sharded_db.h"
#include "storage/env.h"
#include "util/random.h"

namespace lsmlab {
namespace {

std::string TestKey(int writer, int n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "w%d_%06d", writer, n);
  return buf;
}

// Self-describing value: "<key>#<version>#<64 copies of a version-derived
// byte>". A reader can verify any observed value is internally consistent,
// i.e. never a torn mix of two versions.
std::string TestValue(const std::string& key, int version) {
  std::string v = key;
  v.push_back('#');
  v.append(std::to_string(version));
  v.push_back('#');
  v.append(64, static_cast<char>('a' + version % 26));
  return v;
}

bool ValueConsistent(const std::string& key, const std::string& value,
                     int* version_out) {
  if (value.size() < key.size() + 2 ||
      value.compare(0, key.size(), key) != 0 || value[key.size()] != '#') {
    return false;
  }
  const size_t ver_begin = key.size() + 1;
  const size_t ver_end = value.find('#', ver_begin);
  if (ver_end == std::string::npos || ver_end == ver_begin) {
    return false;
  }
  const int version = std::stoi(value.substr(ver_begin, ver_end - ver_begin));
  if (value.size() != ver_end + 1 + 64) {
    return false;
  }
  const char expect = static_cast<char>('a' + version % 26);
  for (size_t i = ver_end + 1; i < value.size(); i++) {
    if (value[i] != expect) {
      return false;
    }
  }
  *version_out = version;
  return true;
}

Options BackgroundOptions(Env* env) {
  Options options;
  options.env = env;
  options.background_compaction = true;
  options.write_buffer_size = 32 << 10;
  options.max_file_size = 16 << 10;
  options.level0_compaction_trigger = 2;
  options.size_ratio = 4;
  return options;
}

TEST(ConcurrencyTest, WritersReadersSnapshotsRaceBackgroundCompaction) {
  std::unique_ptr<Env> env(NewMemEnv());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(BackgroundOptions(env.get()), "/conc", &db).ok());

  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kKeysPerWriter = 2000;
  constexpr int kVersions = 3;

  std::atomic<int> write_errors{0};
  std::atomic<int> torn_values{0};
  std::atomic<int> stale_versions{0};
  std::atomic<int> snapshot_violations{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      for (int ver = 0; ver < kVersions; ver++) {
        for (int i = 0; i < kKeysPerWriter; i++) {
          const std::string key = TestKey(w, i);
          if (!db->Put({}, key, TestValue(key, ver)).ok()) {
            write_errors.fetch_add(1);
            return;
          }
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      uint64_t x = 88172645463325252ull + static_cast<uint64_t>(r);
      std::string value;
      while (!done.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::string key =
            TestKey(static_cast<int>(x % kWriters),
                    static_cast<int>((x >> 8) % kKeysPerWriter));
        if (db->Get({}, key, &value).ok()) {
          int version = -1;
          if (!ValueConsistent(key, value, &version)) {
            torn_values.fetch_add(1);
          } else if (version < 0 || version >= kVersions) {
            stale_versions.fetch_add(1);
          }
        }
      }
    });
  }

  // Snapshot reader: two reads of the same key at one snapshot must agree
  // even while flushes and compactions churn underneath.
  std::thread snapshotter([&] {
    std::string first;
    std::string again;
    while (!done.load(std::memory_order_relaxed)) {
      const Snapshot* snap = db->GetSnapshot();
      ReadOptions ro;
      ro.snapshot = snap;
      const std::string key = TestKey(0, 7);
      const bool found1 = db->Get(ro, key, &first).ok();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const bool found2 = db->Get(ro, key, &again).ok();
      if (found1 != found2 || (found1 && first != again)) {
        snapshot_violations.fetch_add(1);
      }
      db->ReleaseSnapshot(snap);
    }
  });

  for (std::thread& t : writers) {
    t.join();
  }
  done.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  snapshotter.join();

  EXPECT_EQ(write_errors.load(), 0);
  EXPECT_EQ(torn_values.load(), 0);
  EXPECT_EQ(stale_versions.load(), 0);
  EXPECT_EQ(snapshot_violations.load(), 0);

  // Quiesce and verify every key holds its final version.
  ASSERT_TRUE(db->CompactAll().ok());
  std::string value;
  for (int w = 0; w < kWriters; w++) {
    for (int i = 0; i < kKeysPerWriter; i++) {
      const std::string key = TestKey(w, i);
      ASSERT_TRUE(db->Get({}, key, &value).ok()) << key;
      int version = -1;
      ASSERT_TRUE(ValueConsistent(key, value, &version)) << key;
      EXPECT_EQ(version, kVersions - 1) << key;
    }
  }
}

TEST(ConcurrencyTest, IteratorsStayConsistentDuringBackgroundChurn) {
  std::unique_ptr<Env> env(NewMemEnv());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(BackgroundOptions(env.get()), "/iter", &db).ok());

  constexpr int kKeys = 3000;
  std::atomic<bool> done{false};
  std::atomic<int> scan_errors{0};

  std::thread writer([&] {
    for (int ver = 0; ver < 3; ver++) {
      for (int i = 0; i < kKeys; i++) {
        const std::string key = TestKey(0, i);
        ASSERT_TRUE(db->Put({}, key, TestValue(key, ver)).ok());
      }
    }
  });

  std::thread scanner([&] {
    while (!done.load(std::memory_order_relaxed)) {
      std::unique_ptr<Iterator> it(db->NewIterator({}));
      std::string prev;
      int n = 0;
      for (it->SeekToFirst(); it->Valid() && n < 500; it->Next(), n++) {
        const std::string key = it->key().ToString();
        if (!prev.empty() && key <= prev) {
          scan_errors.fetch_add(1);  // ordering violated
        }
        int version = -1;
        std::string value = it->value().ToString();
        if (!ValueConsistent(key, value, &version)) {
          scan_errors.fetch_add(1);
        }
        prev = key;
      }
      if (!it->status().ok()) {
        scan_errors.fetch_add(1);
      }
    }
  });

  writer.join();
  done.store(true);
  scanner.join();
  EXPECT_EQ(scan_errors.load(), 0);
}

// Monkey re-derives the per-level filter allocation on every flush and
// compaction, under the DB mutex, while Gets open the readers of fresh
// files with no lock held. A reader must open with the options its file
// was installed with: reading the per-level options while a job rebuilds
// them is a data race, which TSan reports here.
TEST(ConcurrencyTest, MonkeyReconfigureRacesFirstTableOpens) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  options.filter_allocation = FilterAllocation::kMonkey;
  options.background_compaction = true;
  options.write_buffer_size = 16 << 10;
  options.max_file_size = 16 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/monkey", &db).ok());

  constexpr int kKeys = 6000;
  std::atomic<int> written{0};
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::thread writer([&] {
    for (int i = 0; i < kKeys; i++) {
      const std::string key = TestKey(0, i);
      if (!db->Put({}, key, TestValue(key, i)).ok()) {
        errors.fetch_add(1);
      }
      written.store(i + 1, std::memory_order_release);
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&, r] {
      Random rnd(r + 1);
      std::string value;
      while (!done.load()) {
        const int n = written.load(std::memory_order_acquire);
        if (n == 0) {
          continue;
        }
        // Recent keys live in the newest files, whose readers are the
        // ones still unopened.
        const int i = n - 1 - static_cast<int>(rnd.Uniform(std::min(n, 200)));
        const std::string key = TestKey(0, i);
        int version = -1;
        if (!db->Get({}, key, &value).ok() ||
            !ValueConsistent(key, value, &version) || version != i) {
          errors.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(errors.load(), 0);
}

// Readers are safe against the writer on the sorted-vector memtable too:
// an insert may reallocate the vector, so Gets take the memtable's lock
// and iterators work on their own copy of the entry pointers. Under TSan
// this fails without that lock (the insert's reallocation races the
// iterator's and Get's reads of the array).
TEST(ConcurrencyTest, SortedVectorMemtableWriterVsGetAndIterator) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  options.memtable_rep = MemTable::Rep::kSortedVector;
  options.write_buffer_size = 256 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/vec", &db).ok());

  constexpr int kPuts = 20000;
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};

  std::thread writer([&] {
    for (int i = 0; i < kPuts; i++) {
      const std::string key = TestKey(0, (i * 7919) % kPuts);
      ASSERT_TRUE(db->Put({}, key, TestValue(key, i)).ok());
    }
  });

  std::thread getter([&] {
    Random rnd(301);
    std::string value;
    while (!done.load(std::memory_order_relaxed)) {
      const std::string key = TestKey(0, static_cast<int>(rnd.Uniform(kPuts)));
      const Status s = db->Get({}, key, &value);
      int version = -1;
      if (s.ok() ? !ValueConsistent(key, value, &version)
                 : !s.IsNotFound()) {
        errors.fetch_add(1);
      }
    }
  });

  std::thread scanner([&] {
    while (!done.load(std::memory_order_relaxed)) {
      std::unique_ptr<Iterator> it(db->NewIterator({}));
      std::string prev;
      int n = 0;
      for (it->SeekToFirst(); it->Valid() && n < 200; it->Next(), n++) {
        const std::string key = it->key().ToString();
        int version = -1;
        if ((!prev.empty() && key <= prev) ||
            !ValueConsistent(key, it->value().ToString(), &version)) {
          errors.fetch_add(1);
        }
        prev = key;
      }
      if (!it->status().ok()) {
        errors.fetch_add(1);
      }
    }
  });

  writer.join();
  done.store(true);
  getter.join();
  scanner.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(ConcurrencyTest, StallAndSlowdownCountersFire) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  options.background_compaction = true;
  options.write_buffer_size = 8 << 10;
  options.max_file_size = 8 << 10;
  options.level0_compaction_trigger = 2;
  options.l0_slowdown_trigger = 1;  // any L0 run delays the writer
  options.l0_stop_trigger = 2;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/stall", &db).ok());

  const std::string value(128, 'v');
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db->Put({}, TestKey(0, i), value).ok());
  }
  const DBStats stats = db->GetStats();
  EXPECT_GT(stats.write_slowdowns + stats.write_stalls, 0u);
  EXPECT_GT(stats.write_slowdown_micros + stats.write_stall_micros, 0u);

  std::string got;
  ASSERT_TRUE(db->Get({}, TestKey(0, 0), &got).ok());
  EXPECT_EQ(got, value);
  ASSERT_TRUE(db->Get({}, TestKey(0, 1999), &got).ok());
  EXPECT_EQ(got, value);
}

TEST(ConcurrencyTest, FlushWaitsForBackgroundInstall) {
  std::unique_ptr<Env> env(NewMemEnv());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(BackgroundOptions(env.get()), "/flush", &db).ok());

  const std::string value(64, 'v');
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db->Put({}, TestKey(0, i), value).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  // After Flush returns, all data is in level-0 runs (memtable drained).
  const DBStats stats = db->GetStats();
  EXPECT_GT(stats.flushes, 0u);
  std::string got;
  ASSERT_TRUE(db->Get({}, TestKey(0, 499), &got).ok());
  EXPECT_EQ(got, value);
}

TEST(ConcurrencyTest, RecoversDataPendingInBackgroundPipeline) {
  std::unique_ptr<Env> env(NewMemEnv());
  const std::string value(64, 'r');
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(BackgroundOptions(env.get()), "/recover", &db).ok());
    for (int i = 0; i < 1500; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(0, i), value).ok());
    }
    // Close without Flush: whatever sits in mem_/imm_ must survive via WAL.
  }
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(BackgroundOptions(env.get()), "/recover", &db).ok());
    std::string got;
    for (int i = 0; i < 1500; i++) {
      ASSERT_TRUE(db->Get({}, TestKey(0, i), &got).ok()) << i;
      EXPECT_EQ(got, value);
    }
  }
}

TEST(ConcurrencyTest, ShardedBackgroundJobsOverlapAcrossShards) {
  // 8 writer threads × 4 shards with flushes and compactions continuously
  // in flight. The point under test: the shared background pool really
  // runs jobs from different shards concurrently (the old engine had one
  // serialized worker). The assertion is the pool's concurrency
  // high-water counter — a monotonic ticker maintained at task start —
  // not a timing measurement: each shard admits at most one background
  // job at a time, so a high-water mark of >= 2 can only mean two
  // different shards' jobs overlapped.
  constexpr int kWriters = 8;
  constexpr int kShards = 4;
  constexpr int kOpsPerRound = 400;
  constexpr int kMaxRounds = 40;
  std::unique_ptr<Env> env(NewMemEnv());
  Options options = BackgroundOptions(env.get());
  options.num_shards = kShards;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/sharded_conc", &db).ok());
  auto* sharded = static_cast<ShardedDB*>(db.get());

  int rounds = 0;
  for (; rounds < kMaxRounds && sharded->TEST_BgJobsHighWater() < 2;
       rounds++) {
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; w++) {
      writers.emplace_back([&, w] {
        for (int j = 0; j < kOpsPerRound; j++) {
          const std::string key = TestKey(w, rounds * kOpsPerRound + j);
          ASSERT_TRUE(db->Put({}, key, TestValue(key, rounds)).ok());
        }
      });
    }
    for (auto& t : writers) {
      t.join();
    }
  }
  EXPECT_GE(sharded->TEST_BgJobsHighWater(), 2)
      << "no two shards' background jobs ever overlapped after " << rounds
      << " rounds";

  // The load really exercised the background pipeline on every shard.
  uint64_t min_flushes = ~0ull;
  for (int s = 0; s < kShards; s++) {
    min_flushes =
        std::min(min_flushes, sharded->TEST_Shard(s)->GetStats().flushes);
  }
  EXPECT_GT(min_flushes, 0u) << "some shard never flushed";

  // And the data is intact: every thread's writes read back consistent.
  std::string value;
  for (int w = 0; w < kWriters; w++) {
    for (int j = 0; j < rounds * kOpsPerRound; j += 97) {
      const std::string key = TestKey(w, j);
      ASSERT_TRUE(db->Get({}, key, &value).ok()) << key;
      int version = -1;
      ASSERT_TRUE(ValueConsistent(key, value, &version)) << key;
    }
  }
}

// ------------------------------------------------ Job-runner exclusion --

/// Env wrapper that parks a compaction at its first table create. Once
/// armed, the next manifest append (a flush's install) closes the gate,
/// and every later .sst create blocks until Release(). In inline mode the
/// create right after a flush install is the compaction that flush
/// triggered, so the writer parks mid-job holding the job slot.
class TableGateEnv : public Env {
 public:
  explicit TableGateEnv(Env* base) : base_(base) {}

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    if (EndsWith(fname, ".sst")) {
      std::unique_lock<std::mutex> lock(mu_);
      if (closed_) {
        parked_++;
        cv_.wait(lock, [this] { return !closed_; });
        parked_--;
      }
    }
    std::unique_ptr<WritableFile> file;
    Status s = base_->NewWritableFile(fname, &file);
    if (s.ok() && fname.find("/MANIFEST-") != std::string::npos) {
      file = std::make_unique<ManifestFile>(this, std::move(file));
    }
    *result = std::move(file);
    return s;
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    return base_->NewRandomAccessFile(fname, result);
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

  void CloseAfterNextInstall() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = false;
    }
    cv_.notify_all();
  }
  /// Table creates currently blocked at the gate.
  int parked() {
    std::lock_guard<std::mutex> lock(mu_);
    return parked_;
  }

 private:
  class ManifestFile : public WritableFile {
   public:
    ManifestFile(TableGateEnv* env, std::unique_ptr<WritableFile> base)
        : env_(env), base_(std::move(base)) {}

    Status Append(const Slice& data) override {
      {
        std::lock_guard<std::mutex> lock(env_->mu_);
        if (env_->armed_) {
          env_->armed_ = false;
          env_->closed_ = true;
        }
      }
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override { return base_->Sync(); }
    Status Close() override { return base_->Close(); }

   private:
    TableGateEnv* env_;
    std::unique_ptr<WritableFile> base_;
  };

  static bool EndsWith(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  }

  Env* const base_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool closed_ = false;
  int parked_ = 0;
};

// Waits (bounded) until `pred` holds.
template <typename Pred>
bool WaitFor(const Pred& pred, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

Options RaceOptions(Env* env, bool background) {
  Options options;
  options.env = env;
  options.background_compaction = background;
  options.write_buffer_size = 16 << 10;
  options.max_file_size = 8 << 10;
  options.size_ratio = 3;
  options.level0_compaction_trigger = 2;
  return options;
}

std::string RaceKey(int k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%05d", k);
  return buf;
}

// Every key of the space reads back as the single writer's oracle says.
// Returns the number of keys that do not.
int CountOracleMismatches(DB* db,
                          const std::map<std::string, std::string>& oracle,
                          int key_space) {
  int mismatches = 0;
  std::string value;
  for (int k = 0; k < key_space; k++) {
    const std::string key = RaceKey(k);
    const Status s = db->Get({}, key, &value);
    const auto it = oracle.find(key);
    if (it == oracle.end() ? !s.IsNotFound() : !s.ok() || value != it->second) {
      mismatches++;
    }
  }
  return mismatches;
}

// Deterministic staging of an inline writer's compaction against
// CompactAll: the writer's flush installs, its compaction parks at the
// first table create (holding the job slot), and only then does
// CompactAll start. CompactAll must start no merge of its own — it would
// pick the very L0 runs the parked compaction is consuming — until that
// compaction finishes.
TEST(ConcurrencyTest, CompactAllWaitsForInlineWriterCompaction) {
  std::unique_ptr<Env> base(NewMemEnv());
  TableGateEnv gate(base.get());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(RaceOptions(&gate, /*background=*/false), "/gate", &db).ok());

  constexpr int kKeySpace = 100;
  std::map<std::string, std::string> oracle;
  auto put = [&](int k, int version) {
    const std::string key = RaceKey(k);
    const std::string value = key + "#" + std::to_string(version);
    oracle[key] = value;
    return db->Put({}, key, value);
  };
  // Two level-0 runs: with trigger 2, the next flushing write compacts.
  for (int round = 0; round < 2; round++) {
    for (int k = 0; k < kKeySpace; k++) {
      ASSERT_TRUE(put(k, round).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
  }
  ASSERT_EQ(db->GetStats().runs_per_level[0], 2);

  gate.CloseAfterNextInstall();
  std::atomic<int> write_errors{0};
  std::thread writer([&] {
    // Enough writes to overflow the 16 KiB buffer a few times over.
    for (int i = 0; i < 2000; i++) {
      if (!put(i % kKeySpace, 2 + i / kKeySpace).ok()) {
        write_errors.fetch_add(1);
      }
    }
  });
  ASSERT_TRUE(WaitFor([&] { return gate.parked() == 1; }, 10000));

  Status compact_status;
  std::thread compactor([&] { compact_status = db->CompactAll(); });
  EXPECT_FALSE(WaitFor([&] { return gate.parked() > 1; }, 300))
      << "CompactAll started a merge while the writer's compaction ran";

  gate.Release();
  writer.join();
  compactor.join();
  EXPECT_EQ(write_errors.load(), 0);
  EXPECT_TRUE(compact_status.ok()) << compact_status.ToString();
  EXPECT_EQ(CountOracleMismatches(db.get(), oracle, kKeySpace), 0);
}

// One writer (60k ops over 3,000 keys, every 11th a Delete) against
// `compactors` threads looping CompactAll. Every job runner must exclude
// the others, or two merges pick the same inputs and the loser's install
// resurrects or drops keys.
void RunCompactAllHammer(bool background, int compactors) {
  std::unique_ptr<Env> env(NewMemEnv());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(RaceOptions(env.get(), background), "/hammer", &db)
                  .ok());

  constexpr int kKeySpace = 3000;
  constexpr int kOps = 60000;
  std::map<std::string, std::string> oracle;  // writer-owned until join
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::thread writer([&] {
    Random rnd(301);
    for (int op = 0; op < kOps; op++) {
      const std::string key = RaceKey(static_cast<int>(rnd.Uniform(kKeySpace)));
      Status s;
      if (op % 11 == 0) {
        oracle.erase(key);
        s = db->Delete({}, key);
      } else {
        const std::string value = key + "#" + std::to_string(op);
        oracle[key] = value;
        s = db->Put({}, key, value);
      }
      if (!s.ok()) {
        errors.fetch_add(1);
      }
    }
    done.store(true);
  });
  std::vector<std::thread> threads;
  for (int c = 0; c < compactors; c++) {
    threads.emplace_back([&] {
      while (!done.load()) {
        if (!db->CompactAll().ok()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(CountOracleMismatches(db.get(), oracle, kKeySpace), 0);
}

TEST(ConcurrencyTest, TwoCompactAllCallersAndInlineWriter) {
  RunCompactAllHammer(/*background=*/false, /*compactors=*/2);
}

TEST(ConcurrencyTest, TwoCompactAllCallersAndBackgroundWriter) {
  RunCompactAllHammer(/*background=*/true, /*compactors=*/2);
}

}  // namespace
}  // namespace lsmlab
