#include "obs/perf_context.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/db.h"
#include "storage/env.h"

namespace lsmlab {
namespace {

// Counter-verified read-path tests: every assertion below is an *exact*
// count derived from the tree shape (N overlapping runs, no block cache),
// so a regression that adds or drops an I/O shows up as an off-by-one here
// rather than as a silent perf change.
class PerfContextTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_.reset(NewMemEnv());
    options_.env = env_.get();
    options_.write_buffer_size = 64 << 10;
    options_.max_file_size = 1 << 20;
    // Keep every flush as its own level-0 run: probe cost per lookup is
    // then exactly (runs whose key range covers the key).
    options_.level0_compaction_trigger = 100;
    options_.filter_allocation = FilterAllocation::kNone;
  }

  void Open() { ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok()); }

  // Three overlapping level-0 runs, newest first at read time:
  //   run 3 (newest): a, q, z       -- "q" only here
  //   run 2        : a, z
  //   run 1 (oldest): a, m, z       -- "m" only here
  // Every run spans [a, z], so a probe for any key in that range must
  // consult each run until it finds a hit.
  void BuildThreeRuns() {
    ASSERT_TRUE(db_->Put({}, "a", "pad1").ok());
    ASSERT_TRUE(db_->Put({}, "m", "from_old").ok());
    ASSERT_TRUE(db_->Put({}, "z", "pad1").ok());
    ASSERT_TRUE(db_->Flush().ok());
    ASSERT_TRUE(db_->Put({}, "a", "pad2").ok());
    ASSERT_TRUE(db_->Put({}, "z", "pad2").ok());
    ASSERT_TRUE(db_->Flush().ok());
    ASSERT_TRUE(db_->Put({}, "a", "pad3").ok());
    ASSERT_TRUE(db_->Put({}, "q", "from_new").ok());
    ASSERT_TRUE(db_->Put({}, "z", "pad3").ok());
    ASSERT_TRUE(db_->Flush().ok());
  }

  // Opens every table (footer/index/filter loads happen once, at open) so
  // subsequent lookups cost exactly their data-block reads.
  void WarmUp() {
    std::string value;
    ASSERT_TRUE(db_->Get({}, "m", &value).ok());
  }

  PerfContext GetDelta(const std::string& key, std::string* value,
                       Status* status) {
    const PerfContext before = *GetPerfContext();
    *status = db_->Get({}, key, value);
    return GetPerfContext()->Delta(before);
  }

  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(PerfContextTest, MemtableHitCostsNoBlockReads) {
  Open();
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  std::string value;
  Status s;
  const PerfContext d = GetDelta("k", &value, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(value, "v");
  EXPECT_EQ(d.memtable_hit_count, 1u);
  EXPECT_EQ(d.block_read_count, 0u);
  EXPECT_EQ(d.index_seek_count, 0u);
  EXPECT_EQ(d.filter_probe_count, 0u);
}

TEST_F(PerfContextTest, PointLookupCostIsExactPerRun) {
  Open();
  BuildThreeRuns();
  WarmUp();

  std::string value;
  Status s;

  // "m" lives only in the oldest of three overlapping runs: the lookup
  // must pay one index seek and one data-block read in each run.
  PerfContext d = GetDelta("m", &value, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(value, "from_old");
  EXPECT_EQ(d.index_seek_count, 3u);
  EXPECT_EQ(d.block_read_count, 3u);
  EXPECT_EQ(d.filter_probe_count, 0u);  // filters disabled
  EXPECT_EQ(d.memtable_hit_count, 0u);
  EXPECT_GT(d.block_read_bytes, 0u);

  // "q" lives in the newest run: found on the first probe, so exactly one
  // seek + one block read.
  d = GetDelta("q", &value, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(value, "from_new");
  EXPECT_EQ(d.index_seek_count, 1u);
  EXPECT_EQ(d.block_read_count, 1u);

  // Absent key inside every run's range: all three runs pay, then miss.
  d = GetDelta("mm", &value, &s);
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(d.index_seek_count, 3u);
  EXPECT_EQ(d.block_read_count, 3u);

  // Key outside every file's [smallest, largest]: fence pointers reject
  // all runs without a single I/O.
  d = GetDelta("zz", &value, &s);
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(d.index_seek_count, 0u);
  EXPECT_EQ(d.block_read_count, 0u);
}

TEST_F(PerfContextTest, MultiGetCoalescesSameBlockKeysExactly) {
  Open();
  BuildThreeRuns();
  WarmUp();

  // "a" and "z" both live in the newest run, whose few entries fit one
  // data block. Two looped Gets each pay one block read there; the batch
  // must pay the index seek per key but fetch the shared block once.
  std::vector<std::string> values;
  std::vector<Status> statuses;
  const std::vector<Slice> batch = {Slice("a"), Slice("z")};

  const PerfContext before = *GetPerfContext();
  db_->MultiGet({}, std::span<const Slice>(batch), &values, &statuses);
  const PerfContext d = GetPerfContext()->Delta(before);

  ASSERT_TRUE(statuses[0].ok());
  ASSERT_TRUE(statuses[1].ok());
  EXPECT_EQ(values[0], "pad3");
  EXPECT_EQ(values[1], "pad3");
  EXPECT_EQ(d.multiget_keys, 2u);
  EXPECT_EQ(d.index_seek_count, 2u);       // one fence lookup per key
  EXPECT_EQ(d.block_read_count, 1u);       // the shared block, fetched once
  EXPECT_EQ(d.multiget_coalesced_block_hits, 1u);  // second key rode along
  EXPECT_EQ(d.memtable_hit_count, 0u);

  // The same two keys as looped Gets pay the block read twice: the saving
  // asserted above is exactly the coalesced hit.
  std::string value;
  Status s;
  const PerfContext d_a = GetDelta("a", &value, &s);
  ASSERT_TRUE(s.ok());
  const PerfContext d_z = GetDelta("z", &value, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(d_a.block_read_count + d_z.block_read_count, 2u);
  EXPECT_EQ(d.block_read_count + d.multiget_coalesced_block_hits,
            d_a.block_read_count + d_z.block_read_count);
}

TEST_F(PerfContextTest, CompactedTreeLookupIsSingleProbe) {
  Open();
  BuildThreeRuns();
  ASSERT_TRUE(db_->CompactAll().ok());
  WarmUp();

  std::string value;
  Status s;
  const PerfContext d = GetDelta("m", &value, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(value, "from_old");
  EXPECT_EQ(d.index_seek_count, 1u);
  EXPECT_EQ(d.block_read_count, 1u);
}

TEST_F(PerfContextTest, BloomProbesReconcileWithBlockReads) {
  options_.filter_allocation = FilterAllocation::kUniform;
  options_.filter_bits_per_key = 10.0;
  Open();
  BuildThreeRuns();
  WarmUp();

  std::string value;
  Status s;

  // Every covering run is probed through its filter. The hit run always
  // passes (no false negatives); a miss run passes only on a false
  // positive. So regardless of the filter's luck:
  //   block reads == index seeks == probes - negatives.
  PerfContext d = GetDelta("m", &value, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(d.filter_probe_count, 3u);
  EXPECT_LE(d.filter_negative_count, 2u);
  EXPECT_EQ(d.block_read_count, 3u - d.filter_negative_count);
  EXPECT_EQ(d.index_seek_count, 3u - d.filter_negative_count);

  // Absent key: every probe may reject; the same reconciliation holds.
  d = GetDelta("mm", &value, &s);
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(d.filter_probe_count, 3u);
  EXPECT_EQ(d.block_read_count, 3u - d.filter_negative_count);
  EXPECT_EQ(d.index_seek_count, 3u - d.filter_negative_count);
}

TEST_F(PerfContextTest, WalCountersFollowWriteOptions) {
  Open();
  const PerfContext before = *GetPerfContext();
  ASSERT_TRUE(db_->Put({}, "k1", "v").ok());
  PerfContext d = GetPerfContext()->Delta(before);
  EXPECT_EQ(d.wal_append_count, 1u);
  EXPECT_EQ(d.wal_sync_count, 0u);

  WriteOptions sync_opts;
  sync_opts.sync = true;
  const PerfContext before2 = *GetPerfContext();
  ASSERT_TRUE(db_->Put(sync_opts, "k2", "v").ok());
  d = GetPerfContext()->Delta(before2);
  EXPECT_EQ(d.wal_append_count, 1u);
  EXPECT_EQ(d.wal_sync_count, 1u);
}

TEST_F(PerfContextTest, ScanDrivesMergeIterator) {
  Open();
  BuildThreeRuns();
  // A live memtable entry forces the merging iterator even if the runs
  // alone could degenerate.
  ASSERT_TRUE(db_->Put({}, "b", "live").ok());

  const PerfContext before = *GetPerfContext();
  std::vector<std::pair<std::string, std::string>> results;
  ASSERT_TRUE(db_->Scan({}, "a", "zz", 100, &results).ok());
  const PerfContext d = GetPerfContext()->Delta(before);

  ASSERT_EQ(results.size(), 5u);  // a, b, m, q, z
  EXPECT_GE(d.merge_iter_seek_count, 1u);
  // One heap advance per emitted key at minimum (shadowed versions cost
  // extra steps, never fewer).
  EXPECT_GE(d.merge_iter_step_count, results.size());
}

TEST_F(PerfContextTest, BlockReadsReconcileWithEnvIoStats) {
  Open();
  // Bulkier tree: three runs of 120 keys each with ~100-byte values, so
  // files span multiple 4 KiB blocks and lookups land in different blocks.
  const std::string pad(100, 'x');
  for (int run = 0; run < 3; run++) {
    for (int i = run; i < 360; i += 3) {
      char key[32];
      std::snprintf(key, sizeof(key), "key%06d", i);
      ASSERT_TRUE(db_->Put({}, key, pad).ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }

  // Open every table and fault in footers/indexes before measuring.
  std::string value;
  for (int i = 0; i < 360; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_TRUE(db_->Get({}, key, &value).ok());
  }

  // From here on, the only Env reads a lookup performs are data-block
  // fetches, charged inside ReadBlock at exactly Read-call granularity:
  // the PerfContext deltas must equal the Env's own accounting.
  env_->io_stats()->Reset();
  const PerfContext before = *GetPerfContext();
  Status s;
  for (int i = 0; i < 360; i += 7) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_TRUE(db_->Get({}, key, &value).ok());
    // Sprinkle in misses (in-range, so they really probe).
    std::string miss = std::string(key) + "!";
    s = db_->Get({}, miss, &value);
    EXPECT_TRUE(s.IsNotFound());
  }
  const PerfContext d = GetPerfContext()->Delta(before);

  const IoStats* io = env_->io_stats();
  EXPECT_GT(d.block_read_count, 0u);
  EXPECT_EQ(d.block_read_count, io->random_reads.load());
  EXPECT_EQ(d.block_read_bytes, io->bytes_read.load());
}

TEST_F(PerfContextTest, StatsPropertyReflectsTickers) {
  Open();
  ASSERT_TRUE(db_->Put({}, "k1", "v1").ok());
  ASSERT_TRUE(db_->Put({}, "k2", "v2").ok());
  std::string value;
  ASSERT_TRUE(db_->Get({}, "k1", &value).ok());
  EXPECT_TRUE(db_->Get({}, "nope", &value).IsNotFound());

  std::string stats;
  ASSERT_TRUE(db_->GetProperty("lsmlab.stats", &stats));
  EXPECT_NE(stats.find("ticker.gets=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("ticker.gets.found=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("ticker.memtable.hits=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("ticker.writes=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("ticker.wal.appends=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("histogram.get_micros"), std::string::npos) << stats;

  std::string perf;
  ASSERT_TRUE(db_->GetProperty("lsmlab.perf-context", &perf));
  EXPECT_NE(perf.find("block_read_count="), std::string::npos) << perf;

  std::string io;
  ASSERT_TRUE(db_->GetProperty("lsmlab.io-stats", &io));
  EXPECT_FALSE(io.empty());

  EXPECT_FALSE(db_->GetProperty("lsmlab.unknown", &value));
}

TEST_F(PerfContextTest, DeltaAndResetAreFieldwise) {
  PerfContext before = *GetPerfContext();
  GetPerfContext()->block_read_count += 5;
  GetPerfContext()->filter_probe_count += 2;
  const PerfContext d = GetPerfContext()->Delta(before);
  EXPECT_EQ(d.block_read_count, 5u);
  EXPECT_EQ(d.filter_probe_count, 2u);
  EXPECT_EQ(d.index_seek_count, 0u);
  GetPerfContext()->Reset();
  EXPECT_EQ(GetPerfContext()->block_read_count, 0u);
  const std::string s = GetPerfContext()->ToString(true);
  EXPECT_NE(s.find("block_read_count=0"), std::string::npos);

  // Every listed field, each bumped by a distinct amount: a Delta that
  // skips, swaps or double-subtracts a field shows up here.
  GetPerfContext()->block_read_count = 1000;  // nonzero base
  before = *GetPerfContext();
  uint64_t bump = 0;
#define LSMLAB_TEST_BUMP(field) GetPerfContext()->field += ++bump;
  LSMLAB_PERF_CONTEXT_FIELDS(LSMLAB_TEST_BUMP)
#undef LSMLAB_TEST_BUMP
  const PerfContext all = GetPerfContext()->Delta(before);
  uint64_t expected = 0;
  std::string expected_dump;
#define LSMLAB_TEST_CHECK(field)                  \
  EXPECT_EQ(all.field, ++expected) << #field;     \
  expected_dump += #field "=" + std::to_string(expected) + "\n";
  LSMLAB_PERF_CONTEXT_FIELDS(LSMLAB_TEST_CHECK)
#undef LSMLAB_TEST_CHECK
  EXPECT_EQ(all.ToString(), expected_dump);

  GetPerfContext()->Reset();
  std::string zero_dump;
#define LSMLAB_TEST_ZERO(field)                        \
  EXPECT_EQ(GetPerfContext()->field, 0u) << #field;    \
  zero_dump += #field "=0\n";
  LSMLAB_PERF_CONTEXT_FIELDS(LSMLAB_TEST_ZERO)
#undef LSMLAB_TEST_ZERO
  EXPECT_EQ(GetPerfContext()->ToString(true), zero_dump);
  EXPECT_EQ(GetPerfContext()->ToString(), "");
}

// The "lsmlab.stats" line names, in order, exactly as lsmlab printed them
// before the ticker list became an X-macro. Tooling parses these names
// (perfbench fails without gets, memtable.hits, runs.probed,
// filter.run_skips, memtable.{parallel_applies,serial_applies,
// insert_cas_retries}, wal.group_{commits,followers} and
// write.{slowdown,stall}_micros), so a rename or reorder must be
// deliberate: it fails here first.
TEST_F(PerfContextTest, StatsDumpNamesArePinned) {
  const std::vector<std::string> kPinned = {
      "ticker.gets",
      "ticker.gets.found",
      "ticker.memtable.hits",
      "ticker.runs.probed",
      "ticker.filter.run_skips",
      "ticker.rangefilter.run_skips",
      "ticker.vlog.separated_reads",
      "ticker.multiget.batches",
      "ticker.multiget.keys",
      "ticker.multiget.filter_pruned",
      "ticker.multiget.coalesced_block_hits",
      "ticker.block.reads",
      "ticker.block.read_bytes",
      "ticker.block_cache.hits",
      "ticker.block_cache.misses",
      "ticker.filter.probes",
      "ticker.filter.negatives",
      "ticker.index.seeks",
      "ticker.index.learned_seeks",
      "ticker.index.hash_hits",
      "ticker.index.hash_absent",
      "ticker.merge_iter.seeks",
      "ticker.merge_iter.steps",
      "ticker.writes",
      "ticker.wal.appends",
      "ticker.wal.syncs",
      "ticker.wal.group_commits",
      "ticker.wal.group_followers",
      "ticker.wal.sync_skipped",
      "ticker.vlog.syncs",
      "ticker.write.slowdowns",
      "ticker.write.stalls",
      "ticker.write.slowdown_micros",
      "ticker.write.stall_micros",
      "ticker.memtable.parallel_applies",
      "ticker.memtable.serial_applies",
      "ticker.memtable.insert_cas_retries",
      "ticker.flushes",
      "ticker.compactions",
      "ticker.bytes.flushed",
      "ticker.bytes.compacted",
      "ticker.table_files.created",
      "ticker.table_files.deleted",
      "histogram.get_micros",
      "histogram.multiget_micros",
      "histogram.write_micros",
      "histogram.write_group_size",
      "histogram.memtable_apply_micros",
      "histogram.flush_micros",
      "histogram.compaction_micros",
  };
  Open();
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  std::string dump;
  ASSERT_TRUE(db_->GetProperty("lsmlab.stats", &dump));
  std::vector<std::string> names;
  size_t pos = 0;
  while (pos < dump.size()) {
    size_t eol = dump.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "unterminated line";
    const std::string line = dump.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t end = line.rfind("ticker.", 0) == 0 ? line.find('=')
                                                      : line.find(": ");
    ASSERT_NE(end, std::string::npos) << line;
    names.push_back(line.substr(0, end));
  }
  EXPECT_EQ(names, kPinned);
}

}  // namespace
}  // namespace lsmlab
