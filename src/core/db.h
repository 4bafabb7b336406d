#ifndef LSMLAB_CORE_DB_H_
#define LSMLAB_CORE_DB_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/dbformat.h"
#include "core/options.h"
#include "core/write_batch.h"
#include "obs/tickers.h"
#include "util/iterator.h"
#include "util/slice.h"
#include "util/status.h"

namespace lsmlab {

/// An immutable view of the database at one point in time.
class Snapshot {
 public:
  virtual ~Snapshot() = default;
  virtual SequenceNumber sequence() const = 0;
};

/// Shape, gauge and counter statistics; see DB::GetStats.
struct DBStats {
  // Shape.
  int num_levels = 0;
  int total_runs = 0;
  int total_files = 0;
  uint64_t total_bytes = 0;
  std::vector<int> runs_per_level;
  std::vector<uint64_t> bytes_per_level;

  // Gauges.
  /// In-memory index, filter and learned-model bytes, summed over the
  /// readers of the current version's files. A reader opens on its file's
  /// first use, so a file no read or compaction has touched counts 0.
  size_t index_filter_memory = 0;
  uint64_t value_log_bytes = 0;  ///< key-value separation
  uint64_t value_log_files = 0;

  // One field per ticker, named by the third column of LSMLAB_TICKERS
  // (obs/tickers.h, which documents each counter). The registry
  // reconciles wal_syncs + wal_sync_skipped == group_commits (every group
  // either syncs or is counted as skipped), parallel_applies +
  // serial_applies == group_commits (a group has either several appliers
  // or one; see Options::allow_concurrent_memtable_write), and — absent
  // write errors — group_commits + group_followers == writes.
#define LSMLAB_DBSTATS_FIELD(enumerator, name, field) uint64_t field = 0;
  LSMLAB_TICKERS(LSMLAB_DBSTATS_FIELD)
#undef LSMLAB_DBSTATS_FIELD

  /// Write amplification: (flushed + compacted) / flushed.
  double WriteAmplification() const {
    return bytes_flushed == 0
               ? 0.0
               : static_cast<double>(bytes_flushed + bytes_compacted) /
                     static_cast<double>(bytes_flushed);
  }

  /// Mean writers per commit group.
  double MeanWriteGroupSize() const {
    return group_commits == 0
               ? 0.0
               : static_cast<double>(group_commits + group_followers) /
                     static_cast<double>(group_commits);
  }
};

/// The DBStats field of each ticker, indexed by Ticker:
/// `stats.*kDBStatsTickerFields[i]` is ticker i's value.
inline constexpr std::array<uint64_t DBStats::*, kNumTickers>
    kDBStatsTickerFields = {
#define LSMLAB_DBSTATS_MEMBER(enumerator, name, field) &DBStats::field,
        LSMLAB_TICKERS(LSMLAB_DBSTATS_MEMBER)
#undef LSMLAB_DBSTATS_MEMBER
};

/// A log-structured merge key-value store over an Env.
///
/// Concurrent readers are always safe against the writer. By default
/// flushes and compactions run inline on the writing thread, right after
/// the commit that filled the memtable (deterministic by design — the
/// benchmark substrate). With Options::background_compaction they run on a
/// background thread instead:
/// writers (any number; they serialize internally) hand full memtables off
/// and are paced by the L0 slowdown/stop triggers rather than doing the
/// merge work themselves.
class DB {
 public:
  /// Opens (creating if needed) the database at `name`.
  static Status Open(const Options& options, const std::string& name,
                     std::unique_ptr<DB>* dbptr);

  virtual ~DB() = default;

  virtual Status Put(const WriteOptions& options, const Slice& key,
                     const Slice& value) = 0;
  virtual Status Delete(const WriteOptions& options, const Slice& key) = 0;
  virtual Status Write(const WriteOptions& options, WriteBatch* updates) = 0;

  virtual Status Get(const ReadOptions& options, const Slice& key,
                     std::string* value) = 0;

  /// Batched point lookup: resolves every key of `keys` against one
  /// consistent view of the database (one snapshot, one version pin for the
  /// whole batch). `values` and `statuses` are resized to keys.size();
  /// `(*statuses)[i]` is OK / NotFound / an error for `keys[i]` alone —
  /// a corrupt block fails only the keys it serves, the rest of the batch
  /// still resolves. Compared with looping Get, a batch probes each
  /// table's filter before any data-block I/O and fetches every distinct
  /// data block at most once no matter how many keys land in it.
  /// Duplicate keys are fine (each slot gets its own answer).
  virtual void MultiGet(const ReadOptions& options,
                        std::span<const Slice> keys,
                        std::vector<std::string>* values,
                        std::vector<Status>* statuses) = 0;

  /// Ordered iterator over the live user keys. The caller deletes it
  /// before the DB is destroyed.
  virtual Iterator* NewIterator(const ReadOptions& options) = 0;

  /// Collects up to `limit` entries with user keys in [start, end]
  /// (inclusive), consulting range filters to skip runs (tutorial §II-3).
  virtual Status Scan(const ReadOptions& options, const Slice& start,
                      const Slice& end, size_t limit,
                      std::vector<std::pair<std::string, std::string>>*
                          results) = 0;

  virtual const Snapshot* GetSnapshot() = 0;
  virtual void ReleaseSnapshot(const Snapshot* snapshot) = 0;

  /// Flushes the memtable and runs compactions until the shape is stable.
  virtual Status CompactAll() = 0;

  /// Rewrites live separated values out of closed value-log segments and
  /// deletes the segments (WiscKey-style GC). Requires key-value
  /// separation to be enabled and no live snapshots.
  virtual Status GarbageCollectValues() = 0;
  /// Flushes the memtable to level 0 without compacting.
  virtual Status Flush() = 0;

  virtual DBStats GetStats() = 0;
  /// Exports one named introspection property into *value; returns false
  /// for unknown names. Known properties:
  ///   "lsmlab.stats"         — StatsRegistry dump: every ticker as a
  ///                            "ticker.<name>=<value>" line, then one
  ///                            summary line per phase histogram.
  ///   "lsmlab.perf-context"  — the calling thread's PerfContext
  ///                            (thread-local; reflects this thread's ops).
  ///   "lsmlab.io-stats"      — the Env's logical-I/O counters.
  virtual bool GetProperty(const Slice& property, std::string* value) = 0;
  /// Human-readable levels/runs/files layout.
  virtual std::string DebugShape() = 0;
};

/// Deletes all files of the database at `name`. Use with care.
Status DestroyDB(const Options& options, const std::string& name);

}  // namespace lsmlab

#endif  // LSMLAB_CORE_DB_H_
