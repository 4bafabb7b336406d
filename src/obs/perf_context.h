#ifndef LSMLAB_OBS_PERF_CONTEXT_H_
#define LSMLAB_OBS_PERF_CONTEXT_H_

#include <chrono>
#include <cstdint>
#include <string>

/// The one list of PerfContext counters: the struct fields, ToString and
/// Delta are all generated from it, so adding a counter means adding one
/// row. X-macro row format: X(field)
#define LSMLAB_PERF_CONTEXT_FIELDS(X)                                        \
  /* Block I/O (counted inside format::ReadBlock, i.e. at exactly the */     \
  /* granularity the Env-level IoStats sees its Read calls). Block reads */  \
  /* are physical fetches (cache misses and uncached reads); their bytes */  \
  /* include the trailer. */                                                 \
  X(block_read_count)                                                        \
  X(block_read_bytes)                                                        \
  X(block_cache_hit_count)                                                   \
  X(block_cache_miss_count)                                                  \
  /* Point filters: monolithic + partitioned probes, and the probes that */  \
  /* rejected the table. */                                                  \
  X(filter_probe_count)                                                      \
  X(filter_negative_count)                                                   \
  X(range_filter_probe_count)                                                \
  X(range_filter_negative_count)                                             \
  /* Index: fence-pointer (index block) seeks, then the alternatives. */     \
  X(index_seek_count)                                                        \
  X(learned_index_seek_count)                                                \
  X(hash_index_hit_count)                                                    \
  X(hash_index_absent_count)                                                 \
  /* Batched reads (DB::MultiGet): keys submitted across batches, */         \
  /* per-key table probes a filter rejected before any block I/O, and */     \
  /* keys served by a block another key already paid for. */                 \
  X(multiget_keys)                                                           \
  X(multiget_filter_pruned)                                                  \
  X(multiget_coalesced_block_hits)                                           \
  /* Memtable / merge: Seek/SeekToFirst/SeekToLast fanouts and */            \
  /* Next/Prev advances. */                                                  \
  X(memtable_hit_count)                                                      \
  X(merge_iter_seek_count)                                                   \
  X(merge_iter_step_count)                                                   \
  /* WAL. */                                                                 \
  X(wal_append_count)                                                        \
  X(wal_sync_count)                                                          \
  /* Group commit: time parked in the writer queue before a leader */        \
  /* committed us (or we became leader ourselves), and the skiplist */       \
  /* splice CASes this writer lost during a parallel group apply. */         \
  X(write_queue_wait_micros)                                                 \
  X(memtable_insert_cas_retries)                                             \
  /* Phase timers (microseconds); multiget_micros is whole batches. */       \
  X(get_micros)                                                              \
  X(multiget_micros)                                                         \
  X(seek_micros)                                                             \
  X(next_micros)                                                             \
  X(write_micros)                                                            \
  X(flush_micros)                                                            \
  X(compaction_micros)

namespace lsmlab {

/// Per-operation, per-thread counters for the read/write paths.
///
/// This is the instrument the tutorial's whole method rests on: attributing
/// an operation's I/O budget to the subsystem that spent it (filter probes,
/// fence-pointer seeks, block fetches, cache hits) instead of observing one
/// global number. Every field is a plain uint64 in thread-local storage, so
/// updating one costs a single non-atomic increment and is race-free by
/// construction; cross-thread aggregation happens only when a DB operation
/// folds its delta into the DB-wide StatsRegistry.
///
/// Usage: snapshot `*GetPerfContext()` (it is trivially copyable), run the
/// operation, subtract. Or Reset() and read absolute values when the thread
/// runs one operation at a time.
struct PerfContext {
#define LSMLAB_PERF_CONTEXT_FIELD(field) uint64_t field = 0;
  LSMLAB_PERF_CONTEXT_FIELDS(LSMLAB_PERF_CONTEXT_FIELD)
#undef LSMLAB_PERF_CONTEXT_FIELD

  void Reset() { *this = PerfContext(); }

  /// Field-wise `*this - since`; `since` must be an earlier snapshot of the
  /// same thread's context (all fields monotonic).
  PerfContext Delta(const PerfContext& since) const;

  /// "name=value" pairs, one per line; zero fields are omitted unless
  /// `include_zero`.
  std::string ToString(bool include_zero = false) const;
};

/// The calling thread's context. Never returns nullptr; the object lives
/// for the thread's lifetime.
PerfContext* GetPerfContext();

/// RAII stopwatch adding elapsed wall micros to `*field` on destruction.
class PerfTimer {
 public:
  explicit PerfTimer(uint64_t* field)
      : field_(field), start_(std::chrono::steady_clock::now()) {}
  ~PerfTimer() {
    *field_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

  PerfTimer(const PerfTimer&) = delete;
  PerfTimer& operator=(const PerfTimer&) = delete;

 private:
  uint64_t* field_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace lsmlab

#endif  // LSMLAB_OBS_PERF_CONTEXT_H_
