#ifndef LSMLAB_OBS_TICKERS_H_
#define LSMLAB_OBS_TICKERS_H_

#include <array>
#include <cstddef>
#include <cstdint>

/// The one list of DB-wide counters (DESIGN.md "Observability").
///
/// Every ticker is declared exactly once, here; the Ticker enum, its dump
/// name (kTickerNames), its DBStats field, DBImpl::GetStats, the ShardedDB
/// sums and the "lsmlab.stats" dump are all generated from this list, so
/// adding a counter means adding one row. Dump names are stable
/// identifiers: they appear in GetProperty("lsmlab.stats") dumps that
/// tests and tooling grep, so renaming one is a breaking change.
///
/// X-macro row format: X(enumerator, "dump.name", dbstats_field)
#define LSMLAB_TICKERS(X)                                                     \
  /* Read path. */                                                            \
  X(kGets, "gets", gets)                                                      \
  X(kGetsFound, "gets.found", gets_found)                                     \
  X(kMemtableHits, "memtable.hits", memtable_hits)                            \
  X(kRunsProbed, "runs.probed", runs_probed) /* after filters */              \
  X(kFilterSkips, "filter.run_skips", filter_skips) /* point filters */       \
  X(kRangeFilterSkips, "rangefilter.run_skips", range_filter_skips)           \
  X(kSeparatedReads, "vlog.separated_reads", separated_reads)                 \
  /* Batched reads (DB::MultiGet). */                                         \
  X(kMultiGets, "multiget.batches", multigets)                                \
  X(kMultiGetKeys, "multiget.keys", multiget_keys)                            \
  X(kMultiGetFilterPruned, "multiget.filter_pruned", multiget_filter_pruned)  \
  /* Keys served by a block another key of the batch already paid for. */    \
  X(kMultiGetCoalescedBlockHits, "multiget.coalesced_block_hits",             \
    multiget_coalesced_block_hits)                                            \
  /* Per-subsystem read costs (folded in from PerfContext deltas). */         \
  X(kBlockReads, "block.reads", block_reads)                                  \
  X(kBlockReadBytes, "block.read_bytes", block_read_bytes)                    \
  X(kBlockCacheHits, "block_cache.hits", block_cache_hits)                    \
  X(kBlockCacheMisses, "block_cache.misses", block_cache_misses)              \
  X(kFilterProbes, "filter.probes", filter_probes)                            \
  X(kFilterNegatives, "filter.negatives", filter_negatives)                   \
  X(kIndexSeeks, "index.seeks", index_seeks)                                  \
  X(kLearnedIndexSeeks, "index.learned_seeks", learned_index_seeks)           \
  X(kHashIndexHits, "index.hash_hits", hash_index_hits)                       \
  X(kHashIndexAbsent, "index.hash_absent", hash_index_absent)                 \
  X(kMergeIterSeeks, "merge_iter.seeks", merge_iter_seeks)                    \
  X(kMergeIterSteps, "merge_iter.steps", merge_iter_steps)                    \
  /* Write path. DB::Write calls (each Put/Delete is one). */                 \
  X(kWrites, "writes", writes)                                                \
  X(kWalAppends, "wal.appends", wal_appends)                                  \
  X(kWalSyncs, "wal.syncs", wal_syncs) /* group commits that synced */        \
  X(kWalGroupCommits, "wal.group_commits", group_commits)                     \
  /* Writers that rode along in someone else's group. */                      \
  X(kWalGroupFollowers, "wal.group_followers", group_followers)               \
  /* Group commits the durability policy left unsynced. */                    \
  X(kWalSyncSkipped, "wal.sync_skipped", wal_sync_skipped)                    \
  /* Write-path value-log syncs (skipped when a batch separated nothing). */  \
  X(kVlogSyncs, "vlog.syncs", vlog_syncs)                                     \
  /* Write controller: writes delayed by the L0 slowdown trigger, waits on */ \
  /* the flush/compaction backlog, and the time each cost the writers. */     \
  X(kWriteSlowdowns, "write.slowdowns", write_slowdowns)                      \
  X(kWriteStalls, "write.stalls", write_stalls)                               \
  X(kWriteSlowdownMicros, "write.slowdown_micros", write_slowdown_micros)     \
  X(kWriteStallMicros, "write.stall_micros", write_stall_micros)              \
  /* Memtable apply phase: groups with several appliers / with one. */       \
  /* They always sum to wal.group_commits. */                                 \
  X(kMemtableParallelApplies, "memtable.parallel_applies", parallel_applies)  \
  X(kMemtableSerialApplies, "memtable.serial_applies", serial_applies)        \
  /* Lost skiplist splice CASes (contention). */                              \
  X(kMemtableInsertCasRetries, "memtable.insert_cas_retries",                 \
    insert_cas_retries)                                                       \
  /* Background pipeline. bytes.flushed is user data written by flushes, */   \
  /* bytes.compacted the bytes written by compactions. */                     \
  X(kFlushes, "flushes", flushes)                                             \
  X(kCompactions, "compactions", compactions)                                 \
  X(kBytesFlushed, "bytes.flushed", bytes_flushed)                            \
  X(kBytesCompacted, "bytes.compacted", bytes_compacted)                      \
  X(kTableFilesCreated, "table_files.created", table_files_created)           \
  X(kTableFilesDeleted, "table_files.deleted", table_files_deleted)

namespace lsmlab {

/// Every named DB-wide counter, in LSMLAB_TICKERS order.
enum class Ticker : uint32_t {
#define LSMLAB_TICKER_ENUM(enumerator, name, field) enumerator,
  LSMLAB_TICKERS(LSMLAB_TICKER_ENUM)
#undef LSMLAB_TICKER_ENUM
  kNumTickers,  // sentinel; keep last
};

inline constexpr size_t kNumTickers =
    static_cast<size_t>(Ticker::kNumTickers);

/// Dump names, indexed by Ticker: "ticker.<name>=<value>" in
/// "lsmlab.stats".
inline constexpr std::array<const char*, kNumTickers> kTickerNames = {
#define LSMLAB_TICKER_NAME(enumerator, name, field) name,
    LSMLAB_TICKERS(LSMLAB_TICKER_NAME)
#undef LSMLAB_TICKER_NAME
};

}  // namespace lsmlab

#endif  // LSMLAB_OBS_TICKERS_H_
