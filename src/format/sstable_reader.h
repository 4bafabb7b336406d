#ifndef LSMLAB_FORMAT_SSTABLE_READER_H_
#define LSMLAB_FORMAT_SSTABLE_READER_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/block_cache.h"
#include "format/block.h"
#include "format/format.h"
#include "format/sstable_builder.h"
#include "format/table_options.h"
#include "index/plr.h"
#include "index/radix_spline.h"
#include "storage/env.h"
#include "util/iterator.h"

namespace lsmlab {

/// One key's state within a point lookup. DB::Get is a lookup of one key
/// and DB::MultiGet of many; both pass their contexts to SSTable::MultiGet
/// for every table they probe. The per-probe outputs (`filter_pruned`,
/// `status`) are reset by the caller (DBImpl::LookupKeys) at the start of
/// each table, along with its monolithic-filter pass; a context built
/// fresh for a direct SSTable::MultiGet call starts reset.
struct BatchGetContext {
  // Inputs, set once per lookup by the caller.
  Slice target;       ///< internal lookup key (user_key . seq/type tag)
  Slice searchable;   ///< user-key portion, for filters and hash indexes
  uint64_t hash = 0;  ///< Hash64(searchable), shared across all probes
  /// Invoked at most once per table with the first entry >= target in the
  /// candidate block; the handler decides whether that entry is the sought
  /// key. A plain function pointer (not std::function) so a batch of
  /// hundreds of keys allocates nothing per key.
  void (*handler)(void* arg, const Slice& key, const Slice& value) = nullptr;
  void* arg = nullptr;

  // Per-table-probe outputs.
  bool filter_pruned = false;  ///< a filter rejected this key: no block I/O
  Status status;               ///< failure confined to this key's block
};

/// Immutable reader over one SSTable file.
///
/// The index block (fence pointers), filter blocks, and properties are
/// loaded into memory at Open — the "lightweight structures pre-fetched to
/// memory" of tutorial §II-1. Data blocks are read on demand, optionally
/// through a shared BlockCache. With a learned index type, a PLR or radix
/// spline over the numeric fences replaces binary search for point lookups.
class SSTable {
 public:
  /// Opens a table, reading its data blocks through `block_cache` (may be
  /// null) under a cache id of its own. On success *table owns the file.
  static Status Open(const TableOptions& options,
                     std::unique_ptr<RandomAccessFile> file,
                     uint64_t file_size, BlockCache* block_cache,
                     std::unique_ptr<SSTable>* table);

  ~SSTable();

  SSTable(const SSTable&) = delete;
  SSTable& operator=(const SSTable&) = delete;

  /// Ordered iterator over all entries.
  Iterator* NewIterator() const;

  /// Probes the point filter with the searchable key. `hash` must be
  /// Hash64(searchable_key); it is reused across runs (shared hashing).
  /// Returns true when the table has no filter or the filter says "maybe".
  bool KeyMayMatch(const Slice& searchable_key, uint64_t hash) const;

  /// Probes the range filter with inclusive bounds over searchable keys.
  /// Returns true when the table has no range filter or it says "maybe".
  bool RangeMayMatch(const Slice& lo, const Slice& hi) const;

  /// Point lookup of a batch of keys in this table, the only point-lookup
  /// path (a single Get is a batch of one). For each key not already
  /// `filter_pruned`, it locates the candidate data block (the learned
  /// fence index when the table has one, falling back to the exact fence
  /// seek when the learned block misses; otherwise the fence seek), probes
  /// the block's filter partition when `use_filter` is set, and invokes the
  /// key's handler on the first entry >= target, entering the block
  /// through its hash index when it has one. Keys that share a block and
  /// sit next to each other in `keys` share one block-cache lookup and at
  /// most one file read, so callers sort the batch by target; an unsorted
  /// batch is still answered correctly, with fewer shared fetches. A
  /// partition rejection sets `filter_pruned`; a corrupt or unreadable
  /// block sets `status` only on the keys it serves. Monolithic filters
  /// are the caller's job (KeyMayMatch).
  void MultiGet(std::span<BatchGetContext* const> keys,
                bool use_filter) const;

  const TableProperties& properties() const { return props_; }

  /// Block-cache hits on this table, each weighted by the keys it served:
  /// a coalesced MultiGet probe serving N keys from one cached block
  /// counts N, so the signal matches N looped Gets. The hotness read by
  /// the kCold file picker and the post-compaction prefetcher.
  uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }

  /// Loads up to `budget_bytes` of data blocks (front to back) through the
  /// block cache — the Leaper-style re-warm after compaction (§II-1).
  /// No-op without a block cache. Returns bytes loaded.
  size_t PrefetchBlocks(size_t budget_bytes) const;

  /// Bytes of in-memory metadata (index + filters + learned model).
  size_t IndexMemoryUsage() const;

 private:
  SSTable(const TableOptions& options, BlockCache* block_cache);

  Status ReadMeta(const Footer& footer);

  /// Returns an iterator over the data block named by an index-block value
  /// (encoded BlockHandle), reading through the block cache when present.
  Iterator* BlockReader(const Slice& index_value) const;

  /// Fetches (and pins/owns) the block at `handle`. On success *block
  /// points at a Block kept alive by *ref or *owned. `access_weight` is the
  /// number of keys this fetch serves (see cache_hits()).
  Status GetBlock(const BlockHandle& handle, BlockCache::Ref* ref,
                  std::shared_ptr<const Block>* owned, const Block** block,
                  uint64_t access_weight = 1) const;

  /// MultiGet's walk. `learned` locates blocks through the learned fence
  /// index; a key whose learned block misses re-runs the walk alone with
  /// `learned` false.
  void ProbeBlocks(std::span<BatchGetContext* const> keys, bool use_filter,
                   bool learned) const;

  /// Locates the one data block that may hold ctx's target. Returns false
  /// when no block can (past the last fence) or the index entry is
  /// unreadable, with the error in *s. *ordinal is the block's filter
  /// partition, or SIZE_MAX when the table has none or it cannot decide
  /// for this key.
  bool LocateBlock(const BatchGetContext& ctx, bool learned,
                   std::unique_ptr<Iterator>* index_iter, BlockHandle* handle,
                   size_t* ordinal, Status* s) const;

  /// Fetches the block at `handle` once, with `live` (the members not
  /// filter-pruned) as its cache weight, and resolves every such member.
  void ProbeGroup(const BlockHandle& handle,
                  std::span<BatchGetContext* const> group, size_t live,
                  bool use_filter, bool learned) const;

  /// Resolves ctx in the block `iter` walks, through the block's hash
  /// index when it has one, else by a seek. The block must be the one the
  /// exact fence seek picks for ctx's target.
  void SeekInBlock(const Block& block, Block::BlockIterator* iter,
                   BatchGetContext* ctx) const;

  /// Locates the data block that may hold `target` via the learned fence
  /// index. Returns false if the learned index is not available.
  bool LearnedFindBlock(const Slice& searchable, size_t* block_idx) const;

  /// Probes the filter partition of data block `ordinal` (true = maybe).
  bool PartitionMayMatch(size_t ordinal, uint64_t hash) const;
  bool has_partitioned_filter() const { return !partition_handles_.empty(); }

  TableOptions options_;
  uint64_t file_size_ = 0;  // bounds every untrusted BlockHandle
  BlockCache* block_cache_;
  uint64_t cache_id_;  // this reader's key space in block_cache_
  mutable std::atomic<uint64_t> cache_hits_{0};
  std::unique_ptr<RandomAccessFile> file_;
  std::unique_ptr<Block> index_block_;
  std::string filter_data_;
  bool has_filter_ = false;
  std::string range_filter_data_;
  bool has_range_filter_ = false;
  TableProperties props_;

  // Partitioned filters (§II-2 [89]): one filter blob per data block,
  // fetched through the block cache on demand.
  std::vector<BlockHandle> partition_handles_;
  std::unordered_map<uint64_t, size_t> block_offset_to_ordinal_;

  // Learned fence index state (index_type != kBinarySearch).
  std::vector<uint64_t> fence_nums_;         // numeric fence per block
  std::vector<std::string> block_handles_;   // encoded handle per block
  std::unique_ptr<PiecewiseLinearModel> plr_;
  std::unique_ptr<RadixSpline> spline_;
};

}  // namespace lsmlab

#endif  // LSMLAB_FORMAT_SSTABLE_READER_H_
