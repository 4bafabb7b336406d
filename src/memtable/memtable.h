#ifndef LSMLAB_MEMTABLE_MEMTABLE_H_
#define LSMLAB_MEMTABLE_MEMTABLE_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dbformat.h"
#include "memtable/skiplist.h"
#include "util/arena.h"
#include "util/iterator.h"
#include "util/mutex.h"
#include "util/status.h"

namespace lsmlab {

/// Mutable in-memory write buffer (tutorial I-1: ingestion is buffered here
/// and flushed to an immutable run when full).
///
/// Entries are stored arena-allocated as
///   varint32 internal_key_len | internal_key | varint32 value_len | value
/// and indexed by one of two representations (the buffer-design axis of
/// the read-update-memory tradeoff, tutorial I-2 / E13):
///  - kSkipList: O(log n) insert and search (default; LevelDB/RocksDB).
///  - kSortedVector: contiguous array kept sorted; cache-friendly searches,
///    O(n) inserts — the "sorted dense buffer" design point.
///
/// Writers and readers are safe against each other, and writers against
/// each other. Skiplist writers and readers take no lock; an insert into
/// the vector may reallocate it, so vector-rep Adds and Gets hold a private
/// mutex, and a vector-rep iterator works on a copy of the entry pointers
/// taken when it is created (entries are arena-stable).
///
/// An optional hash index (tutorial §II-4: per-page hash maps) maps user
/// keys to their newest entry for O(1) latest-version Gets; snapshot reads
/// fall back to the ordered search. It is an unsynchronized map, so a
/// memtable with the hash index serves one thread at a time (bench_memtable
/// measures it; the DB never enables it).
class MemTable {
 public:
  enum class Rep { kSkipList, kSortedVector };

  explicit MemTable(const InternalKeyComparator& comparator,
                    Rep rep = Rep::kSkipList, bool hash_index = false);

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Reference counting: the DB holds one ref; iterators/readers add more.
  /// Drops itself when the count reaches zero. Atomic because iterators are
  /// released on reader threads while the background flush thread unrefs a
  /// frozen memtable.
  void Ref() { refs_.fetch_add(1, std::memory_order_relaxed); }
  void Unref() {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete this;
    }
  }

  /// Bytes consumed; compared against Options::write_buffer_size to
  /// trigger a flush.
  size_t ApproximateMemoryUsage() const;

  /// Iterator yielding internal keys (entry encoding stripped).
  Iterator* NewIterator();

  /// Adds an entry. A deletion is an entry of type kTypeDeletion. Any
  /// number of Adds may run at once, alongside readers: the skiplist rep
  /// splices lock-free, the vector rep inserts under vector_mu_. Returns
  /// the number of skiplist CAS retries (memtable.insert_cas_retries).
  /// With the hash index, Adds must come from one thread at a time.
  uint64_t Add(SequenceNumber seq, ValueType type, const Slice& user_key,
               const Slice& value);

  /// If a version visible at `lkey`'s snapshot exists, returns true and
  /// sets *value (found) or *s = NotFound (tombstone). Returns false when
  /// this memtable holds nothing visible for the key.
  bool Get(const LookupKey& lkey, std::string* value, Status* s);

  uint64_t num_entries() const {
    return num_entries_.load(std::memory_order_relaxed);
  }

  /// Orders entry pointers by their encoded internal keys (public so the
  /// iterator implementation can name the skiplist type).
  struct KeyComparator {
    const InternalKeyComparator* comparator;
    int operator()(const char* a, const char* b) const;
  };

 private:
  ~MemTable() = default;  // only via Unref()

  const char* EncodeEntry(SequenceNumber seq, ValueType type,
                          const Slice& user_key, const Slice& value);

  InternalKeyComparator comparator_;
  KeyComparator key_comparator_;
  Rep rep_;
  std::atomic<int> refs_{0};
  // Relaxed atomic: bumped by concurrent Adds, read by flush sizing.
  std::atomic<uint64_t> num_entries_{0};
  Arena arena_;
  std::unique_ptr<SkipList<const char*, KeyComparator>> skiplist_;
  // The vector rep, sorted by internal key. Only the vector rep takes
  // vector_mu_: an insert may reallocate vector_ under a concurrent reader.
  mutable Mutex vector_mu_{LockRank::kMemTableVectorMu};
  std::vector<const char*> vector_ GUARDED_BY(vector_mu_);

  bool use_hash_index_;
  // user key (view into arena memory) -> newest entry
  std::unordered_map<std::string_view, const char*> hash_index_;
};

}  // namespace lsmlab

#endif  // LSMLAB_MEMTABLE_MEMTABLE_H_
