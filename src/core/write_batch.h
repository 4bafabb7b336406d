#ifndef LSMLAB_CORE_WRITE_BATCH_H_
#define LSMLAB_CORE_WRITE_BATCH_H_

#include <cstdint>
#include <string>

#include "core/dbformat.h"
#include "util/slice.h"
#include "util/status.h"

namespace lsmlab {

class MemTable;

/// Atomic group of puts/deletes. The serialized form — fixed64 base
/// sequence | fixed32 count | (type, key, [value])* — is exactly what one
/// WAL record carries, so recovery replays batches verbatim.
class WriteBatch {
 public:
  WriteBatch() { Clear(); }

  void Put(const Slice& key, const Slice& value);
  void Delete(const Slice& key);
  void Clear();

  /// Appends src's entries to this batch (group-commit concatenation: the
  /// leader folds follower batches into one WAL record). src's sequence is
  /// ignored; the combined batch is renumbered by set_sequence().
  void Append(const WriteBatch& src);

  uint32_t Count() const;
  size_t ApproximateSize() const { return rep_.size(); }

  /// Replays the batch into callbacks; used by recovery and the memtable
  /// insert path.
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual void Put(const Slice& key, const Slice& value) = 0;
    virtual void Delete(const Slice& key) = 0;
  };
  Status Iterate(Handler* handler) const;

  // --- Internal (DB use) --------------------------------------------------
  SequenceNumber sequence() const;
  void set_sequence(SequenceNumber seq);
  Slice Contents() const { return Slice(rep_); }
  void SetContentsFrom(const Slice& contents);
  /// Applies the batch to `mem`, assigning base_sequence, base_sequence+1,
  /// ... Safe to run concurrently with other InsertInto calls on the same
  /// memtable: the group-commit leader pre-assigns each applier its offset
  /// within the group, so appliers insert at once yet sequences stay
  /// exactly the ones the WAL record carries. Recovery passes sequence().
  /// *cas_retries accumulates skiplist splice retries.
  Status InsertInto(MemTable* mem, SequenceNumber base_sequence,
                    uint64_t* cas_retries) const;

 private:
  void SetCount(uint32_t n);

  std::string rep_;
};

}  // namespace lsmlab

#endif  // LSMLAB_CORE_WRITE_BATCH_H_
