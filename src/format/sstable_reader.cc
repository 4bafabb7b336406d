#include "format/sstable_reader.h"

#include <algorithm>
#include <cstdint>

#include "filter/filter_policy.h"
#include "format/two_level_iterator.h"
#include "obs/perf_context.h"
#include "rangefilter/range_filter.h"
#include "util/coding.h"

namespace lsmlab {

namespace {

/// First 8 bytes of `s`, big-endian, zero-padded: the numeric image of a
/// key used by the learned fence indexes.
uint64_t NumericKey(const Slice& s) {
  uint64_t v = 0;
  const size_t n = std::min<size_t>(8, s.size());
  for (size_t i = 0; i < n; i++) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(s[i]))
         << (8 * (7 - i));
  }
  return v;
}

/// Iterator over one data block that keeps the block alive via either a
/// cache pin or shared ownership.
class PinnedBlockIterator : public Iterator {
 public:
  PinnedBlockIterator(Block::BlockIterator* iter, BlockCache::Ref ref,
                      std::shared_ptr<const Block> owned)
      : iter_(iter), ref_(std::move(ref)), owned_(std::move(owned)) {}

  bool Valid() const override { return iter_->Valid(); }
  void SeekToFirst() override { iter_->SeekToFirst(); }
  void SeekToLast() override { iter_->SeekToLast(); }
  void Seek(const Slice& target) override { iter_->Seek(target); }
  void Next() override { iter_->Next(); }
  void Prev() override { iter_->Prev(); }
  Slice key() const override { return iter_->key(); }
  Slice value() const override { return iter_->value(); }
  Status status() const override { return iter_->status(); }

 private:
  std::unique_ptr<Block::BlockIterator> iter_;
  BlockCache::Ref ref_;
  std::shared_ptr<const Block> owned_;
};

}  // namespace

SSTable::SSTable(const TableOptions& options, BlockCache* block_cache)
    : options_(options),
      block_cache_(block_cache),
      cache_id_(block_cache != nullptr ? block_cache->NewId() : 0) {}

SSTable::~SSTable() = default;

Status SSTable::Open(const TableOptions& options,
                     std::unique_ptr<RandomAccessFile> file,
                     uint64_t file_size, BlockCache* block_cache,
                     std::unique_ptr<SSTable>* table) {
  table->reset();
  if (file_size < Footer::kEncodedLength) {
    return Status::Corruption("file is too short to be an sstable");
  }

  char footer_space[Footer::kEncodedLength];
  Slice footer_input;
  Status s = file->Read(file_size - Footer::kEncodedLength,
                        Footer::kEncodedLength, &footer_input, footer_space);
  if (!s.ok()) {
    return s;
  }
  Footer footer;
  s = footer.DecodeFrom(&footer_input);
  if (!s.ok()) {
    return s;
  }

  std::unique_ptr<SSTable> t(new SSTable(options, block_cache));
  t->file_ = std::move(file);
  t->file_size_ = file_size;

  BlockContents index_contents;
  s = ReadBlock(t->file_.get(), file_size, footer.index_handle(),
                &index_contents);
  if (!s.ok()) {
    return s;
  }
  t->index_block_ = std::make_unique<Block>(std::move(index_contents));

  s = t->ReadMeta(footer);
  if (!s.ok()) {
    return s;
  }

  // Partitioned filters need the ordinal of a data block given its handle;
  // map block offsets to ordinals from the (memory-resident) index block.
  if (!t->partition_handles_.empty()) {
    std::unique_ptr<Iterator> it(
        t->index_block_->NewIterator(options.comparator));
    size_t ordinal = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next(), ordinal++) {
      Slice v = it->value();
      BlockHandle handle;
      if (handle.DecodeFrom(&v).ok()) {
        t->block_offset_to_ordinal_[handle.offset()] = ordinal;
      }
    }
    if (ordinal != t->partition_handles_.size()) {
      // Partition count must match data blocks; degrade to no filtering.
      t->partition_handles_.clear();
      t->block_offset_to_ordinal_.clear();
    }
  }

  // Train the learned fence index if requested. Falls back silently to
  // binary search when the fences are not strictly increasing numerically
  // (non-numeric keys truncated to equal 8-byte prefixes).
  if (options.index_type != TableOptions::IndexType::kBinarySearch) {
    std::unique_ptr<Iterator> it(
        t->index_block_->NewIterator(options.comparator));
    bool ok = true;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      const uint64_t num = NumericKey(options.SearchableKey(it->key()));
      if (!t->fence_nums_.empty() && num <= t->fence_nums_.back()) {
        ok = false;
        break;
      }
      t->fence_nums_.push_back(num);
      t->block_handles_.push_back(it->value().ToString());
    }
    if (ok && !t->fence_nums_.empty()) {
      if (options.index_type == TableOptions::IndexType::kLearnedPlr) {
        t->plr_ = std::make_unique<PiecewiseLinearModel>(
            options.learned_index_epsilon);
        for (uint64_t num : t->fence_nums_) {
          t->plr_->Add(num);
        }
        t->plr_->Finish();
      } else {
        t->spline_ = std::make_unique<RadixSpline>(
            options.learned_index_epsilon, /*radix_bits=*/12);
        for (uint64_t num : t->fence_nums_) {
          t->spline_->Add(num);
        }
        t->spline_->Finish();
      }
    } else {
      t->fence_nums_.clear();
      t->block_handles_.clear();
    }
  }

  *table = std::move(t);
  return Status::OK();
}

Status SSTable::ReadMeta(const Footer& footer) {
  BlockContents meta_contents;
  Status s = ReadBlock(file_.get(), file_size_, footer.metaindex_handle(),
                       &meta_contents);
  if (!s.ok()) {
    return s;
  }
  Block metaindex(std::move(meta_contents));
  std::unique_ptr<Iterator> it(metaindex.NewIterator(BytewiseComparator()));

  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    const std::string name = it->key().ToString();
    Slice handle_value = it->value();
    BlockHandle handle;
    if (!handle.DecodeFrom(&handle_value).ok()) {
      return Status::Corruption("bad metaindex handle for ", name);
    }
    BlockContents contents;
    if (name == "lsmlab.properties") {
      s = ReadBlock(file_.get(), file_size_, handle, &contents);
      if (!s.ok()) {
        return s;
      }
      s = props_.DecodeFrom(contents.data);
      if (!s.ok()) {
        return s;
      }
    } else if (options_.filter_policy != nullptr &&
               name == std::string("filter.") + options_.filter_policy->Name()) {
      s = ReadBlock(file_.get(), file_size_, handle, &contents);
      if (!s.ok()) {
        return s;
      }
      filter_data_ = contents.data.ToString();
      has_filter_ = true;
    } else if (options_.filter_policy != nullptr &&
               name == std::string("filterpartitions.") +
                           options_.filter_policy->Name()) {
      s = ReadBlock(file_.get(), file_size_, handle, &contents);
      if (!s.ok()) {
        return s;
      }
      Slice input = contents.data;
      uint32_t count;
      if (!GetVarint32(&input, &count)) {
        return Status::Corruption("bad filter partition index");
      }
      // Each encoded handle is at least two bytes; a count that could not
      // possibly fit in the remaining bytes is corruption, not a reserve()
      // of up to 4G entries.
      if (count > input.size() / 2) {
        return Status::Corruption("bad filter partition count");
      }
      partition_handles_.reserve(count);
      for (uint32_t i = 0; i < count; i++) {
        BlockHandle ph;
        if (!ph.DecodeFrom(&input).ok()) {
          return Status::Corruption("bad filter partition handle");
        }
        partition_handles_.push_back(ph);
      }
    } else if (options_.range_filter_policy != nullptr &&
               name == std::string("rangefilter.") +
                           options_.range_filter_policy->Name()) {
      s = ReadBlock(file_.get(), file_size_, handle, &contents);
      if (!s.ok()) {
        return s;
      }
      range_filter_data_ = contents.data.ToString();
      has_range_filter_ = true;
    }
    // Unknown meta blocks (or filters built with a different policy) are
    // skipped: the table degrades to filter-less reads.
  }
  return it->status();
}

Status SSTable::GetBlock(const BlockHandle& handle, BlockCache::Ref* ref,
                         std::shared_ptr<const Block>* owned,
                         const Block** block, uint64_t access_weight) const {
  *block = nullptr;
  if (block_cache_ != nullptr) {
    *ref = block_cache_->Lookup(cache_id_, handle.offset());
    if (*ref) {
      cache_hits_.fetch_add(access_weight, std::memory_order_relaxed);
      *block = ref->block();
      return Status::OK();
    }
  }
  BlockContents contents;
  Status s = ReadBlock(file_.get(), file_size_, handle, &contents);
  if (!s.ok()) {
    return s;
  }
  auto fresh = std::make_unique<const Block>(std::move(contents));
  if (block_cache_ != nullptr) {
    *ref = block_cache_->Insert(cache_id_, handle.offset(),
                                std::move(fresh));
    *block = ref->block();
  } else {
    *owned = std::shared_ptr<const Block>(fresh.release());
    *block = owned->get();
  }
  return Status::OK();
}

Iterator* SSTable::BlockReader(const Slice& index_value) const {
  Slice input = index_value;
  BlockHandle handle;
  Status s = handle.DecodeFrom(&input);
  if (!s.ok()) {
    return NewEmptyIterator(s);
  }
  BlockCache::Ref ref;
  std::shared_ptr<const Block> owned;
  const Block* block = nullptr;
  s = GetBlock(handle, &ref, &owned, &block);
  if (!s.ok()) {
    return NewEmptyIterator(s);
  }
  return new PinnedBlockIterator(block->NewIterator(options_.comparator),
                                 std::move(ref), std::move(owned));
}

Iterator* SSTable::NewIterator() const {
  return NewTwoLevelIterator(
      index_block_->NewIterator(options_.comparator),
      [this](const Slice& index_value) { return BlockReader(index_value); });
}

bool SSTable::KeyMayMatch(const Slice& searchable_key, uint64_t hash) const {
  if (!has_filter_) {
    return true;
  }
  GetPerfContext()->filter_probe_count++;
  const FilterPolicy* policy = options_.filter_policy;
  const bool maybe = policy->SupportsHashProbe()
                         ? policy->HashMayMatch(hash, Slice(filter_data_))
                         : policy->KeyMayMatch(searchable_key,
                                               Slice(filter_data_));
  if (!maybe) {
    GetPerfContext()->filter_negative_count++;
  }
  return maybe;
}

bool SSTable::RangeMayMatch(const Slice& lo, const Slice& hi) const {
  if (!has_range_filter_) {
    return true;
  }
  GetPerfContext()->range_filter_probe_count++;
  const bool maybe = options_.range_filter_policy->RangeMayMatch(
      lo, hi, Slice(range_filter_data_));
  if (!maybe) {
    GetPerfContext()->range_filter_negative_count++;
  }
  return maybe;
}

bool SSTable::LearnedFindBlock(const Slice& searchable,
                               size_t* block_idx) const {
  if (fence_nums_.empty()) {
    return false;
  }
  const uint64_t num = NumericKey(searchable);
  size_t lo = 0;
  size_t hi = 0;
  if (plr_ != nullptr) {
    plr_->Lookup(num, &lo, &hi);
  } else if (spline_ != nullptr) {
    spline_->Lookup(num, &lo, &hi);
  } else {
    return false;
  }
  // Binary search for the first fence >= num inside [lo, hi]; widen to a
  // full search if the window was misleading (possible for keys that were
  // never fed to the model).
  auto begin = fence_nums_.begin() + lo;
  auto end = fence_nums_.begin() + std::min(hi + 1, fence_nums_.size());
  auto it = std::lower_bound(begin, end, num);
  bool trustworthy =
      (it != end || hi + 1 >= fence_nums_.size()) &&
      (it != begin || lo == 0);
  if (!trustworthy) {
    it = std::lower_bound(fence_nums_.begin(), fence_nums_.end(), num);
    if (it == fence_nums_.end()) {
      return false;  // beyond the last fence: key not in this table
    }
    *block_idx = static_cast<size_t>(it - fence_nums_.begin());
    return true;
  }
  if (it == fence_nums_.end()) {
    return false;  // beyond the last fence
  }
  *block_idx = static_cast<size_t>(it - fence_nums_.begin());
  return true;
}

bool SSTable::PartitionMayMatch(size_t ordinal, uint64_t hash) const {
  if (ordinal >= partition_handles_.size()) {
    return true;
  }
  BlockCache::Ref ref;
  std::shared_ptr<const Block> owned;
  const Block* block = nullptr;
  if (!GetBlock(partition_handles_[ordinal], &ref, &owned, &block).ok()) {
    return true;  // unreadable partition: never reject
  }
  std::unique_ptr<Iterator> it(block->NewIterator(BytewiseComparator()));
  it->SeekToFirst();
  if (!it->Valid()) {
    return true;
  }
  const Slice blob = it->value();
  const FilterPolicy* policy = options_.filter_policy;
  if (policy == nullptr) {
    return true;
  }
  GetPerfContext()->filter_probe_count++;
  const bool maybe = policy->HashMayMatch(hash, blob);
  if (!maybe) {
    GetPerfContext()->filter_negative_count++;
  }
  return maybe;
}

bool SSTable::LocateBlock(const BatchGetContext& ctx, bool learned,
                          std::unique_ptr<Iterator>* index_iter,
                          BlockHandle* handle, size_t* ordinal,
                          Status* s) const {
  *ordinal = SIZE_MAX;
  Slice handle_value;
  if (learned) {
    // Learned fast path: model -> candidate block. The numeric fences are
    // trained (learned implies fence_nums_ is populated), so a key the
    // model places beyond the last fence is not in this table.
    size_t block_idx;
    if (!LearnedFindBlock(ctx.searchable, &block_idx)) {
      return false;
    }
    GetPerfContext()->learned_index_seek_count++;
    // The model sees only the first 8 bytes of a key. Below the fence's,
    // this is the block the fence seek would pick, and its filter partition
    // may reject the key; on a tie the key can belong to the next block,
    // which that partition never saw, so it must not answer.
    if (NumericKey(ctx.searchable) < fence_nums_[block_idx]) {
      *ordinal = block_idx;
    }
    handle_value = Slice(block_handles_[block_idx]);
  } else {
    // Exact path: binary search the index block for the fence >= target.
    GetPerfContext()->index_seek_count++;
    if (*index_iter == nullptr) {
      index_iter->reset(index_block_->NewIterator(options_.comparator));
    }
    Iterator* it = index_iter->get();
    it->Seek(ctx.target);
    if (!it->Valid()) {
      // Past the last fence (absent from this table), or a corrupt index:
      // either way the iterator's status is this key's answer.
      *s = it->status();
      return false;
    }
    handle_value = it->value();
  }
  *s = handle->DecodeFrom(&handle_value);
  if (!s->ok()) {
    return false;
  }
  if (!learned && has_partitioned_filter()) {
    auto ord = block_offset_to_ordinal_.find(handle->offset());
    if (ord != block_offset_to_ordinal_.end()) {
      *ordinal = ord->second;
    }
  }
  return true;
}

void SSTable::SeekInBlock(const Block& block, Block::BlockIterator* iter,
                          BatchGetContext* ctx) const {
  // In-block hash index fast path (tutorial §II-4): resolves the restart
  // group of the newest version of the searchable key in O(1), or proves
  // absence. The block was built with Hash32(searchable), the low half of
  // the caller's Hash64. A walk that runs off the block's end never needs
  // the next block: the fence seek picked this block, so its fence is
  // >= target while its last key is < target, and such a fence is a
  // shortened separator (or the last block's successor), meaning the next
  // block starts with a user key above the target's.
  uint32_t restart;
  switch (block.HashLookup(static_cast<uint32_t>(ctx->hash), &restart)) {
    case Block::HashResult::kAbsent:
      GetPerfContext()->hash_index_absent_count++;
      return;
    case Block::HashResult::kFound:
      GetPerfContext()->hash_index_hit_count++;
      iter->SeekToRestart(restart);
      while (iter->Valid() &&
             options_.comparator->Compare(iter->key(), ctx->target) < 0) {
        iter->Next();
      }
      break;
    case Block::HashResult::kCollision:
    case Block::HashResult::kNoIndex:
      iter->Seek(ctx->target);
      break;
  }
  if (iter->Valid()) {
    ctx->handler(ctx->arg, iter->key(), iter->value());
  }
  ctx->status = iter->status();
}

void SSTable::ProbeGroup(const BlockHandle& handle,
                         std::span<BatchGetContext* const> group, size_t live,
                         bool use_filter, bool learned) const {
  BlockCache::Ref ref;
  std::shared_ptr<const Block> owned;
  const Block* block = nullptr;
  Status s = GetBlock(handle, &ref, &owned, &block, /*access_weight=*/live);
  if (!s.ok()) {
    // Corruption contract: a bad block fails only the keys it serves; the
    // rest of the batch is untouched.
    for (BatchGetContext* ctx : group) {
      if (!ctx->filter_pruned) {
        ctx->status = s;
      }
    }
    return;
  }
  // Every key past the first rides a block another key already paid for.
  GetPerfContext()->multiget_coalesced_block_hits += live - 1;
  std::unique_ptr<Block::BlockIterator> iter(
      block->NewIterator(options_.comparator));
  for (BatchGetContext* ctx : group) {
    if (ctx->filter_pruned) {
      continue;
    }
    if (!learned) {
      SeekInBlock(*block, iter.get(), ctx);
      continue;
    }
    iter->Seek(ctx->target);
    if (iter->Valid()) {
      ctx->handler(ctx->arg, iter->key(), iter->value());
    } else if (!iter->status().ok()) {
      ctx->status = iter->status();
    } else {
      // Numeric tie-breaking can land one block early (same 8-byte key
      // prefix): re-locate this key with the exact fence seek.
      ProbeBlocks(std::span<BatchGetContext* const>(&ctx, 1), use_filter,
                  /*learned=*/false);
    }
  }
}

void SSTable::ProbeBlocks(std::span<BatchGetContext* const> keys,
                          bool use_filter, bool learned) const {
  // One pass: locate each key's block and prune it with the block's filter
  // partition. Keys that land in the same block as the previous live key
  // join its group; a key in another block first resolves the open group
  // (one block fetch for all its members). Pruned keys stay inside the
  // group they fall in and are skipped when it resolves.
  std::unique_ptr<Iterator> index_iter;  // built on the first exact seek
  size_t group_begin = 0;
  size_t group_live = 0;
  BlockHandle group_handle;
  auto close_group = [&](size_t end) {
    if (group_live > 0) {
      ProbeGroup(group_handle, keys.subspan(group_begin, end - group_begin),
                 group_live, use_filter, learned);
    }
    group_live = 0;
  };
  for (size_t i = 0; i < keys.size(); i++) {
    BatchGetContext* ctx = keys[i];
    if (ctx->filter_pruned) {
      continue;  // a monolithic filter already rejected it
    }
    BlockHandle handle;
    size_t ordinal;
    if (!LocateBlock(*ctx, learned, &index_iter, &handle, &ordinal,
                     &ctx->status)) {
      // Absent from this table, or its index entry is unreadable (the
      // status says which): the key joins no group.
      close_group(i);
      group_begin = i + 1;
      continue;
    }
    // Partitioned filter probe (§II-2 [89]): reject before paying for the
    // data block.
    if (use_filter && !PartitionMayMatch(ordinal, ctx->hash)) {
      ctx->filter_pruned = true;
      continue;
    }
    if (group_live > 0 && handle.offset() != group_handle.offset()) {
      close_group(i);
      group_begin = i;
    }
    group_handle = handle;
    group_live++;
  }
  close_group(keys.size());
}

void SSTable::MultiGet(std::span<BatchGetContext* const> keys,
                       bool use_filter) const {
  ProbeBlocks(keys, use_filter,
              /*learned=*/plr_ != nullptr || spline_ != nullptr);
}

size_t SSTable::PrefetchBlocks(size_t budget_bytes) const {
  if (block_cache_ == nullptr) {
    return 0;
  }
  size_t loaded = 0;
  std::unique_ptr<Iterator> index_iter(
      index_block_->NewIterator(options_.comparator));
  for (index_iter->SeekToFirst();
       index_iter->Valid() && loaded < budget_bytes; index_iter->Next()) {
    Slice handle_value = index_iter->value();
    BlockHandle handle;
    if (!handle.DecodeFrom(&handle_value).ok()) {
      break;
    }
    BlockCache::Ref ref;
    std::shared_ptr<const Block> owned;
    const Block* block = nullptr;
    if (!GetBlock(handle, &ref, &owned, &block).ok()) {
      break;
    }
    loaded += static_cast<size_t>(handle.size());
  }
  return loaded;
}

size_t SSTable::IndexMemoryUsage() const {
  size_t total = index_block_->size() + filter_data_.size() +
                 range_filter_data_.size();
  total += fence_nums_.capacity() * sizeof(uint64_t);
  for (const auto& h : block_handles_) {
    total += h.capacity();
  }
  if (plr_ != nullptr) {
    total += plr_->MemoryUsage();
  }
  if (spline_ != nullptr) {
    total += spline_->MemoryUsage();
  }
  return total;
}

}  // namespace lsmlab
