#include "format/sstable_builder.h"

#include <algorithm>
#include <cassert>

#include "filter/filter_policy.h"
#include "rangefilter/range_filter.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace lsmlab {

void TableProperties::EncodeTo(std::string* dst) const {
  PutVarint64(dst, num_entries);
  PutVarint64(dst, num_data_blocks);
  PutVarint64(dst, raw_key_bytes);
  PutVarint64(dst, raw_value_bytes);
  PutVarint64(dst, filter_bytes);
  PutVarint64(dst, range_filter_bytes);
  PutVarint64(dst, index_bytes);
}

Status TableProperties::DecodeFrom(Slice input) {
  if (GetVarint64(&input, &num_entries) &&
      GetVarint64(&input, &num_data_blocks) &&
      GetVarint64(&input, &raw_key_bytes) &&
      GetVarint64(&input, &raw_value_bytes) &&
      GetVarint64(&input, &filter_bytes) &&
      GetVarint64(&input, &range_filter_bytes) &&
      GetVarint64(&input, &index_bytes)) {
    return Status::OK();
  }
  return Status::Corruption("bad table properties");
}

namespace {

TableOptions IndexBlockOptions(const TableOptions& options) {
  TableOptions index_options = options;
  index_options.use_hash_index = false;
  // Index entries are full keys so the reader can binary-search them all.
  index_options.block_restart_interval = 1;
  return index_options;
}

}  // namespace

SSTableBuilder::SSTableBuilder(const TableOptions& options, WritableFile* file)
    : options_(options),
      index_options_(IndexBlockOptions(options)),
      file_(file),
      data_block_(&options_),
      index_block_(&index_options_) {}

SSTableBuilder::~SSTableBuilder() { assert(closed_); }

void SSTableBuilder::Add(const Slice& key, const Slice& value) {
  assert(!closed_);
  if (!status_.ok()) {
    return;
  }
  assert(props_.num_entries == 0 ||
         options_.comparator->Compare(key, Slice(last_key_)) > 0);

  if (pending_index_entry_) {
    // The previous block was flushed; emit its fence pointer now that we
    // know the next key, so the divider can be shortened to lie strictly
    // between the two blocks. Learned index modes keep the full key so the
    // reader can decode fences numerically.
    assert(data_block_.empty());
    if (options_.index_type == TableOptions::IndexType::kBinarySearch) {
      options_.comparator->FindShortestSeparator(&last_key_, key);
    }
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(Slice(last_key_), Slice(handle_encoding));
    pending_index_entry_ = false;
  }

  if (options_.filter_policy != nullptr ||
      options_.range_filter_policy != nullptr) {
    Slice searchable = options_.SearchableKey(key);
    // Successive versions of one user key dedupe to a single filter entry.
    if (filter_keys_.empty() ||
        Slice(filter_keys_.back()) != searchable) {
      filter_keys_.push_back(searchable.ToString());
    } else if (partition_first_key_ == filter_keys_.size()) {
      // The key's versions straddle a block boundary: this block's filter
      // partition needs the key too, or a lookup whose visible version
      // lives here is rejected.
      partition_first_key_--;
    }
  }

  props_.num_entries++;
  props_.raw_key_bytes += key.size();
  props_.raw_value_bytes += value.size();
  last_key_.assign(key.data(), key.size());
  data_block_.Add(key, value);

  if (data_block_.CurrentSizeEstimate() >= options_.block_size) {
    FlushDataBlock();
  }
}

void SSTableBuilder::FlushDataBlock() {
  assert(!closed_);
  if (!status_.ok() || data_block_.empty()) {
    return;
  }
  assert(!pending_index_entry_);
  if (options_.partition_filters && options_.filter_policy != nullptr) {
    // One filter partition per data block, over this block's keys only.
    std::vector<Slice> key_slices;
    key_slices.reserve(filter_keys_.size() - partition_first_key_);
    for (size_t i = partition_first_key_; i < filter_keys_.size(); i++) {
      key_slices.emplace_back(filter_keys_[i]);
    }
    std::string filter_data;
    options_.filter_policy->CreateFilter(key_slices.data(),
                                         key_slices.size(), &filter_data);
    props_.filter_bytes += filter_data.size();
    partition_filters_.push_back(std::move(filter_data));
    partition_first_key_ = filter_keys_.size();
  }
  Slice raw = data_block_.Finish();
  WriteRawBlock(raw, &pending_handle_);
  data_block_.Reset();
  pending_index_entry_ = true;
  props_.num_data_blocks++;
  if (status_.ok()) {
    status_ = file_->Flush();
  }
}

void SSTableBuilder::WriteRawBlock(const Slice& contents,
                                   BlockHandle* handle) {
  handle->set_offset(offset_);
  handle->set_size(contents.size());
  status_ = file_->Append(contents);
  if (status_.ok()) {
    char trailer[kBlockTrailerSize];
    trailer[0] = 0;  // uncompressed
    uint32_t crc = crc32c::Value(contents.data(), contents.size());
    crc = crc32c::Extend(crc, trailer, 1);  // cover the type byte
    EncodeFixed32(trailer + 1, crc32c::Mask(crc));
    status_ = file_->Append(Slice(trailer, kBlockTrailerSize));
  }
  if (status_.ok()) {
    offset_ += contents.size() + kBlockTrailerSize;
  }
}

Status SSTableBuilder::Finish() {
  assert(!closed_);
  FlushDataBlock();
  closed_ = true;

  BlockHandle filter_handle, range_filter_handle, props_handle,
      metaindex_handle, index_handle;

  // Filter partitions: each partition is a single-entry block (key "f",
  // value = filter blob) so it flows through the normal block-cache read
  // path; a partition-index maps data-block ordinals to their handles.
  BlockHandle partition_index_handle;
  if (status_.ok() && options_.partition_filters &&
      options_.filter_policy != nullptr) {
    std::string partition_index;
    PutVarint32(&partition_index,
                static_cast<uint32_t>(partition_filters_.size()));
    for (const std::string& filter_data : partition_filters_) {
      BlockBuilder partition(&index_options_);
      partition.Add("f", Slice(filter_data));
      BlockHandle handle;
      WriteRawBlock(partition.Finish(), &handle);
      if (!status_.ok()) {
        break;
      }
      handle.EncodeTo(&partition_index);
    }
    if (status_.ok()) {
      WriteRawBlock(Slice(partition_index), &partition_index_handle);
    }
  }

  // Filter block (monolithic; skipped when partitioned).
  if (status_.ok() && !options_.partition_filters &&
      options_.filter_policy != nullptr) {
    std::vector<Slice> key_slices;
    key_slices.reserve(filter_keys_.size());
    for (const auto& k : filter_keys_) {
      key_slices.emplace_back(k);
    }
    std::string filter_data;
    options_.filter_policy->CreateFilter(
        key_slices.data(), key_slices.size(), &filter_data);
    props_.filter_bytes = filter_data.size();
    WriteRawBlock(Slice(filter_data), &filter_handle);
  }

  // Range filter block.
  if (status_.ok() && options_.range_filter_policy != nullptr) {
    std::vector<Slice> key_slices;
    key_slices.reserve(filter_keys_.size());
    for (const auto& k : filter_keys_) {
      key_slices.emplace_back(k);
    }
    std::string filter_data;
    options_.range_filter_policy->CreateFilter(key_slices, &filter_data);
    props_.range_filter_bytes = filter_data.size();
    WriteRawBlock(Slice(filter_data), &range_filter_handle);
  }

  // Properties block (must be written before metaindex references it; note
  // index_bytes is not yet known so it reflects the index block only after
  // reopen via footer, and we record 0 here after this comment clarifies).
  if (status_.ok()) {
    std::string props_data;
    props_.EncodeTo(&props_data);
    WriteRawBlock(Slice(props_data), &props_handle);
  }

  // Metaindex block maps meta block names to handles. Its keys are ASCII
  // names, not table keys, so it is always built in bytewise order.
  if (status_.ok()) {
    TableOptions meta_options = index_options_;
    meta_options.comparator = BytewiseComparator();
    BlockBuilder metaindex(&meta_options);
    // Entries must be added in sorted key order.
    struct Entry {
      std::string name;
      BlockHandle handle;
    };
    std::vector<Entry> entries;
    if (options_.filter_policy != nullptr && !filter_handle.IsNull()) {
      entries.push_back(
          {std::string("filter.") + options_.filter_policy->Name(),
           filter_handle});
    }
    if (options_.filter_policy != nullptr &&
        !partition_index_handle.IsNull()) {
      entries.push_back(
          {std::string("filterpartitions.") + options_.filter_policy->Name(),
           partition_index_handle});
    }
    entries.push_back({"lsmlab.properties", props_handle});
    if (options_.range_filter_policy != nullptr &&
        !range_filter_handle.IsNull()) {
      entries.push_back(
          {std::string("rangefilter.") + options_.range_filter_policy->Name(),
           range_filter_handle});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.name < b.name; });
    for (const auto& e : entries) {
      std::string handle_encoding;
      e.handle.EncodeTo(&handle_encoding);
      metaindex.Add(Slice(e.name), Slice(handle_encoding));
    }
    WriteRawBlock(metaindex.Finish(), &metaindex_handle);
  }

  // Index block (fence pointers).
  if (status_.ok()) {
    if (pending_index_entry_) {
      if (options_.index_type == TableOptions::IndexType::kBinarySearch) {
        options_.comparator->FindShortSuccessor(&last_key_);
      }
      std::string handle_encoding;
      pending_handle_.EncodeTo(&handle_encoding);
      index_block_.Add(Slice(last_key_), Slice(handle_encoding));
      pending_index_entry_ = false;
    }
    Slice index_contents = index_block_.Finish();
    props_.index_bytes = index_contents.size();
    WriteRawBlock(index_contents, &index_handle);
  }

  // Footer.
  if (status_.ok()) {
    Footer footer;
    footer.set_metaindex_handle(metaindex_handle);
    footer.set_index_handle(index_handle);
    std::string footer_encoding;
    footer.EncodeTo(&footer_encoding);
    status_ = file_->Append(Slice(footer_encoding));
    if (status_.ok()) {
      offset_ += footer_encoding.size();
    }
  }
  if (status_.ok()) {
    status_ = file_->Sync();
  }
  return status_;
}

void SSTableBuilder::Abandon() {
  assert(!closed_);
  closed_ = true;
}

}  // namespace lsmlab
