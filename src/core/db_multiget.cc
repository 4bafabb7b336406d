/// DB::Get and DB::MultiGet — the one point-lookup path.
///
/// Get is a lookup of one key and MultiGet of a batch; both run
/// DBImpl::LookupKeys over one pinned read view (memtables, version,
/// sequence) with the keys sorted by user key. The core probes the
/// memtables for every key, then walks the runs newest-first. Because the
/// keys are sorted, the unresolved keys one file covers are adjacent, so
/// each file is probed once per run with a subspan of the batch: the
/// file's monolithic filter is consulted per key before any data-block
/// I/O, then SSTable::MultiGet fetches every distinct data block at most
/// once no matter how many keys land in it.
/// Separated values resolve through one ValueLog::GetBatch sorted by
/// (file, offset).
///
/// Lock discipline: mu_ is held only for the pin; all lookup I/O runs
/// unlocked against immutable state (the pinned version and its files).
/// Per-key statuses observe the corruption contract — a corrupt block or
/// value-log record fails only the keys it serves.

#include <algorithm>
#include <cassert>
#include <vector>

#include "core/db_impl.h"
#include "obs/perf_context.h"
#include "util/hash.h"

namespace lsmlab {

/// One key's state across a lookup. ctx's Slices point into lkey; the core
/// binds them once the states sit still in the span it was given.
struct DBImpl::LookupState {
  LookupState(const Slice& user_key, SequenceNumber sequence,
              std::string* value_slot, Status* status_slot)
      : lkey(user_key, sequence), value(value_slot), status(status_slot) {}

  LookupKey lkey;
  BatchGetContext ctx;
  const Comparator* ucmp = nullptr;
  std::string* value;  // caller's slot: the raw stored value, then resolved
  Status* status;      // caller's slot: the key's final answer
  // kFailed: an I/O or corruption error, already in *status, is the answer.
  enum : uint8_t { kNotFound, kFound, kDeleted, kFailed } state = kNotFound;
  std::string stored;  // a separated value's pointer while it resolves

  /// BatchGetContext handler: a plain function pointer, `arg` is the state.
  static void Save(void* arg, const Slice& ikey, const Slice& v) {
    auto* ks = static_cast<LookupState*>(arg);
    if (ks->state != kNotFound) {
      return;  // already answered by a newer run
    }
    if (ks->ucmp->Compare(ExtractUserKey(ikey), ks->ctx.searchable) != 0) {
      return;  // seek overshot into the next user key: not present here
    }
    if (ExtractValueType(ikey) == ValueType::kTypeDeletion) {
      ks->state = kDeleted;
    } else {
      ks->value->assign(v.data(), v.size());
      ks->state = kFound;
    }
  }
};

Status DBImpl::Get(const ReadOptions& options, const Slice& key,
                   std::string* value) {
  // Measure the lookup with thread-local counters, then fold the delta
  // into the DB-wide registry — one snapshot/subtract per operation, no
  // atomics on the per-probe hot path.
  PerfContext* perf = GetPerfContext();
  const PerfContext before = *perf;
  Status s;
  {
    PerfTimer timer(&perf->get_micros);
    stats_.Add(Ticker::kGets);
    const ReadView view = PinReadView(options);
    LookupState state(key, view.sequence, value, &s);
    BatchGetContext* pending[1];
    LookupKeys(options, view, std::span<LookupState>(&state, 1), pending);
    if (state.state == LookupState::kFound) {
      stats_.Add(Ticker::kGetsFound);
    }
  }
  stats_.Record(PhaseHistogram::kGetMicros,
                static_cast<double>(perf->get_micros - before.get_micros));
  stats_.MergePerfDelta(perf->Delta(before));
  return s;
}

void DBImpl::MultiGet(const ReadOptions& options, std::span<const Slice> keys,
                      std::vector<std::string>* values,
                      std::vector<Status>* statuses) {
  PerfContext* perf = GetPerfContext();
  const PerfContext before = *perf;
  {
    PerfTimer timer(&perf->multiget_micros);
    values->clear();
    values->resize(keys.size());
    statuses->assign(keys.size(), Status::OK());
    stats_.Add(Ticker::kMultiGets);
    if (!keys.empty()) {
      perf->multiget_keys += keys.size();
      // One consistent view for the whole batch: every key resolves at the
      // same sequence against the same memtables and tree shape,
      // regardless of concurrent writes and flushes.
      const ReadView view = PinReadView(options);
      std::vector<LookupState> states;
      states.reserve(keys.size());
      for (size_t i = 0; i < keys.size(); i++) {
        states.emplace_back(keys[i], view.sequence, &(*values)[i],
                            &(*statuses)[i]);
      }
      const Comparator* ucmp = icmp_.user_comparator();
      std::stable_sort(states.begin(), states.end(),
                       [ucmp](const LookupState& a, const LookupState& b) {
                         return ucmp->Compare(a.lkey.user_key(),
                                              b.lkey.user_key()) < 0;
                       });
      std::vector<BatchGetContext*> pending(states.size());
      perf->multiget_filter_pruned +=
          LookupKeys(options, view, states, pending);
    }
  }
  stats_.Record(
      PhaseHistogram::kMultiGetMicros,
      static_cast<double>(perf->multiget_micros - before.multiget_micros));
  stats_.MergePerfDelta(perf->Delta(before));
}

size_t DBImpl::LookupKeys(const ReadOptions& options, const ReadView& view,
                          std::span<LookupState> keys,
                          std::span<BatchGetContext*> pending) {
  const Comparator* ucmp = icmp_.user_comparator();

  // pending holds the unresolved keys, in user-key order, compacted to the
  // front after every run.
  assert(pending.size() >= keys.size());
  size_t num_pending = 0;

  // Phase 1: newest data first — the live memtable, then the frozen one.
  uint64_t memtable_hits = 0;
  for (LookupState& ks : keys) {
    Status mem_status;
    if (view.mem->Get(ks.lkey, ks.value, &mem_status) ||
        (view.imm != nullptr &&
         view.imm->Get(ks.lkey, ks.value, &mem_status))) {
      memtable_hits++;
      ks.state = mem_status.ok() ? LookupState::kFound : LookupState::kDeleted;
      continue;
    }
    ks.ucmp = ucmp;
    ks.ctx.target = ks.lkey.internal_key();
    ks.ctx.searchable = ks.lkey.user_key();
    // Hash each user key once; every filter probe and in-block hash index
    // across every run reuses it (shared hashing, tutorial §II-2 [95]).
    ks.ctx.hash = Hash64(ks.ctx.searchable);
    ks.ctx.handler = &LookupState::Save;
    ks.ctx.arg = &ks;
    pending[num_pending++] = &ks.ctx;
  }
  view.mem->Unref();
  if (view.imm != nullptr) {
    view.imm->Unref();
  }
  if (memtable_hits > 0) {
    stats_.Add(Ticker::kMemtableHits, memtable_hits);
    GetPerfContext()->memtable_hit_count += memtable_hits;
  }

  // Phase 2: the tree, newest run first. The keys a file covers are
  // adjacent, so each file gets one probe with a subspan of the pending
  // keys; after each run, keys that got an answer (or a confined error)
  // leave the pending set and the batch narrows as it descends.
  uint64_t runs_probed = 0;
  uint64_t filter_skips = 0;
  const Version& version = *view.version;
  for (int level = 0; level < version.num_levels() && num_pending > 0;
       level++) {
    for (const Run& run : version.levels()[level].runs) {
      if (num_pending == 0) {
        break;
      }
      for (size_t i = 0; i < num_pending;) {
        const FileMetaPtr* file =
            FindFileInRun(run, ucmp, pending[i]->searchable);
        if (file == nullptr) {
          i++;  // the run's key space does not cover this key
          continue;
        }
        // The file covers [this key, its largest user key].
        const Slice largest = ExtractUserKey(Slice((*file)->largest));
        size_t end = i + 1;
        while (end < num_pending &&
               ucmp->Compare(pending[end]->searchable, largest) <= 0) {
          end++;
        }
        const std::span<BatchGetContext* const> group =
            pending.subspan(i, end - i);
        // A file whose reader cannot be opened fails every key of the
        // group: they all needed it. Otherwise each key first probes the
        // monolithic filter, before any index seek or data-block I/O.
        const SSTable* table = nullptr;
        const Status opened = (*file)->Table(&table);
        bool any_survivor = false;
        for (BatchGetContext* ctx : group) {
          ctx->status = opened;
          ctx->filter_pruned =
              opened.ok() && options.use_filter &&
              !table->KeyMayMatch(ctx->searchable, ctx->hash);
          any_survivor |= opened.ok() && !ctx->filter_pruned;
        }
        if (any_survivor) {
          table->MultiGet(group, options.use_filter);
        }
        for (BatchGetContext* ctx : group) {
          auto* ks = static_cast<LookupState*>(ctx->arg);
          if (ctx->filter_pruned) {
            filter_skips++;
            continue;
          }
          if (!ctx->status.ok()) {
            // Confined failure: the error is this key's final answer; the
            // rest of the batch keeps probing.
            *ks->status = ctx->status;
            ks->state = LookupState::kFailed;
            continue;
          }
          runs_probed++;
          if (ks->state == LookupState::kNotFound) {
            // The probe paid an I/O and found nothing: read-trigger signal.
            const uint64_t wasted = (*file)->wasted_probes.fetch_add(
                                        1, std::memory_order_relaxed) +
                                    1;
            if (options_.seek_compaction_threshold > 0 &&
                wasted >= options_.seek_compaction_threshold) {
              pending_seek_compaction_.store(true, std::memory_order_relaxed);
            }
          }
        }
        i = end;
      }
      size_t kept = 0;
      for (size_t i = 0; i < num_pending; i++) {
        const auto* ks = static_cast<const LookupState*>(pending[i]->arg);
        if (ks->state == LookupState::kNotFound) {
          pending[kept++] = pending[i];
        }
      }
      num_pending = kept;
    }
  }
  if (runs_probed > 0) {
    stats_.Add(Ticker::kRunsProbed, runs_probed);
  }
  if (filter_skips > 0) {
    stats_.Add(Ticker::kFilterSkips, filter_skips);
  }

  // Phase 3: per-key outcomes. Separated values are collected and resolved
  // in one (file, offset)-sorted pass over the value log.
  std::vector<ValueLog::BatchRead> vlog_reads;
  for (LookupState& ks : keys) {
    if (ks.state == LookupState::kFailed) {
      continue;  // the confined error is already in the slot
    }
    if (ks.state != LookupState::kFound) {
      *ks.status = Status::NotFound("");
      continue;
    }
    *ks.status = Status::OK();
    if (vlog_ == nullptr) {
      continue;  // the slot already holds the value
    }
    ks.stored = std::move(*ks.value);
    Slice pointer;
    *ks.status = UnwrapValue(Slice(ks.stored), ks.value, &pointer);
    if (!pointer.empty()) {
      stats_.Add(Ticker::kSeparatedReads);
      vlog_reads.push_back(ValueLog::BatchRead{pointer, ks.value, ks.status});
    }
  }
  if (!vlog_reads.empty()) {
    vlog_->GetBatch(&vlog_reads);
  }
  return filter_skips;
}

}  // namespace lsmlab
