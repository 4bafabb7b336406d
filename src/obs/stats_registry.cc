#include "obs/stats_registry.h"

#include <utility>

namespace lsmlab {

namespace {

/// The per-subsystem tickers fed by PerfContext deltas: each PerfContext
/// field on the left is added to the ticker on the right.
constexpr std::pair<uint64_t PerfContext::*, Ticker> kPerfTickers[] = {
    {&PerfContext::multiget_keys, Ticker::kMultiGetKeys},
    {&PerfContext::multiget_filter_pruned, Ticker::kMultiGetFilterPruned},
    {&PerfContext::multiget_coalesced_block_hits,
     Ticker::kMultiGetCoalescedBlockHits},
    {&PerfContext::block_read_count, Ticker::kBlockReads},
    {&PerfContext::block_read_bytes, Ticker::kBlockReadBytes},
    {&PerfContext::block_cache_hit_count, Ticker::kBlockCacheHits},
    {&PerfContext::block_cache_miss_count, Ticker::kBlockCacheMisses},
    {&PerfContext::filter_probe_count, Ticker::kFilterProbes},
    {&PerfContext::filter_negative_count, Ticker::kFilterNegatives},
    {&PerfContext::index_seek_count, Ticker::kIndexSeeks},
    {&PerfContext::learned_index_seek_count, Ticker::kLearnedIndexSeeks},
    {&PerfContext::hash_index_hit_count, Ticker::kHashIndexHits},
    {&PerfContext::hash_index_absent_count, Ticker::kHashIndexAbsent},
    {&PerfContext::merge_iter_seek_count, Ticker::kMergeIterSeeks},
    {&PerfContext::merge_iter_step_count, Ticker::kMergeIterSteps},
    {&PerfContext::wal_append_count, Ticker::kWalAppends},
    {&PerfContext::wal_sync_count, Ticker::kWalSyncs},
    {&PerfContext::memtable_insert_cas_retries,
     Ticker::kMemtableInsertCasRetries},
};

constexpr const char* kHistogramNames[] = {
#define LSMLAB_HISTOGRAM_NAME(enumerator, name) name,
    LSMLAB_PHASE_HISTOGRAMS(LSMLAB_HISTOGRAM_NAME)
#undef LSMLAB_HISTOGRAM_NAME
};

}  // namespace

StatsRegistry::TickerValues StatsRegistry::GetTickers() const {
  TickerValues values;
  for (size_t i = 0; i < kNumTickers; i++) {
    values[i] = tickers_[i].load(std::memory_order_relaxed);
  }
  return values;
}

void StatsRegistry::MergePerfDelta(const PerfContext& delta) {
  for (const auto& [field, ticker] : kPerfTickers) {
    if (delta.*field != 0) {
      Add(ticker, delta.*field);
    }
  }
}

std::string StatsRegistry::Dump() const {
  return DumpTickers(GetTickers()) + DumpHistograms("");
}

std::string StatsRegistry::DumpTickers(const TickerValues& values) {
  std::string out;
  for (size_t i = 0; i < kNumTickers; i++) {
    out.append("ticker.");
    out.append(kTickerNames[i]);
    out.push_back('=');
    out.append(std::to_string(values[i]));
    out.push_back('\n');
  }
  return out;
}

std::string StatsRegistry::DumpHistograms(const std::string& prefix) const {
  std::string out;
  for (uint32_t i = 0;
       i < static_cast<uint32_t>(PhaseHistogram::kNumHistograms); i++) {
    out.append(prefix);
    out.append("histogram.");
    out.append(kHistogramNames[i]);
    out.append(": ");
    out.append(GetHistogram(static_cast<PhaseHistogram>(i)).ToString());
    out.push_back('\n');
  }
  return out;
}

}  // namespace lsmlab
