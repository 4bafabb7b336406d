#ifndef LSMLAB_OBS_STATS_REGISTRY_H_
#define LSMLAB_OBS_STATS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "obs/perf_context.h"
#include "obs/tickers.h"
#include "util/histogram.h"
#include "util/mutex.h"

/// Latency distributions kept alongside the tickers, declared once like
/// LSMLAB_TICKERS. X-macro row format: X(enumerator, "dump_name")
#define LSMLAB_PHASE_HISTOGRAMS(X)                                      \
  X(kGetMicros, "get_micros")                                           \
  X(kMultiGetMicros, "multiget_micros") /* whole batch, not per key */  \
  X(kWriteMicros, "write_micros")                                       \
  /* Writers per commit group (a count, not micros). */                 \
  X(kWriteGroupSize, "write_group_size")                                \
  /* Group apply phase, WAL I/O excluded (both apply paths). */         \
  X(kMemtableApplyMicros, "memtable_apply_micros")                      \
  X(kFlushMicros, "flush_micros")                                       \
  X(kCompactionMicros, "compaction_micros")

namespace lsmlab {

enum class PhaseHistogram : uint32_t {
#define LSMLAB_HISTOGRAM_ENUM(enumerator, name) enumerator,
  LSMLAB_PHASE_HISTOGRAMS(LSMLAB_HISTOGRAM_ENUM)
#undef LSMLAB_HISTOGRAM_ENUM
  kNumHistograms,  // sentinel; keep last
};

/// DB-wide registry of named atomic counters plus per-phase latency
/// histograms. One per DBImpl; safe for concurrent use from foreground and
/// background threads (tickers are relaxed atomics, histograms take a
/// private mutex). PerfContext measures one operation on one thread; the
/// registry is where those deltas accumulate into the process-lifetime view
/// that GetProperty("lsmlab.stats") reports.
class StatsRegistry {
 public:
  /// One value per ticker, indexed by Ticker.
  using TickerValues = std::array<uint64_t, kNumTickers>;

  StatsRegistry() {
    for (auto& t : tickers_) {
      t.store(0, std::memory_order_relaxed);
    }
  }

  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  void Add(Ticker ticker, uint64_t n = 1) {
    tickers_[static_cast<size_t>(ticker)].fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Get(Ticker ticker) const {
    return tickers_[static_cast<size_t>(ticker)].load(
        std::memory_order_relaxed);
  }

  /// Every ticker's current value.
  TickerValues GetTickers() const;

  void Record(PhaseHistogram h, double micros) {
    MutexLock lock(&hist_mu_);
    histograms_[static_cast<size_t>(h)].Add(micros);
  }

  /// Copy of one histogram, consistent at the moment of the call.
  Histogram GetHistogram(PhaseHistogram h) const {
    MutexLock lock(&hist_mu_);
    return histograms_[static_cast<size_t>(h)];
  }

  /// Folds one operation's PerfContext delta into the per-subsystem
  /// tickers. Call once per instrumented operation with
  /// `after.Delta(before)`.
  void MergePerfDelta(const PerfContext& delta);

  /// Full structured dump: DumpTickers(GetTickers()) + DumpHistograms("").
  std::string Dump() const;

  /// One "ticker.<name>=<value>" line per ticker, in list order.
  static std::string DumpTickers(const TickerValues& values);

  /// One "<prefix>histogram.<name>: ..." summary line per phase histogram.
  std::string DumpHistograms(const std::string& prefix) const;

 private:
  std::array<std::atomic<uint64_t>, kNumTickers> tickers_;
  mutable Mutex hist_mu_{LockRank::kStatsHistMu};
  std::array<Histogram,
             static_cast<size_t>(PhaseHistogram::kNumHistograms)>
      histograms_ GUARDED_BY(hist_mu_);
};

}  // namespace lsmlab

#endif  // LSMLAB_OBS_STATS_REGISTRY_H_
