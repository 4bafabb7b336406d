#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Tracing from outside the engine. The benchmark opens one root span per
// operation; wrappers installed at the engine's public plug-in points
// (Env, FilterPolicy via Options::filter_factory, Comparator,
// EventListener) attribute the work done on the same thread to it.
//
//  - Env calls are child spans of the thread's open root span. On a thread
//    with no root span (the background worker) they wait in a per-thread
//    list until a flush/compaction end event claims the ones that fall in
//    the job's interval.
//  - The engine stages listener events and fires them after the job has
//    finished, so a job span is rebuilt from the end callback's time and
//    the job's own `micros`: [now - micros, now].
//  - Filter probes and key compares are far below a microsecond, so they
//    are counts (plus aggregate time for probes), not spans.
//
// Spans stay in memory (up to a cap) and are written out by WriteSpans.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/options.h"
#include "filter/filter_policy.h"
#include "obs/event_listener.h"
#include "storage/env.h"
#include "util/comparator.h"

namespace perfbench {

enum class FileKind : uint8_t { kSst, kWal, kManifest, kOther, kNum };
enum class OpClass : uint8_t {
  kGetFound,
  kGetMissing,
  kPut,
  kScan,
  kLoad,
  kNum
};

const char* FileKindName(FileKind kind);
const char* OpClassName(OpClass op);

/// Whole-process storage counters of the tracing Env, per file kind.
struct StorageCounters {
  uint64_t reads = 0;        ///< Read calls that returned data
  uint64_t empty_reads = 0;  ///< Read calls that returned nothing (EOF)
  uint64_t read_bytes = 0;
  uint64_t read_ns = 0;
  uint64_t appends = 0;
  uint64_t append_bytes = 0;
  uint64_t write_ns = 0;  ///< Append + Flush + Close time
  uint64_t syncs = 0;
  uint64_t sync_ns = 0;
};

/// Flush/compaction activity seen by the listener.
struct JobCounters {
  uint64_t flushes = 0;
  uint64_t flush_micros = 0;
  uint64_t compactions = 0;
  uint64_t compaction_micros = 0;
  uint64_t compaction_bytes = 0;
};

/// Aggregates over the root spans of one operation class.
struct OpAggregate {
  uint64_t count = 0;
  uint64_t dur_ns = 0;
  uint64_t self_ns = 0;     ///< duration minus storage and filter children
  uint64_t storage_ns = 0;  ///< Env child time
  uint64_t sst_reads = 0;
  uint64_t sst_read_ns = 0;
  uint64_t filter_ns = 0;
  uint64_t filter_probes = 0;
  uint64_t filter_positives = 0;
  uint64_t compares = 0;

  void Add(const OpAggregate& o);
};

/// The tracer's counters that may be read while the engine runs.
struct TraceCounters {
  StorageCounters storage[static_cast<size_t>(FileKind::kNum)];
  JobCounters jobs;
  uint64_t filter_probes = 0;  ///< all probes, inside ops or not

  StorageCounters AllStorage() const;
};

/// Everything the tracer has accumulated since the last ResetTrace.
struct TraceTotals : TraceCounters {
  OpAggregate ops[static_cast<size_t>(OpClass::kNum)];
  uint64_t spans_recorded = 0;
  uint64_t spans_dropped = 0;
  uint64_t unattributed_env_calls = 0;  ///< Env calls outside ops and jobs
  uint64_t coverage_violations = 0;     ///< spans whose children outgrew them
};

/// Turns span recording on or off (counters run whenever the wrappers
/// are installed).
void SetTracing(bool on);

/// Clears every thread's spans and aggregates. Call only while no thread
/// runs engine or benchmark code.
void ResetTrace();

/// Sums every thread's counters; safe at any time.
TraceCounters ReadCounters();

/// Sums every thread's state. Call only while no thread runs engine or
/// benchmark code.
TraceTotals CollectTrace();

/// Writes the recorded spans as TSV; returns false on I/O error.
bool WriteSpans(const std::string& path);

/// RAII root span for one benchmark operation on the calling thread.
class OpSpan {
 public:
  explicit OpSpan(OpClass op);
  ~OpSpan();

  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;
};

/// Options wrappers; see the file comment. The returned Env wraps `base`
/// (not owned); `base->io_stats()` keeps counting, because Env::io_stats()
/// is not virtual and the wrapper's own counters stay zero.
std::unique_ptr<lsmlab::Env> NewTracingEnv(lsmlab::Env* base);
const lsmlab::Comparator* TracingComparator();
/// Matches Options::filter_factory: wraps the standard Bloom policy.
const lsmlab::FilterPolicy* TracingBloomFactory(double bits_per_key);
std::shared_ptr<lsmlab::EventListener> NewTracingListener();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
