#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

using lsmlab::Slice;
using lsmlab::Status;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanType : uint8_t {
  kOp,
  kFlush,
  kCompaction,
  kEnvRead,
  kEnvWrite,
  kEnvSync,
};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint32_t thread = 0;
  SpanType type = SpanType::kOp;
  uint8_t detail = 0;  // OpClass for ops, FileKind for Env calls
  int64_t start = 0;
  int64_t end = 0;
};

// Storage counters written only by the owning thread (relaxed load+store,
// no read-modify-write) and readable from any thread at any time.
struct AtomicStorage {
  std::atomic<uint64_t> v[9] = {};

  void Add(int field, uint64_t n) {
    v[field].store(v[field].load(std::memory_order_relaxed) + n,
                   std::memory_order_relaxed);
  }
};
enum StorageField {
  kReads,
  kEmptyReads,
  kReadBytes,
  kReadNs,
  kAppends,
  kAppendBytes,
  kWriteNs,
  kSyncs,
  kSyncNs,
};

constexpr size_t kMaxPending = size_t{1} << 16;
constexpr int64_t kSpanCap = 1 << 18;

struct ThreadState {
  uint32_t thread_id = 0;

  // Open root span.
  bool in_op = false;
  OpClass op = OpClass::kGetFound;
  uint64_t op_id = 0;
  int64_t op_start = 0;
  uint64_t compares_at_start = 0;
  OpAggregate cur;
  // Child spans of the open root span; on a thread with no root span, Env
  // calls waiting for a job end event to claim them.
  std::vector<Span> open_children;

  std::vector<Span> spans;
  AtomicStorage storage[static_cast<size_t>(FileKind::kNum)];
  std::atomic<uint64_t> filter_probes{0};
  OpAggregate ops[static_cast<size_t>(OpClass::kNum)];
  uint64_t unattributed = 0;
  uint64_t violations = 0;
};

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<int64_t> g_span_budget{kSpanCap};
std::atomic<uint64_t> g_spans_dropped{0};
struct JobAtomics {
  std::atomic<uint64_t> flushes{0};
  std::atomic<uint64_t> flush_micros{0};
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> compaction_micros{0};
  std::atomic<uint64_t> compaction_bytes{0};
} g_jobs;

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadState>> g_threads;

thread_local ThreadState* t_state = nullptr;
thread_local uint64_t t_compares = 0;

ThreadState* State() {
  if (t_state == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_threads.push_back(std::make_unique<ThreadState>());
    t_state = g_threads.back().get();
    t_state->thread_id = static_cast<uint32_t>(g_threads.size());
  }
  return t_state;
}

bool TakeSpanBudget() {
  if (g_span_budget.fetch_sub(1, std::memory_order_relaxed) > 0) {
    return true;
  }
  g_spans_dropped.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void FinishSpan(ThreadState* st, Span span) {
  if (TakeSpanBudget()) {
    st->spans.push_back(span);
  }
}

// Moves pending background children that no job claimed out of the way.
void ReleaseUnattributed(ThreadState* st, size_t keep) {
  if (st->open_children.size() <= keep) {
    return;
  }
  const size_t n = st->open_children.size() - keep;
  for (size_t i = 0; i < n; i++) {
    st->unattributed++;
    FinishSpan(st, st->open_children[i]);
  }
  st->open_children.erase(st->open_children.begin(),
                          st->open_children.begin() + n);
}

void RecordEnvCall(FileKind kind, SpanType type, int64_t start, int64_t end,
                   uint64_t bytes, bool empty_read) {
  ThreadState* st = State();
  const uint64_t d = static_cast<uint64_t>(end - start);
  AtomicStorage& c = st->storage[static_cast<size_t>(kind)];
  switch (type) {
    case SpanType::kEnvRead:
      c.Add(empty_read ? kEmptyReads : kReads, 1);
      c.Add(kReadBytes, bytes);
      c.Add(kReadNs, d);
      break;
    case SpanType::kEnvWrite:
      if (bytes > 0) {
        c.Add(kAppends, 1);
        c.Add(kAppendBytes, bytes);
      }
      c.Add(kWriteNs, d);
      break;
    default:
      c.Add(kSyncs, 1);
      c.Add(kSyncNs, d);
      break;
  }
  if (st->in_op) {
    st->cur.storage_ns += d;
    if (kind == FileKind::kSst && type == SpanType::kEnvRead && !empty_read) {
      st->cur.sst_reads++;
      st->cur.sst_read_ns += d;
    }
  }
  if (!g_tracing.load(std::memory_order_relaxed)) {
    return;
  }
  Span span;
  span.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span.thread = st->thread_id;
  span.type = type;
  span.detail = static_cast<uint8_t>(kind);
  span.start = start;
  span.end = end;
  st->open_children.push_back(span);
  if (!st->in_op && st->open_children.size() > kMaxPending) {
    ReleaseUnattributed(st, kMaxPending / 2);
  }
}

void RecordJob(SpanType type, uint64_t micros, uint64_t bytes) {
  const bool flush = type == SpanType::kFlush;
  if (flush) {
    g_jobs.flushes.fetch_add(1, std::memory_order_relaxed);
    g_jobs.flush_micros.fetch_add(micros, std::memory_order_relaxed);
  } else {
    g_jobs.compactions.fetch_add(1, std::memory_order_relaxed);
    g_jobs.compaction_micros.fetch_add(micros, std::memory_order_relaxed);
    g_jobs.compaction_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  if (!g_tracing.load(std::memory_order_relaxed)) {
    return;
  }
  ThreadState* st = State();
  Span job;
  job.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  job.parent = st->in_op ? st->op_id : 0;
  job.thread = st->thread_id;
  job.type = type;
  job.end = NowNs();
  job.start = job.end - static_cast<int64_t>(micros) * 1000;
  // Inside an op (inline flush/compaction) the job claims the op's Env
  // calls that fall in its interval. Outside one (the background worker,
  // which fires each step's events right after the step) every Env call
  // since the previous event belongs to this job; `micros` excludes the
  // manifest install, so widen the span to cover them.
  if (!st->in_op && !st->open_children.empty()) {
    job.start = std::min(job.start, st->open_children.front().start);
  }
  int64_t covered = 0;
  auto first = std::stable_partition(
      st->open_children.begin(), st->open_children.end(),
      [&](const Span& s) { return s.start < job.start; });
  for (auto it = first; it != st->open_children.end(); ++it) {
    it->parent = job.id;
    covered += it->end - it->start;
    FinishSpan(st, *it);
  }
  st->open_children.erase(first, st->open_children.end());
  if (covered > job.end - job.start) {
    st->violations++;
  }
  FinishSpan(st, job);
}

class TracingRandomAccessFile : public lsmlab::RandomAccessFile {
 public:
  TracingRandomAccessFile(std::unique_ptr<lsmlab::RandomAccessFile> inner,
                          FileKind kind)
      : inner_(std::move(inner)), kind_(kind) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    const int64_t start = NowNs();
    Status s = inner_->Read(offset, n, result, scratch);
    const uint64_t got = s.ok() ? result->size() : 0;
    RecordEnvCall(kind_, SpanType::kEnvRead, start, NowNs(), got, got == 0);
    return s;
  }

  uint64_t Size() const override { return inner_->Size(); }

 private:
  std::unique_ptr<lsmlab::RandomAccessFile> inner_;
  FileKind kind_;
};

class TracingWritableFile : public lsmlab::WritableFile {
 public:
  TracingWritableFile(std::unique_ptr<lsmlab::WritableFile> inner,
                      FileKind kind)
      : inner_(std::move(inner)), kind_(kind) {}

  Status Append(const Slice& data) override {
    return Timed(SpanType::kEnvWrite, data.size(),
                 [&] { return inner_->Append(data); });
  }
  Status Flush() override {
    return Timed(SpanType::kEnvWrite, 0, [&] { return inner_->Flush(); });
  }
  Status Sync() override {
    return Timed(SpanType::kEnvSync, 0, [&] { return inner_->Sync(); });
  }
  Status Close() override {
    return Timed(SpanType::kEnvWrite, 0, [&] { return inner_->Close(); });
  }

 private:
  template <typename F>
  Status Timed(SpanType type, uint64_t bytes, F&& call) {
    const int64_t start = NowNs();
    Status s = call();
    RecordEnvCall(kind_, type, start, NowNs(), s.ok() ? bytes : 0, false);
    return s;
  }

  std::unique_ptr<lsmlab::WritableFile> inner_;
  FileKind kind_;
};

class TracingSequentialFile : public lsmlab::SequentialFile {
 public:
  TracingSequentialFile(std::unique_ptr<lsmlab::SequentialFile> inner,
                        FileKind kind)
      : inner_(std::move(inner)), kind_(kind) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    const int64_t start = NowNs();
    Status s = inner_->Read(n, result, scratch);
    const uint64_t got = s.ok() ? result->size() : 0;
    RecordEnvCall(kind_, SpanType::kEnvRead, start, NowNs(), got, got == 0);
    return s;
  }
  Status Skip(uint64_t n) override { return inner_->Skip(n); }

 private:
  std::unique_ptr<lsmlab::SequentialFile> inner_;
  FileKind kind_;
};

FileKind KindOf(const std::string& fname) {
  auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return fname.size() >= s.size() &&
           fname.compare(fname.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with(".sst")) return FileKind::kSst;
  if (ends_with(".wal")) return FileKind::kWal;
  if (fname.find("MANIFEST-") != std::string::npos) return FileKind::kManifest;
  return FileKind::kOther;
}

class TracingEnv : public lsmlab::Env {
 public:
  explicit TracingEnv(lsmlab::Env* base) : base_(base) {}

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<lsmlab::RandomAccessFile>* result) override {
    std::unique_ptr<lsmlab::RandomAccessFile> inner;
    Status s = base_->NewRandomAccessFile(fname, &inner);
    if (s.ok()) {
      *result = std::make_unique<TracingRandomAccessFile>(std::move(inner),
                                                          KindOf(fname));
    }
    return s;
  }
  Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<lsmlab::WritableFile>* result) override {
    std::unique_ptr<lsmlab::WritableFile> inner;
    Status s = base_->NewWritableFile(fname, &inner);
    if (s.ok()) {
      *result = std::make_unique<TracingWritableFile>(std::move(inner),
                                                      KindOf(fname));
    }
    return s;
  }
  Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<lsmlab::SequentialFile>* result) override {
    std::unique_ptr<lsmlab::SequentialFile> inner;
    Status s = base_->NewSequentialFile(fname, &inner);
    if (s.ok()) {
      *result = std::make_unique<TracingSequentialFile>(std::move(inner),
                                                        KindOf(fname));
    }
    return s;
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

 private:
  lsmlab::Env* base_;
};

// Forwards everything, including the name persisted in table footers and
// both separator hooks, so tables written with or without it agree.
class TracingComparatorImpl : public lsmlab::Comparator {
 public:
  int Compare(const Slice& a, const Slice& b) const override {
    t_compares++;
    return inner_->Compare(a, b);
  }
  const char* Name() const override { return inner_->Name(); }
  void FindShortestSeparator(std::string* start,
                             const Slice& limit) const override {
    inner_->FindShortestSeparator(start, limit);
  }
  void FindShortSuccessor(std::string* key) const override {
    inner_->FindShortSuccessor(key);
  }

 private:
  const lsmlab::Comparator* inner_ = lsmlab::BytewiseComparator();
};

void RecordProbe(int64_t start, int64_t end, bool positive) {
  ThreadState* st = State();
  st->filter_probes.store(
      st->filter_probes.load(std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  if (st->in_op) {
    st->cur.filter_ns += static_cast<uint64_t>(end - start);
    st->cur.filter_probes++;
    st->cur.filter_positives += positive ? 1 : 0;
  }
}

// Must forward Name (persisted per table), SupportsHashProbe and
// HashMayMatch: without them the engine would treat the filter as foreign
// or fall back to the rehashing probe path.
class TracingFilterPolicy : public lsmlab::FilterPolicy {
 public:
  explicit TracingFilterPolicy(const lsmlab::FilterPolicy* inner)
      : inner_(inner) {}

  const char* Name() const override { return inner_->Name(); }
  void CreateFilter(const Slice* keys, size_t n,
                    std::string* dst) const override {
    inner_->CreateFilter(keys, n, dst);
  }
  bool KeyMayMatch(const Slice& key, const Slice& filter) const override {
    const int64_t start = NowNs();
    const bool r = inner_->KeyMayMatch(key, filter);
    RecordProbe(start, NowNs(), r);
    return r;
  }
  bool HashMayMatch(uint64_t hash, const Slice& filter) const override {
    const int64_t start = NowNs();
    const bool r = inner_->HashMayMatch(hash, filter);
    RecordProbe(start, NowNs(), r);
    return r;
  }
  bool SupportsHashProbe() const override {
    return inner_->SupportsHashProbe();
  }

 private:
  std::unique_ptr<const lsmlab::FilterPolicy> inner_;
};

class TracingListener : public lsmlab::EventListener {
 public:
  void OnFlushEnd(const lsmlab::FlushJobInfo& info) override {
    RecordJob(SpanType::kFlush, info.micros, info.bytes_written);
  }
  void OnCompactionEnd(const lsmlab::CompactionJobInfo& info) override {
    RecordJob(SpanType::kCompaction, info.micros, info.bytes_written);
  }
};

const char* SpanName(const Span& s) {
  switch (s.type) {
    case SpanType::kOp:
      return OpClassName(static_cast<OpClass>(s.detail));
    case SpanType::kFlush:
      return "flush";
    case SpanType::kCompaction:
      return "compaction";
    case SpanType::kEnvRead:
      return "env.read";
    case SpanType::kEnvWrite:
      return "env.write";
    case SpanType::kEnvSync:
      return "env.sync";
  }
  return "?";
}

}  // namespace

const char* FileKindName(FileKind kind) {
  switch (kind) {
    case FileKind::kSst:
      return "sst";
    case FileKind::kWal:
      return "wal";
    case FileKind::kManifest:
      return "manifest";
    default:
      return "other";
  }
}

const char* OpClassName(OpClass op) {
  switch (op) {
    case OpClass::kGetFound:
      return "get_found";
    case OpClass::kGetMissing:
      return "get_missing";
    case OpClass::kPut:
      return "put";
    case OpClass::kScan:
      return "scan";
    default:
      return "load";
  }
}

void OpAggregate::Add(const OpAggregate& o) {
  count += o.count;
  dur_ns += o.dur_ns;
  self_ns += o.self_ns;
  storage_ns += o.storage_ns;
  sst_reads += o.sst_reads;
  sst_read_ns += o.sst_read_ns;
  filter_ns += o.filter_ns;
  filter_probes += o.filter_probes;
  filter_positives += o.filter_positives;
  compares += o.compares;
}

StorageCounters TraceCounters::AllStorage() const {
  StorageCounters all;
  for (const StorageCounters& c : storage) {
    all.reads += c.reads;
    all.empty_reads += c.empty_reads;
    all.read_bytes += c.read_bytes;
    all.read_ns += c.read_ns;
    all.appends += c.appends;
    all.append_bytes += c.append_bytes;
    all.write_ns += c.write_ns;
    all.syncs += c.syncs;
    all.sync_ns += c.sync_ns;
  }
  return all;
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

void ResetTrace() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (auto& st : g_threads) {
    const uint32_t id = st->thread_id;
    st->spans.clear();
    st->open_children.clear();
    for (auto& c : st->storage) {
      for (auto& f : c.v) f.store(0, std::memory_order_relaxed);
    }
    st->filter_probes.store(0, std::memory_order_relaxed);
    for (auto& a : st->ops) a = OpAggregate();
    st->unattributed = 0;
    st->violations = 0;
    st->thread_id = id;
  }
  for (auto* j : {&g_jobs.flushes, &g_jobs.flush_micros, &g_jobs.compactions,
                  &g_jobs.compaction_micros, &g_jobs.compaction_bytes}) {
    j->store(0, std::memory_order_relaxed);
  }
  g_span_budget.store(kSpanCap, std::memory_order_relaxed);
  g_spans_dropped.store(0, std::memory_order_relaxed);
}

TraceCounters ReadCounters() {
  TraceCounters t;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (auto& st : g_threads) {
    for (size_t k = 0; k < static_cast<size_t>(FileKind::kNum); k++) {
      const auto& v = st->storage[k].v;
      auto get = [&](int f) { return v[f].load(std::memory_order_relaxed); };
      StorageCounters& c = t.storage[k];
      c.reads += get(kReads);
      c.empty_reads += get(kEmptyReads);
      c.read_bytes += get(kReadBytes);
      c.read_ns += get(kReadNs);
      c.appends += get(kAppends);
      c.append_bytes += get(kAppendBytes);
      c.write_ns += get(kWriteNs);
      c.syncs += get(kSyncs);
      c.sync_ns += get(kSyncNs);
    }
    t.filter_probes += st->filter_probes.load(std::memory_order_relaxed);
  }
  t.jobs.flushes = g_jobs.flushes.load(std::memory_order_relaxed);
  t.jobs.flush_micros = g_jobs.flush_micros.load(std::memory_order_relaxed);
  t.jobs.compactions = g_jobs.compactions.load(std::memory_order_relaxed);
  t.jobs.compaction_micros =
      g_jobs.compaction_micros.load(std::memory_order_relaxed);
  t.jobs.compaction_bytes =
      g_jobs.compaction_bytes.load(std::memory_order_relaxed);
  return t;
}

TraceTotals CollectTrace() {
  TraceTotals t;
  static_cast<TraceCounters&>(t) = ReadCounters();
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (auto& st : g_threads) {
    for (size_t k = 0; k < static_cast<size_t>(OpClass::kNum); k++) {
      t.ops[k].Add(st->ops[k]);
    }
    t.spans_recorded += st->spans.size();
    // Env calls still waiting for a job when the thread went idle.
    t.unattributed_env_calls +=
        st->unattributed + (st->in_op ? 0 : st->open_children.size());
    t.coverage_violations += st->violations;
  }
  t.spans_dropped = g_spans_dropped.load(std::memory_order_relaxed);
  return t;
}

bool WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "id\tparent\tthread\tname\tfile\tstart_ns\tend_ns\n");
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (auto& st : g_threads) {
    for (const Span& s : st->spans) {
      const bool env = s.type == SpanType::kEnvRead ||
                       s.type == SpanType::kEnvWrite ||
                       s.type == SpanType::kEnvSync;
      std::fprintf(f, "%llu\t%llu\t%u\t%s\t%s\t%lld\t%lld\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.thread,
                   SpanName(s),
                   env ? FileKindName(static_cast<FileKind>(s.detail)) : "-",
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    }
  }
  return std::fclose(f) == 0;
}

OpSpan::OpSpan(OpClass op) {
  ThreadState* st = State();
  st->in_op = true;
  st->op = op;
  st->op_id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  st->cur = OpAggregate();
  st->compares_at_start = t_compares;
  // Anything still pending here predates the op and belongs to no job.
  ReleaseUnattributed(st, 0);
  st->op_start = NowNs();
}

OpSpan::~OpSpan() {
  const int64_t end = NowNs();
  ThreadState* st = State();
  OpAggregate& cur = st->cur;
  cur.count = 1;
  cur.dur_ns = static_cast<uint64_t>(end - st->op_start);
  cur.compares = t_compares - st->compares_at_start;
  // Env calls and probes on one thread never overlap, so their sum is the
  // time the children cover.
  const uint64_t covered = cur.storage_ns + cur.filter_ns;
  if (covered > cur.dur_ns) {
    st->violations++;
  }
  cur.self_ns = cur.dur_ns - std::min(covered, cur.dur_ns);
  st->ops[static_cast<size_t>(st->op)].Add(cur);
  st->in_op = false;
  if (!g_tracing.load(std::memory_order_relaxed)) {
    st->open_children.clear();
    return;
  }
  Span root;
  root.id = st->op_id;
  root.thread = st->thread_id;
  root.type = SpanType::kOp;
  root.detail = static_cast<uint8_t>(st->op);
  root.start = st->op_start;
  root.end = end;
  FinishSpan(st, root);
  for (Span& child : st->open_children) {
    child.parent = root.id;
    FinishSpan(st, child);
  }
  st->open_children.clear();
}

std::unique_ptr<lsmlab::Env> NewTracingEnv(lsmlab::Env* base) {
  return std::make_unique<TracingEnv>(base);
}

const lsmlab::Comparator* TracingComparator() {
  static const TracingComparatorImpl comparator;
  return &comparator;
}

const lsmlab::FilterPolicy* TracingBloomFactory(double bits_per_key) {
  return new TracingFilterPolicy(lsmlab::NewBloomFilterPolicy(bits_per_key));
}

std::shared_ptr<lsmlab::EventListener> NewTracingListener() {
  return std::make_shared<TracingListener>();
}

}  // namespace perfbench
