// Real-file benchmark: four closed-loop workloads against DB over
// NewPosixEnv(), every answer checked. See perfbench/README.md for the
// workloads, the metrics and what each per-layer metric should move.
//
//   perfbench --workload read_cold --seed 1 --seconds 5 --trace 0
//             --dir .bench_data/run --out-dir .bench_out
//
// The last line of stdout is one JSON object: end-to-end metrics with
// --trace 0, per-layer metrics from a separate traced session with
// --trace 1. Any wrong answer makes the exit code non-zero.

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/block_cache.h"
#include "core/db.h"
#include "dataset.h"
#include "obs/perf_context.h"
#include "storage/env.h"
#include "trace.h"
#include "workload/keygen.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using lsmlab::DB;
using lsmlab::Options;
using lsmlab::PerfContext;
using lsmlab::Status;

constexpr size_t kScanLength = 50;
constexpr size_t kLoadBatch = 1000;
constexpr int kNumClasses = static_cast<int>(OpClass::kNum);

enum class Mix { kPointReads, kReadWrite, kScans };

struct WorkloadSpec {
  const char* name;
  Mix mix;
  int clients;
  size_t cache_bytes;
  bool warm_cache;      // read the whole data set into the cache first
  bool background;      // timed phase in background flush/compaction mode
  bool deterministic;   // single client, read-only: counts must repeat
};

constexpr size_t kMiB = size_t{1} << 20;

const WorkloadSpec kWorkloads[] = {
    {"read_cold", Mix::kPointReads, 1, 4 * kMiB, false, false, true},
    {"read_hot", Mix::kPointReads, 2, 256 * kMiB, true, false, false},
    {"mixed_rw", Mix::kReadWrite, 2, 4 * kMiB, false, true, false},
    {"scan_short", Mix::kScans, 1, 4 * kMiB, false, false, true},
};

struct Config {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 5;
  bool trace = false;
  std::string dir;
  std::string out_dir = ".";
};

// Sizes; see perfbench/README.md for why these.
constexpr uint64_t kKeys = 400000;
constexpr size_t kBufferBytes = 2 * kMiB;  // write buffer and max file size
constexpr int kSetups = 3;                 // setup_s is their median
constexpr uint64_t kDeterminismOps = 20000;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    Die(std::string(what) + ": " + s.ToString());
  }
}

uint64_t OpSeed(uint64_t seed, int client) {
  SplitMix m(seed * 0x9e3779b97f4a7c15ULL + 0x6f70735eULL);
  uint64_t s = m.Next();
  for (int i = 0; i <= client; i++) s = m.Next();
  return s;
}

// ---------------------------------------------------------------------------
// The database under test and its options.

class Harness {
 public:
  Harness(const Config& cfg, lsmlab::Env* posix)
      : cfg_(cfg),
        posix_(posix),
        tracing_env_(NewTracingEnv(posix)),
        listener_(NewTracingListener()),
        data_(cfg.seed, kKeys) {}

  const Config& cfg() const { return cfg_; }
  const Dataset& data() const { return data_; }
  DB* db() { return db_.get(); }
  lsmlab::BlockCache* cache() { return cache_.get(); }
  lsmlab::IoStats* io() { return posix_->io_stats(); }

  Options MakeOptions(bool load_phase, bool traced) {
    Options o;
    o.env = traced ? tracing_env_.get() : posix_;
    o.write_buffer_size = kBufferBytes;
    o.max_file_size = kBufferBytes;
    o.merge_policy = lsmlab::MergePolicy::kLeveling;
    o.size_ratio = 10;
    o.filter_bits_per_key = 10;
    o.block_cache = cache_.get();
    if (!load_phase && cfg_.spec->background) {
      o.background_compaction = true;
      o.allow_concurrent_memtable_write = true;
    }
    if (traced) {
      o.comparator = TracingComparator();
      o.filter_factory = &TracingBloomFactory;
      o.listeners.push_back(listener_);
    }
    return o;
  }

  void Open(bool load_phase, bool traced) {
    db_.reset();
    cache_ = std::make_unique<lsmlab::BlockCache>(cfg_.spec->cache_bytes);
    std::unique_ptr<DB> db;
    Check(DB::Open(MakeOptions(load_phase, traced), cfg_.dir, &db), "open");
    db_ = std::move(db);
  }

  void Close() { db_.reset(); }

  void Destroy() {
    Close();
    Options o = MakeOptions(true, false);
    Check(lsmlab::DestroyDB(o, cfg_.dir), "destroy");
    std::error_code ec;
    std::filesystem::remove_all(cfg_.dir, ec);
  }

  // Loads the data set with batched Puts (inline flush/compaction), then
  // flushes the memtable and closes the DB.
  void Load(bool traced) {
    Destroy();
    std::filesystem::create_directories(cfg_.dir);
    Open(/*load_phase=*/true, traced);
    std::string value;
    lsmlab::WriteBatch batch;
    for (uint64_t i = 0; i < data_.num_keys(); i += kLoadBatch) {
      batch.Clear();
      const uint64_t end =
          std::min<uint64_t>(i + kLoadBatch, data_.num_keys());
      for (uint64_t k = i; k < end; k++) {
        Dataset::Value(k, 0, &value);
        batch.Put(data_.Key(k), value);
      }
      if (traced) {
        OpSpan span(OpClass::kLoad);
        Check(db_->Write(lsmlab::WriteOptions(), &batch), "load");
      } else {
        Check(db_->Write(lsmlab::WriteOptions(), &batch), "load");
      }
    }
    Check(db_->Flush(), "flush");
    Close();
  }

  // Reads every block of the data set through the block cache.
  void Warm() {
    std::unique_ptr<lsmlab::Iterator> it(
        db_->NewIterator(lsmlab::ReadOptions()));
    uint64_t n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
    Check(it->status(), "warm");
    if (n != data_.num_keys()) Die("warm-up scan saw the wrong key count");
  }

  // Copies of the loaded DB directory, so phases can start from the same
  // files.
  void SaveLoaded() {
    std::filesystem::remove_all(SnapshotDir());
    std::filesystem::copy(cfg_.dir, SnapshotDir());
  }
  void RestoreLoaded() {
    Close();
    std::filesystem::remove_all(cfg_.dir);
    std::filesystem::copy(SnapshotDir(), cfg_.dir);
  }
  void DropSnapshot() { std::filesystem::remove_all(SnapshotDir()); }

  void OpenForRun(bool traced) {
    Open(/*load_phase=*/false, traced);
    if (cfg_.spec->warm_cache) Warm();
  }

  uint64_t DirBytes() const {
    uint64_t total = 0;
    for (const auto& e : std::filesystem::directory_iterator(cfg_.dir)) {
      if (e.is_regular_file()) total += e.file_size();
    }
    return total;
  }

  std::string SnapshotDir() const { return cfg_.dir + ".loaded"; }

  std::map<std::string, uint64_t> Tickers() {
    std::map<std::string, uint64_t> out;
    std::string dump;
    if (!db_->GetProperty("lsmlab.stats", &dump)) Die("no lsmlab.stats");
    size_t pos = 0;
    while (pos < dump.size()) {
      size_t nl = dump.find('\n', pos);
      if (nl == std::string::npos) nl = dump.size();
      const std::string line = dump.substr(pos, nl - pos);
      pos = nl + 1;
      if (line.rfind("ticker.", 0) == 0) {
        const size_t eq = line.find('=');
        out[line.substr(7, eq - 7)] = std::stoull(line.substr(eq + 1));
      } else if (line.rfind("histogram.", 0) == 0) {
        // "histogram.<name>: count=.. avg=.. p50=.. ..." -> <name>.p50 (x100)
        const size_t colon = line.find(':');
        const std::string name = line.substr(10, colon - 10);
        const size_t p = line.find("p50=");
        const size_t c = line.find("count=");
        if (p != std::string::npos) {
          out[name + ".p50x100"] = static_cast<uint64_t>(
              std::llround(std::stod(line.substr(p + 4)) * 100));
        }
        if (c != std::string::npos) {
          out[name + ".count"] = std::stoull(line.substr(c + 6));
        }
      }
    }
    return out;
  }

 private:
  const Config& cfg_;
  lsmlab::Env* posix_;
  std::unique_ptr<lsmlab::Env> tracing_env_;
  std::shared_ptr<lsmlab::EventListener> listener_;
  Dataset data_;
  std::unique_ptr<lsmlab::BlockCache> cache_;
  std::unique_ptr<DB> db_;
};

// ---------------------------------------------------------------------------
// Latency recording.

// Log-bucketed histogram: exact below 128, then 128 buckets per power of
// two (under 0.8% wide). Fixed size, so recording does not grow the
// process while it is measured; percentiles interpolate inside a bucket.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(uint64_t v) {
    counts_[Index(std::min<uint64_t>(v, uint64_t{1} << 40))]++;
    count_++;
  }
  void Merge(const LatencyHistogram& o) {
    for (int i = 0; i < kBuckets; i++) counts_[i] += o.counts_[i];
    count_ += o.count_;
  }
  uint64_t count() const { return count_; }

  double Percentile(double pct) const {
    if (count_ == 0) return 0;
    const double rank = pct / 100.0 * static_cast<double>(count_);
    double below = 0;
    for (int i = 0; i < kBuckets; i++) {
      if (counts_[i] == 0) continue;
      if (below + counts_[i] > rank) {
        const double lo = Lower(i);
        const double width = Lower(i + 1) - lo;
        return lo + width * (rank - below) / counts_[i];
      }
      below += counts_[i];
    }
    return Lower(kBuckets);
  }

 private:
  static constexpr int kSub = 128;
  static constexpr int kBuckets = 35 * kSub;

  static int Index(uint64_t v) {
    if (v < 2 * kSub) return static_cast<int>(v);
    const int shift = 63 - __builtin_clzll(v) - 7;
    return (shift + 1) * kSub + static_cast<int>((v >> shift) & (kSub - 1));
  }
  static double Lower(int index) {
    if (index < 2 * kSub) return index;
    const int shift = index / kSub - 1;
    return static_cast<double>(kSub + index % kSub) * std::ldexp(1.0, shift);
  }

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

// Seconds of a phase, for the per-second throughput printout.
int SecondsOf(double seconds) {
  return std::max(1, static_cast<int>(std::ceil(seconds)));
}

// ---------------------------------------------------------------------------
// Closed-loop clients.

// What one client, or all clients of a phase together, did and measured.
struct PhaseResult {
  double seconds = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;  // engine returned an error
  uint64_t wrong = 0;   // engine answered, but not what was written
  std::vector<uint64_t> ops_per_second;
  LatencyHistogram lat[kNumClasses];  // ns
  LatencyHistogram queue_wait_us;     // per Put
  PerfContext perf;                   // the clients' deltas, summed
  std::string first_error;

  uint64_t Count(OpClass c) const { return lat[static_cast<int>(c)].count(); }
  double PercentileUs(OpClass c, double pct) const {
    return lat[static_cast<int>(c)].Percentile(pct) / 1000.0;
  }

  void Merge(const PhaseResult& r) {
    ops += r.ops;
    failed += r.failed;
    wrong += r.wrong;
    if (first_error.empty()) first_error = r.first_error;
    ops_per_second.resize(r.ops_per_second.size(), 0);
    for (size_t s = 0; s < r.ops_per_second.size(); s++) {
      ops_per_second[s] += r.ops_per_second[s];
    }
    for (int c = 0; c < kNumClasses; c++) lat[c].Merge(r.lat[c]);
    queue_wait_us.Merge(r.queue_wait_us);
    // Only the PerfContext fields the per-layer metrics use.
    perf.block_read_count += r.perf.block_read_count;
    perf.index_seek_count += r.perf.index_seek_count;
    perf.merge_iter_seek_count += r.perf.merge_iter_seek_count;
    perf.merge_iter_step_count += r.perf.merge_iter_step_count;
  }
};

class Client {
 public:
  Client(Harness* h, std::vector<uint32_t>* versions, int id, uint64_t seed,
         bool traced)
      : h_(h), data_(h->data()), versions_(versions), id_(id), traced_(traced),
        rng_(OpSeed(seed, id)) {
    const WorkloadSpec& spec = *h->cfg().spec;
    if (spec.mix == Mix::kReadWrite) {
      zipf_ = lsmlab::NewZipfianGenerator(data_.num_keys() / spec.clients,
                                          0.99, rng_.Next());
    }
  }

  // Runs until `deadline` or, when max_ops > 0, for exactly max_ops ops.
  void Run(Clock::time_point start, Clock::time_point deadline,
           uint64_t max_ops, PhaseResult* r) {
    const PerfContext before = *lsmlab::GetPerfContext();
    const int seconds = SecondsOf(h_->cfg().seconds);
    r->ops_per_second.assign(seconds, 0);
    const int clients = h_->cfg().spec->clients;
    for (uint64_t i = 0; max_ops == 0 || i < max_ops; i++) {
      Clock::time_point t0;
      Clock::time_point t1;
      const OpClass op = OneOp(clients, &t0, &t1, r);
      r->lat[static_cast<int>(op)].Add(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
      const int64_t second =
          std::chrono::duration_cast<std::chrono::seconds>(t1 - start).count();
      r->ops_per_second[std::min<int64_t>(second, seconds - 1)]++;
      r->ops++;
      if (max_ops == 0 && t1 >= deadline) break;
    }
    r->perf = lsmlab::GetPerfContext()->Delta(before);
  }

 private:
  void Fail(PhaseResult* r, bool wrong, const std::string& what) {
    (wrong ? r->wrong : r->failed)++;
    if (r->first_error.empty()) r->first_error = what;
  }

  OpClass OneOp(int clients, Clock::time_point* t0, Clock::time_point* t1,
                PhaseResult* r) {
    DB* db = h_->db();
    const lsmlab::ReadOptions ro;
    switch (h_->cfg().spec->mix) {
      case Mix::kPointReads: {
        const uint64_t x = rng_.Next();
        const bool found = (x & 1) != 0;
        const uint64_t index = (x >> 1) % data_.num_keys();
        const std::string key =
            data_.Key(found ? index : index + data_.num_keys());
        const OpClass op = found ? OpClass::kGetFound : OpClass::kGetMissing;
        Status s = TimedGet(db, ro, key, op, t0, t1);
        Expect(s, found, index, 0, r);
        return op;
      }
      case Mix::kReadWrite: {
        const uint64_t index = zipf_->Next() * clients + id_;
        uint32_t& version = (*versions_)[index];
        const std::string key = data_.Key(index);
        if ((rng_.Next() & 1) != 0) {
          Status s = TimedGet(db, ro, key, OpClass::kGetFound, t0, t1);
          Expect(s, true, index, version, r);
          return OpClass::kGetFound;
        }
        Dataset::Value(index, version + 1, &value_);
        const uint64_t wait0 =
            lsmlab::GetPerfContext()->write_queue_wait_micros;
        Status s;
        *t0 = Clock::now();
        if (traced_) {
          OpSpan span(OpClass::kPut);
          s = db->Put(lsmlab::WriteOptions(), key, value_);
        } else {
          s = db->Put(lsmlab::WriteOptions(), key, value_);
        }
        *t1 = Clock::now();
        r->queue_wait_us.Add(
            lsmlab::GetPerfContext()->write_queue_wait_micros - wait0);
        if (s.ok()) {
          version++;
        } else {
          Fail(r, false, "put: " + s.ToString());
        }
        return OpClass::kPut;
      }
      case Mix::kScans: {
        const uint64_t start_num = rng_.Next();
        results_.clear();
        Status s;
        *t0 = Clock::now();
        {
          const std::string start = lsmlab::EncodeKey(start_num);
          const std::string end = lsmlab::EncodeKey(UINT64_MAX);
          if (traced_) {
            OpSpan span(OpClass::kScan);
            s = db->Scan(ro, start, end, kScanLength, &results_);
          } else {
            s = db->Scan(ro, start, end, kScanLength, &results_);
          }
        }
        *t1 = Clock::now();
        if (!s.ok()) {
          Fail(r, false, "scan: " + s.ToString());
        } else {
          CheckScan(start_num, r);
        }
        return OpClass::kScan;
      }
    }
    return OpClass::kGetFound;
  }

  Status TimedGet(DB* db, const lsmlab::ReadOptions& ro, const std::string& key,
                  OpClass op, Clock::time_point* t0, Clock::time_point* t1) {
    Status s;
    *t0 = Clock::now();
    if (traced_) {
      OpSpan span(op);
      s = db->Get(ro, key, &value_);
    } else {
      s = db->Get(ro, key, &value_);
    }
    *t1 = Clock::now();
    return s;
  }

  void Expect(const Status& s, bool found, uint64_t index, uint32_t version,
              PhaseResult* r) {
    if (found) {
      if (s.IsNotFound()) {
        Fail(r, true, "loaded key not found");
      } else if (!s.ok()) {
        Fail(r, false, "get: " + s.ToString());
      } else if (!Dataset::ValueMatches(index, version, value_)) {
        Fail(r, true, "wrong value");
      }
    } else if (s.ok()) {
      Fail(r, true, "absent key found");
    } else if (!s.IsNotFound()) {
      Fail(r, false, "get: " + s.ToString());
    }
  }

  void CheckScan(uint64_t start_num, PhaseResult* r) {
    const std::vector<uint64_t>& sorted = data_.SortedKeys();
    auto it = std::lower_bound(sorted.begin(), sorted.end(), start_num);
    const size_t expect = std::min<size_t>(kScanLength, sorted.end() - it);
    if (results_.size() != expect) {
      Fail(r, true, "scan returned the wrong number of entries");
      return;
    }
    for (size_t i = 0; i < expect; i++, ++it) {
      const auto& [key, value] = results_[i];
      const uint64_t index = data_.IndexOf(key);
      if (key != lsmlab::EncodeKey(*it) || index == UINT64_MAX ||
          !Dataset::ValueMatches(index, 0, value)) {
        Fail(r, true, "scan returned a wrong entry");
        return;
      }
    }
  }

  Harness* h_;
  const Dataset& data_;
  std::vector<uint32_t>* versions_;
  int id_;
  bool traced_;
  SplitMix rng_;
  std::unique_ptr<lsmlab::KeyGenerator> zipf_;
  std::string value_;
  std::vector<std::pair<std::string, std::string>> results_;
};

PhaseResult RunPhase(Harness* h, std::vector<uint32_t>* versions,
                     uint64_t seed, double seconds, uint64_t max_ops,
                     bool traced) {
  const int clients = h->cfg().spec->clients;
  std::vector<PhaseResult> results(clients);
  std::vector<std::unique_ptr<Client>> cs;
  for (int c = 0; c < clients; c++) {
    cs.push_back(std::make_unique<Client>(h, versions, c, seed, traced));
  }
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; c++) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const auto deadline =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
      cs[c]->Run(start, deadline, max_ops, &results[c]);
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  PhaseResult p;
  p.seconds = SecondsSince(start);
  for (const PhaseResult& r : results) p.Merge(r);
  return p;
}

// ---------------------------------------------------------------------------
// Statistics.

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::vector<OpClass> ClassesOf(Mix mix) {
  switch (mix) {
    case Mix::kPointReads:
      return {OpClass::kGetFound, OpClass::kGetMissing};
    case Mix::kReadWrite:
      return {OpClass::kGetFound, OpClass::kPut};
    case Mix::kScans:
      return {OpClass::kScan};
  }
  return {};
}

// Smallest gap between back-to-back clock reads.
double ClockReadNs() {
  double best = 1e9;
  for (int i = 0; i < 1000; i++) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::nano>(b - a).count());
  }
  return best;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;  // 0 = not a sampled statistic
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    metrics_.push_back({name, value, unit, samples});
  }

  void Print(const char* title) const {
    std::printf("%s\n", title);
    for (const Metric& m : metrics_) {
      if (m.samples > 0) {
        std::printf("  %-34s %14.4f %-6s samples=%llu\n", m.name.c_str(),
                    m.value, m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
      } else {
        std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
  }

  // The JSON line: only the metrics whose names are listed.
  std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                   const std::vector<std::string>& names) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const std::string& name : names) {
      const Metric* m = Find(name);
      if (m == nullptr) Die("metric not computed: " + name);
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(m->value) ? m->value : 0.0);
      out += (first ? "\"" : ", \"") + m->name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + m->unit + "\"}";
      first = false;
    }
    return out + "}}";
  }

 private:
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  std::vector<Metric> metrics_;
};

const std::vector<std::string> kEndToEnd = {
    "setup_s", "ops_per_s", "op_p50_us", "space_amp", "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "storage.sst_reads_per_get", "storage.sst_read_us_per_get",
    "storage.pages_per_read", "storage.reads_per_scan",
    "storage.wal_bytes_per_put", "storage.sync_count", "storage.write_amp",
    "core.get_self_us", "core.candidate_runs_per_get",
    "filter.probes_per_get", "filter.negatives_per_probe",
    "filter.false_positive_rate", "filter.probe_ns", "cache.hit_rate",
    "cache.lookups_per_get", "cache.evictions_per_kop", "index.seeks_per_get",
    "format.block_reads_per_get", "util.key_compares_per_get",
    "memtable.hit_rate", "memtable.apply_us_p50",
    "memtable.cas_retries_per_kput", "memtable.parallel_apply_share",
    "write.group_size_mean", "write.queue_wait_us_p50",
    "write.slowdown_us_per_s", "write.stall_us_per_s", "flush.count",
    "flush.busy_s", "compaction.count", "compaction.busy_s",
    "compaction.bytes_per_user_byte", "iter.steps_per_scan",
    "iter.seeks_per_scan", "trace.overhead_pct"};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Latency metrics of one phase, by class; returns the two gated summaries.
void AddLatencyMetrics(const PhaseResult& p, Mix mix, Report* report) {
  double log50 = 0;
  double log99 = 0;
  uint64_t total = 0;
  const std::vector<OpClass> classes = ClassesOf(mix);
  for (OpClass c : classes) {
    const uint64_t n = p.Count(c);
    total += n;
    const std::string name = c == OpClass::kGetFound && mix == Mix::kReadWrite
                                 ? "get"
                                 : OpClassName(c);
    const double p50 = p.PercentileUs(c, 50);
    const double p99 = p.PercentileUs(c, 99);
    report->Add(name + "_p50_us", p50, "us", n);
    report->Add(name + "_p99_us", p99, "us", n);
    if (c == OpClass::kPut) {
      report->Add("put_p999_us", p.PercentileUs(c, 99.9), "us", n);
    }
    log50 += std::log(std::max(p50, 1e-3));
    log99 += std::log(std::max(p99, 1e-3));
  }
  report->Add("op_p50_us", std::exp(log50 / classes.size()), "us", total);
  report->Add("op_p99_us", std::exp(log99 / classes.size()), "us", total);
}

// ---------------------------------------------------------------------------
// Verification after the timed phase.

// Reopens the database and checks that every key holds exactly the value
// of its last acknowledged write. Returns the number of wrong keys.
uint64_t RestartCheck(Harness* h, const std::vector<uint32_t>& versions) {
  h->Close();
  h->Open(/*load_phase=*/false, /*traced=*/false);
  const Dataset& data = h->data();
  std::vector<bool> seen(data.num_keys(), false);
  uint64_t bad = 0;
  std::unique_ptr<lsmlab::Iterator> it(
      h->db()->NewIterator(lsmlab::ReadOptions()));
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    const uint64_t index = data.IndexOf(it->key().ToString());
    if (index >= data.num_keys() || seen[index]) {
      bad++;
      continue;
    }
    seen[index] = true;
    if (!Dataset::ValueMatches(index, versions[index],
                               it->value().ToString())) {
      bad++;
    }
  }
  if (!it->status().ok()) bad++;
  it.reset();
  bad += std::count(seen.begin(), seen.end(), false);
  std::printf("restart check: %llu of %llu keys wrong after reopen\n",
              static_cast<unsigned long long>(bad),
              static_cast<unsigned long long>(data.num_keys()));
  return bad;
}

// ---------------------------------------------------------------------------
// Provenance.

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

std::string FsType(const std::string& dir) {
  struct statfs s;
  if (statfs(dir.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53:
      return "ext2/3/4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

void PrintProvenance(const Config& cfg) {
  std::printf("provenance:\n");
  std::printf("  build_type   %s (NDEBUG set)\n", PERFBENCH_BUILD_TYPE);
  std::printf("  compiler     %s\n", __VERSION__);
  std::printf("  nproc        %u\n", std::thread::hardware_concurrency());
  std::printf("  cpu          %s\n", CpuModel().c_str());
  std::printf("  sse4.2       %s\n",
              __builtin_cpu_supports("sse4.2") ? "yes" : "no");
  std::printf("  data_dir_fs  %s\n", FsType(cfg.dir).c_str());
  std::printf("workload %s: seed=%llu seconds=%.3g trace=%d keys=%llu "
              "clients=%d cache=%zu MiB setups=%d\n",
              cfg.spec->name, static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0,
              static_cast<unsigned long long>(kKeys), cfg.spec->clients,
              cfg.spec->cache_bytes / kMiB, cfg.trace ? 1 : kSetups);
}

// ---------------------------------------------------------------------------
// The two kinds of run.

int RunEndToEnd(Harness* h) {
  const Config& cfg = h->cfg();
  std::vector<double> setups;
  for (int i = 0; i < kSetups; i++) {
    const auto t0 = Clock::now();
    h->Load(/*traced=*/false);
    h->OpenForRun(/*traced=*/false);
    setups.push_back(SecondsSince(t0));
  }
  std::printf("tree after setup:\n%s\n", h->db()->DebugShape().c_str());
  std::vector<uint32_t> versions(kKeys, 0);
  const PhaseResult p =
      RunPhase(h, &versions, cfg.seed, cfg.seconds, 0, false);
  uint64_t attempted = p.ops;
  uint64_t bad = p.failed + p.wrong;  // failed or wrong operations
  if (cfg.spec->mix == Mix::kReadWrite) {
    attempted += kKeys;
    bad += RestartCheck(h, versions);
  }
  h->Close();

  Report report;
  report.Add("setup_s", Median(setups), "s", setups.size());
  report.Add("ops_per_s", p.ops / p.seconds, "1/s", p.ops);
  AddLatencyMetrics(p, cfg.spec->mix, &report);
  report.Add("space_amp", Ratio(h->DirBytes(), h->data().UserBytes()), "x");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Add("error_rate", Ratio(bad, attempted), "ratio", attempted);
  report.Print("end-to-end metrics:");
  std::printf("ops completed in each second:");
  for (uint64_t n : p.ops_per_second) {
    std::printf(" %llu", static_cast<unsigned long long>(n));
  }
  std::printf("\n");
  if (!p.first_error.empty()) {
    std::printf("first error: %s\n", p.first_error.c_str());
  }
  const bool correct = bad == 0;
  std::printf("%s\n", report.Json(correct, attempted, bad, kEndToEnd).c_str());
  return correct ? 0 : 1;
}

// Per-op counts of one determinism pass.
using Counts = std::vector<uint64_t>;

// One fixed-count pass on a freshly reopened DB with a fresh cache; the
// per-op counts of a single client must then repeat exactly.
Counts DeterminismPass(Harness* h, std::vector<uint32_t>* versions,
                       uint64_t seed, uint64_t* attempted, uint64_t* bad) {
  h->Close();
  const TraceCounters t0 = ReadCounters();
  h->OpenForRun(/*traced=*/true);
  // A scan does ~50x the work of a Get; keep the passes comparably short.
  const uint64_t ops = h->cfg().spec->mix == Mix::kScans
                           ? kDeterminismOps / 4
                           : kDeterminismOps;
  const PhaseResult p = RunPhase(h, versions, seed, 3600, ops, true);
  *attempted += p.ops;
  *bad += p.failed + p.wrong;
  const TraceCounters t1 = ReadCounters();
  const lsmlab::LruCache::Stats cs = h->cache()->GetStats();
  h->Close();
  const auto sst = static_cast<size_t>(FileKind::kSst);
  return {t1.storage[sst].reads - t0.storage[sst].reads,
          t1.filter_probes - t0.filter_probes, cs.hits, cs.misses,
          p.perf.merge_iter_step_count, p.perf.index_seek_count,
          p.perf.block_read_count};
}

// Engine and tracer counters at one instant of the traced session.
struct Snapshot {
  std::map<std::string, uint64_t> tickers;
  lsmlab::LruCache::Stats cache;
  TraceCounters trace;
  uint64_t block_reads = 0;
  uint64_t preads = 0;

  static Snapshot Take(Harness* h) {
    return Snapshot{h->Tickers(), h->cache()->GetStats(), ReadCounters(),
                    h->io()->block_reads.load(), h->io()->random_reads.load()};
  }
};

// The per-layer metrics of the traced phase p, between snapshots a and b.
// `session` holds the tracer's totals for the traced session (whose only
// ops are p's), `load` those for the load that built the tree.
Report PerLayerMetrics(Harness* h, const PhaseResult& p, const Snapshot& a,
                       const Snapshot& b, const TraceTotals& session,
                       const TraceTotals& load) {
  const bool writes = h->cfg().spec->mix == Mix::kReadWrite;
  auto tick = [&](const char* name) {
    const auto x = a.tickers.find(name);
    const auto y = b.tickers.find(name);
    if (x == a.tickers.end() || y == b.tickers.end()) {
      Die(std::string("no ticker ") + name);
    }
    return static_cast<double>(y->second - x->second);
  };
  auto ops = [&](OpClass c) { return session.ops[static_cast<int>(c)]; };
  OpAggregate gets = ops(OpClass::kGetFound);
  gets.Add(ops(OpClass::kGetMissing));
  const OpAggregate missing = ops(OpClass::kGetMissing);
  const OpAggregate scans = ops(OpClass::kScan);
  const double n_gets = gets.count;
  const double n_puts = ops(OpClass::kPut).count;
  const double n_scans = scans.count;
  const auto sst = static_cast<size_t>(FileKind::kSst);
  const auto wal = static_cast<size_t>(FileKind::kWal);
  // The read-only workloads write nothing while timed: their write-side
  // metrics describe the load that built the tree.
  const double user_bytes =
      writes ? n_puts * (8 + Dataset::kValueSize) : h->data().UserBytes();
  JobCounters jobs = load.jobs;
  double sst_appended = load.storage[sst].append_bytes;
  if (writes) {
    jobs = b.trace.jobs;
    jobs.flushes -= a.trace.jobs.flushes;
    jobs.flush_micros -= a.trace.jobs.flush_micros;
    jobs.compactions -= a.trace.jobs.compactions;
    jobs.compaction_micros -= a.trace.jobs.compaction_micros;
    jobs.compaction_bytes -= a.trace.jobs.compaction_bytes;
    sst_appended = b.trace.storage[sst].append_bytes -
                   a.trace.storage[sst].append_bytes;
  }
  const double hits = b.cache.hits - a.cache.hits;
  const double misses = b.cache.misses - a.cache.misses;

  Report r;
  r.Add("storage.sst_reads_per_get", Ratio(gets.sst_reads, n_gets), "count");
  r.Add("storage.sst_read_us_per_get", Ratio(gets.sst_read_ns / 1e3, n_gets),
        "us");
  r.Add("storage.pages_per_read",
        Ratio(b.block_reads - a.block_reads, b.preads - a.preads), "count");
  r.Add("storage.reads_per_scan", Ratio(scans.sst_reads, n_scans), "count");
  r.Add("storage.wal_bytes_per_put",
        Ratio(b.trace.storage[wal].append_bytes -
                  a.trace.storage[wal].append_bytes,
              n_puts),
        "B");
  r.Add("storage.sync_count",
        b.trace.AllStorage().syncs - a.trace.AllStorage().syncs, "count");
  r.Add("storage.write_amp", Ratio(sst_appended, user_bytes), "x");
  r.Add("core.get_self_us", Ratio(gets.self_ns / 1e3, n_gets), "us",
        gets.count);
  r.Add("core.candidate_runs_per_get",
        Ratio(tick("filter.run_skips") + tick("runs.probed"), tick("gets")),
        "count");
  r.Add("filter.probes_per_get", Ratio(gets.filter_probes, n_gets), "count");
  r.Add("filter.negatives_per_probe",
        Ratio(gets.filter_probes - gets.filter_positives, gets.filter_probes),
        "ratio");
  r.Add("filter.false_positive_rate",
        Ratio(missing.filter_positives, missing.filter_probes), "ratio",
        missing.filter_probes);
  r.Add("filter.probe_ns", Ratio(gets.filter_ns, gets.filter_probes), "ns");
  r.Add("cache.hit_rate", Ratio(hits, hits + misses), "ratio");
  r.Add("cache.lookups_per_get", Ratio(hits + misses, n_gets), "count");
  r.Add("cache.evictions_per_kop",
        Ratio(1000.0 * (b.cache.evictions - a.cache.evictions), p.ops),
        "count");
  r.Add("index.seeks_per_get", Ratio(p.perf.index_seek_count, n_gets),
        "count");
  r.Add("format.block_reads_per_get", Ratio(p.perf.block_read_count, n_gets),
        "count");
  r.Add("util.key_compares_per_get", Ratio(gets.compares, n_gets), "count");
  r.Add("memtable.hit_rate", Ratio(tick("memtable.hits"), tick("gets")),
        "ratio");
  // The DB was opened just before the phase, so the histogram covers it.
  r.Add("memtable.apply_us_p50",
        b.tickers.at("memtable_apply_micros.p50x100") / 100.0, "us",
        b.tickers.at("memtable_apply_micros.count"));
  r.Add("memtable.cas_retries_per_kput",
        Ratio(1000.0 * tick("memtable.insert_cas_retries"), n_puts), "count");
  r.Add("memtable.parallel_apply_share",
        Ratio(tick("memtable.parallel_applies"),
              tick("memtable.parallel_applies") +
                  tick("memtable.serial_applies")),
        "ratio");
  r.Add("write.group_size_mean",
        Ratio(tick("wal.group_commits") + tick("wal.group_followers"),
              tick("wal.group_commits")),
        "count");
  r.Add("write.queue_wait_us_p50", p.queue_wait_us.Percentile(50), "us",
        p.queue_wait_us.count());
  r.Add("write.slowdown_us_per_s",
        Ratio(tick("write.slowdown_micros"), p.seconds), "us/s");
  r.Add("write.stall_us_per_s", Ratio(tick("write.stall_micros"), p.seconds),
        "us/s");
  r.Add("flush.count", jobs.flushes, "count");
  r.Add("flush.busy_s", jobs.flush_micros / 1e6, "s");
  r.Add("compaction.count", jobs.compactions, "count");
  r.Add("compaction.busy_s", jobs.compaction_micros / 1e6, "s");
  r.Add("compaction.bytes_per_user_byte",
        Ratio(jobs.compaction_bytes, user_bytes), "x");
  r.Add("iter.steps_per_scan", Ratio(p.perf.merge_iter_step_count, n_scans),
        "count");
  r.Add("iter.seeks_per_scan", Ratio(p.perf.merge_iter_seek_count, n_scans),
        "count");
  return r;
}

// Runs the three determinism passes; returns false when the counts do not
// repeat for one seed or do not change with the seed.
bool CheckDeterminism(Harness* h, std::vector<uint32_t>* versions,
                      uint64_t* attempted, uint64_t* bad) {
  const uint64_t seed = h->cfg().seed;
  const Counts a = DeterminismPass(h, versions, seed, attempted, bad);
  const Counts b = DeterminismPass(h, versions, seed, attempted, bad);
  const Counts c = DeterminismPass(h, versions, seed + 1, attempted, bad);
  std::printf("count determinism (three fixed-count passes):\n");
  const char* labels[] = {"seed", "seed again", "seed + 1"};
  const Counts* all[] = {&a, &b, &c};
  for (int i = 0; i < 3; i++) {
    const Counts& v = *all[i];
    std::printf("  %-10s sst_reads=%llu filter_probes=%llu cache_hits=%llu "
                "cache_misses=%llu merge_steps=%llu index_seeks=%llu "
                "block_reads=%llu\n",
                labels[i], (unsigned long long)v[0], (unsigned long long)v[1],
                (unsigned long long)v[2], (unsigned long long)v[3],
                (unsigned long long)v[4], (unsigned long long)v[5],
                (unsigned long long)v[6]);
  }
  if (a != b || a == c) {
    std::printf("FAIL: counts do not repeat for one seed, or do not change "
                "with the seed\n");
    return false;
  }
  return true;
}

int RunTraced(Harness* h) {
  const Config& cfg = h->cfg();
  const WorkloadSpec& spec = *cfg.spec;
  std::vector<uint32_t> versions(kKeys, 0);
  uint64_t bad = 0;  // failed or wrong operations
  uint64_t attempted = 0;

  // Load with the wrappers installed: for the read-only workloads this is
  // where flush and compaction happen.
  SetTracing(true);
  ResetTrace();
  h->Load(/*traced=*/true);
  const TraceTotals load = CollectTrace();
  h->SaveLoaded();

  // Untraced baseline for the overhead figure; both phases start from the
  // same loaded files.
  SetTracing(false);
  h->OpenForRun(/*traced=*/false);
  const PhaseResult base =
      RunPhase(h, &versions, cfg.seed, cfg.seconds, 0, false);
  attempted += base.ops;
  bad += base.failed + base.wrong;
  h->RestoreLoaded();
  h->DropSnapshot();
  std::fill(versions.begin(), versions.end(), 0);

  // Traced session, reconciled over [open, close] while nothing else runs.
  ResetTrace();
  SetTracing(true);
  const uint64_t io_reads0 = h->io()->random_reads.load();
  h->OpenForRun(/*traced=*/true);
  const Snapshot before = Snapshot::Take(h);
  const PhaseResult p =
      RunPhase(h, &versions, cfg.seed + 0x5eed, cfg.seconds, 0, true);
  const Snapshot after = Snapshot::Take(h);
  attempted += p.ops;
  bad += p.failed + p.wrong;
  h->Close();
  SetTracing(false);
  const TraceTotals session = CollectTrace();
  const uint64_t io_reads = h->io()->random_reads.load() - io_reads0;
  std::filesystem::create_directories(cfg.out_dir);
  const std::string spans_path = cfg.out_dir + "/trace-" + spec.name +
                                 "-seed" + std::to_string(cfg.seed) + ".tsv";
  if (!WriteSpans(spans_path)) Die("cannot write " + spans_path);

  bool ok = true;
  const uint64_t env_reads = session.AllStorage().reads;
  std::printf("trace reconciliation: env reads %llu, IoStats.random_reads "
              "%llu; spans with children outgrowing them: %llu\n",
              static_cast<unsigned long long>(env_reads),
              static_cast<unsigned long long>(io_reads),
              static_cast<unsigned long long>(session.coverage_violations +
                                              load.coverage_violations));
  if (env_reads != io_reads || session.coverage_violations != 0 ||
      load.coverage_violations != 0) {
    std::printf("FAIL: trace does not reconcile\n");
    ok = false;
  }
  if (spec.deterministic) {
    ok = CheckDeterminism(h, &versions, &attempted, &bad) && ok;
  }
  if (spec.mix == Mix::kReadWrite) {
    attempted += kKeys;
    bad += RestartCheck(h, versions);
    h->Close();
  }

  Report report = PerLayerMetrics(h, p, before, after, session, load);
  const double base_rate = base.ops / base.seconds;
  const double traced_rate = p.ops / p.seconds;
  report.Add("trace.overhead_pct",
             100.0 * (1.0 - Ratio(traced_rate, base_rate)), "%");
  report.Print("per-layer metrics (traced phase):");
  std::printf("tracing overhead: untraced %.0f ops/s, traced %.0f ops/s\n",
              base_rate, traced_rate);
  std::printf("storage over the traced session, by file kind:\n");
  for (size_t k = 0; k < static_cast<size_t>(FileKind::kNum); k++) {
    const StorageCounters& c = session.storage[k];
    std::printf("  %-8s reads=%llu (+%llu empty) read_MB=%.1f read_ms=%.1f "
                "appends=%llu append_MB=%.1f write_ms=%.1f syncs=%llu "
                "sync_ms=%.1f\n",
                FileKindName(static_cast<FileKind>(k)),
                static_cast<unsigned long long>(c.reads),
                static_cast<unsigned long long>(c.empty_reads),
                c.read_bytes / 1e6, c.read_ns / 1e6,
                static_cast<unsigned long long>(c.appends),
                c.append_bytes / 1e6, c.write_ns / 1e6,
                static_cast<unsigned long long>(c.syncs), c.sync_ns / 1e6);
  }
  std::printf("clock: one steady_clock read costs %.1f ns; each probe time "
              "includes one\n",
              ClockReadNs());
  std::printf("spans: %llu recorded, %llu dropped over the cap, %llu "
              "Env calls outside any op or job (open, warm-up); written to "
              "%s\n",
              static_cast<unsigned long long>(session.spans_recorded),
              static_cast<unsigned long long>(session.spans_dropped),
              static_cast<unsigned long long>(session.unattributed_env_calls),
              spans_path.c_str());
  if (!p.first_error.empty()) {
    std::printf("first error: %s\n", p.first_error.c_str());
  }
  std::printf("error_rate %.6f (%llu of %llu)\n", Ratio(bad, attempted),
              static_cast<unsigned long long>(bad),
              static_cast<unsigned long long>(attempted));
  const bool correct = ok && bad == 0;
  std::printf("%s\n",
              report.Json(correct, attempted, bad, kPerLayer).c_str());
  return correct ? 0 : 1;
}

Config ParseArgs(int argc, char** argv) {
  Config cfg;
  std::string workload;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Die("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      cfg.seconds = std::stod(v);
    } else if (arg == "--trace") {
      cfg.trace = v == "1";
    } else if (arg == "--dir") {
      cfg.dir = v;
    } else if (arg == "--out-dir") {
      cfg.out_dir = v;
    } else {
      Die("unknown argument " + arg);
    }
  }
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == w.name) cfg.spec = &w;
  }
  if (cfg.spec == nullptr) Die("unknown workload '" + workload + "'");
  if (cfg.dir.empty()) Die("--dir is required");
  if (cfg.seconds <= 0) Die("--seconds must be positive");
  return cfg;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  // Debug builds run the lock-rank validator and pin tracker, which change
  // timings; numbers from them are not comparable.
  std::fprintf(stderr,
               "perfbench: refusing to measure a build without NDEBUG\n");
  return 3;
#endif
  using namespace perfbench;
  const Config cfg = ParseArgs(argc, argv);
  std::filesystem::create_directories(cfg.dir);
  PrintProvenance(cfg);
  std::unique_ptr<lsmlab::Env> posix(lsmlab::NewPosixEnv());
  Harness h(cfg, posix.get());
  const int rc = cfg.trace ? RunTraced(&h) : RunEndToEnd(&h);
  h.Destroy();
  std::fflush(stdout);
  return rc;
}
