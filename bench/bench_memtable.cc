// E13 — Memtable representation tradeoffs (tutorial I-2, §II-4, §II-5;
// FloDB [9], RUM conjecture [7]).
//
// Claims: the skiplist balances insert and search; a sorted dense vector
// searches faster (cache locality) but pays O(n) inserts; an auxiliary
// hash index gives O(1) latest-version gets on either representation for
// extra memory.
//
// E23 (--threads=1,2,4,8) — Concurrent memtable inserts.
//
// Claims: the skiplist's per-level CAS splice (`SkipList::Insert`) lets N
// writers insert into one memtable with near-linear scaling (the list is
// insert-only, so a failed CAS only re-walks one splice level). CAS
// retries stay rare relative to inserts — contention is
// per-splice-neighborhood, not global. The baseline is one writer on the
// same insert path.

#include <atomic>
#include <cstring>
#include <thread>

#include "bench_common.h"
#include "memtable/memtable.h"

namespace lsmlab {
namespace bench {
namespace {

void Run() {
  PrintHeader("E13 memtable designs",
              "rep,hash_index,entries,insert_ns,get_ns,memory_bytes");
  InternalKeyComparator icmp(BytewiseComparator());

  for (size_t n : {10'000u, 50'000u}) {
    for (MemTable::Rep rep :
         {MemTable::Rep::kSkipList, MemTable::Rep::kSortedVector}) {
      for (bool hash : {false, true}) {
        MemTable* mem = new MemTable(icmp, rep, hash);
        mem->Ref();

        auto gen = NewUniformGenerator(kKeyDomain, 42);
        std::vector<std::string> keys;
        keys.reserve(n);
        for (size_t i = 0; i < n; i++) {
          keys.push_back(EncodeKey(gen->Next()));
        }
        const double insert_ms = TimeMs([&] {
          for (size_t i = 0; i < n; i++) {
            mem->Add(i + 1, ValueType::kTypeValue, keys[i], "value");
          }
        });

        Random rng(7);
        std::string value;
        Status st;
        volatile bool sink = false;
        const size_t kGets = 100000;
        const double get_ms = TimeMs([&] {
          for (size_t i = 0; i < kGets; i++) {
            LookupKey lkey(keys[rng.Uniform(keys.size())],
                           kMaxSequenceNumber);
            sink = sink ^ mem->Get(lkey, &value, &st);
          }
        });

        std::printf("%s,%s,%zu,%.0f,%.0f,%zu\n",
                    rep == MemTable::Rep::kSkipList ? "skiplist" : "vector",
                    hash ? "on" : "off", n, insert_ms * 1e6 / n,
                    get_ms * 1e6 / kGets, mem->ApproximateMemoryUsage());
        mem->Unref();
      }
    }
  }
  std::printf(
      "# expect: vector insert_ns grows ~linearly with entries while\n"
      "# skiplist stays ~log; vector get_ns < skiplist get_ns; the hash\n"
      "# index makes get_ns flat and small on both, for extra memory.\n");
}

void RunE23Threads(const std::vector<int>& thread_counts) {
  PrintHeader("E23a concurrent memtable inserts vs writer threads",
              "threads,entries,kinserts_per_s,speedup,cas_retries");
  InternalKeyComparator icmp(BytewiseComparator());
  constexpr size_t kN = 400'000;  // fixed total keys across every row

  auto gen = NewUniformGenerator(kKeyDomain, 42);
  std::vector<std::string> keys;
  keys.reserve(kN);
  for (size_t i = 0; i < kN; i++) {
    keys.push_back(EncodeKey(gen->Next()));
  }

  // The first row is always one writer: the baseline of the speedup column.
  std::vector<int> rows = {1};
  for (int threads : thread_counts) {
    if (threads != 1) {
      rows.push_back(threads);
    }
  }
  double baseline_wps = 0;
  for (int threads : rows) {
    MemTable* mem = new MemTable(icmp, MemTable::Rep::kSkipList, false);
    mem->Ref();
    const size_t per_thread = kN / threads;
    std::atomic<uint64_t> cas_retries{0};
    std::vector<std::thread> workers;
    const double ms = TimeMs([&] {
      for (int t = 0; t < threads; t++) {
        workers.emplace_back([&, t] {
          // Pre-assigned disjoint sequence ranges, exactly as the group
          // apply hands them out to its appliers.
          const size_t begin = static_cast<size_t>(t) * per_thread;
          uint64_t retries = 0;
          for (size_t i = begin; i < begin + per_thread; i++) {
            retries +=
                mem->Add(i + 1, ValueType::kTypeValue, keys[i], "value");
          }
          cas_retries.fetch_add(retries, std::memory_order_relaxed);
        });
      }
      for (auto& w : workers) {
        w.join();
      }
    });
    const double wps = per_thread * threads / (ms / 1000.0);
    if (threads == 1) {
      baseline_wps = wps;
    }
    std::printf("%d,%zu,%.1f,%.2fx,%llu\n", threads,
                per_thread * static_cast<size_t>(threads), wps / 1000.0,
                wps / baseline_wps,
                static_cast<unsigned long long>(cas_retries.load()));
    mem->Unref();
  }
  std::printf(
      "# expect: on a multi-core host 4-8 writers scale to several times\n"
      "# the one-writer rate, bounded by memory bandwidth rather than the\n"
      "# list; on a 1-core testbed the rows stay flat — the signal there\n"
      "# is cas_retries staying a tiny fraction of entries even with 8\n"
      "# interleaved writers (the end-to-end parallel win is measured by\n"
      "# E23b, which charges insert cost in overlappable wall clock).\n");
}

}  // namespace
}  // namespace bench
}  // namespace lsmlab

int main(int argc, char** argv) {
  // `--threads=1,2,4,8` runs the E23a concurrent-insert sweep with the
  // given writer counts; with no arguments the E13 representation
  // comparison runs.
  std::vector<int> thread_counts;
  for (int i = 1; i < argc; i++) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      int value = 0;
      for (const char* p = arg + 10; *p != '\0'; p++) {
        if (*p >= '0' && *p <= '9') {
          value = value * 10 + (*p - '0');
        } else if (*p == ',' && value > 0) {
          thread_counts.push_back(value);
          value = 0;
        } else {
          std::fprintf(stderr, "bad --threads list: %s\n", arg);
          return 1;
        }
      }
      if (value > 0) {
        thread_counts.push_back(value);
      }
    } else {
      std::fprintf(stderr, "usage: %s [--threads=1,2,4,8]\n", argv[0]);
      return 1;
    }
  }
  if (!thread_counts.empty()) {
    lsmlab::bench::RunE23Threads(thread_counts);
    return 0;
  }
  lsmlab::bench::Run();
}
