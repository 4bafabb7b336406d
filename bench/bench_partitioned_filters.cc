// E16 — Partitioned filters (tutorial §II-2; RocksDB partitioned
// index/filters [89]).
//
// Claim: partitioning the filter per data block lets the engine keep only
// the hot partitions cached instead of one resident monolithic filter per
// table — a large cut in resident filter memory at ~the same skip rate,
// paying an occasional extra I/O to fetch a cold partition.

#include "bench_common.h"
#include "cache/block_cache.h"

namespace lsmlab {
namespace bench {
namespace {

void Run() {
  PrintHeader("E16 monolithic vs partitioned filters",
              "filters,resident_filter_index_bytes,zero_get_ios_cold,"
              "zero_get_ios_warm,filter_skips_per_get,zero_get_ns_warm,"
              "existing_get_ns");
  const size_t kN = 80000;
  for (bool partitioned : {false, true}) {
    BlockCache cache(2 << 20);
    Options options;
    options.merge_policy = MergePolicy::kLeveling;
    options.size_ratio = 6;
    options.write_buffer_size = 64 << 10;
    options.max_file_size = 64 << 10;
    options.level0_compaction_trigger = 2;
    options.filter_bits_per_key = 10;
    options.partition_filters = partitioned;
    options.block_cache = &cache;
    TestDb db = LoadDb(options, kN, 64);
    db.db->CompactAll().IgnoreError();

    DBStats s0 = db.db->GetStats();
    const GetCost cold = MeasureGets(&db, kN, 3000, /*existing=*/false, 5);
    // Warm: repeat over the same absent-key stream so partitions are hot.
    MeasureGets(&db, kN, 10000, /*existing=*/false, 9);
    DBStats s1 = db.db->GetStats();
    const GetCost warm = MeasureGets(&db, kN, 10000, /*existing=*/false, 9);
    DBStats s2 = db.db->GetStats();

    // Touch every table so IndexMemoryUsage reflects all of them.
    const GetCost existing = MeasureGets(&db, kN, 2000, /*existing=*/true, 11);
    DBStats resident = db.db->GetStats();

    std::printf("%s,%zu,%.3f,%.3f,%.2f,%.0f,%.0f\n",
                partitioned ? "partitioned" : "monolithic",
                resident.index_filter_memory, cold.ios_per_op,
                warm.ios_per_op,
                static_cast<double>(s2.filter_skips - s1.filter_skips) /
                    10000,
                warm.ns_per_op, existing.ns_per_op);
    (void)s0;
  }
  std::printf(
      "# expect: partitioned cuts resident filter+index memory (filters\n"
      "# live in the block cache, not the table reader); warm skip rates\n"
      "# match monolithic; cold probes pay ~1 extra I/O per partition\n"
      "# fetch, amortized away by the cache.\n");
}

}  // namespace
}  // namespace bench
}  // namespace lsmlab

int main() { lsmlab::bench::Run(); }
